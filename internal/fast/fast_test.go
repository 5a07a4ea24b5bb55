package fast

import (
	"testing"

	"mcpaxos/internal/ballot"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/quorum"
	"mcpaxos/internal/storage"
)

func TestConfigValidate(t *testing.T) {
	cl := NewCluster(ClusterOpts{NAcceptors: 4, F: 1, E: 1, Seed: 1})
	if err := cl.Cfg.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := cl.Cfg
	bad.Strategy = RecoveryUncoordinated // FastScheme's successor is classic
	if err := bad.Validate(); err == nil {
		t.Errorf("uncoordinated recovery with classic successors must be rejected")
	}
	bad = cl.Cfg
	bad.Scheme = nil
	if err := bad.Validate(); err == nil {
		t.Errorf("nil scheme must be rejected")
	}
	bad = cl.Cfg
	bad.Strategy = Strategy(99)
	if err := bad.Validate(); err == nil {
		t.Errorf("unknown strategy must be rejected")
	}
}

func TestStrategyString(t *testing.T) {
	for s, want := range map[Strategy]string{
		RecoveryRestart:       "restart",
		RecoveryCoordinated:   "coordinated",
		RecoveryUncoordinated: "uncoordinated",
		Strategy(0):           "unknown",
	} {
		if s.String() != want {
			t.Errorf("Strategy(%d).String() = %q want %q", s, s.String(), want)
		}
	}
}

func TestFastDecisionTwoSteps(t *testing.T) {
	// E1 shape: with the fast round set up (phase 1 + Any done), a single
	// proposal is learned in 2 steps: propose→2b→learn (Section 2.2).
	cl := NewCluster(ClusterOpts{NAcceptors: 4, F: 1, E: 1, Seed: 1})
	cl.Coord.Start()
	cl.Sim.Run() // phase 1 + Any distribution
	start := cl.Sim.Now()
	cl.Propose(1, cstruct.Cmd{ID: 7})
	cl.Sim.Run()
	if cl.LearnTime < 0 {
		t.Fatalf("nothing learned")
	}
	if steps := cl.LearnTime - start; steps != 2 {
		t.Errorf("fast round learned in %d steps, want 2", steps)
	}
	if cl.LearnedCmd.ID != 7 {
		t.Errorf("learned %v, want command 7", cl.LearnedCmd)
	}
}

func TestSingleProposalNoCollision(t *testing.T) {
	cl := NewCluster(ClusterOpts{NAcceptors: 5, F: 1, E: 1, Seed: 1})
	cl.Coord.Start()
	cl.Sim.Run()
	cl.Propose(1, cstruct.Cmd{ID: 1})
	cl.Sim.Run()
	if _, ok := cl.Learners[0].Learned(); !ok {
		t.Fatalf("single proposal must be learned")
	}
	// All acceptors voted the same value in the fast round: no recovery.
	if got := cl.Coord.Rnd(); !got.Equal(cl.Cfg.Scheme.First(0, 100)) {
		t.Errorf("round advanced without a collision: %v", got)
	}
}

// forceCollision sets up a 4-acceptor fast round and delivers two competing
// proposals so that acceptors split 2-2: no value reaches the fast quorum
// of 3 and recovery must run.
func forceCollision(t *testing.T, strategy Strategy, scheme ballot.Scheme) *Cluster {
	t.Helper()
	cl := NewCluster(ClusterOpts{NAcceptors: 4, F: 1, E: 1, Seed: 1, Strategy: strategy, Scheme: scheme})
	cl.Coord.Start()
	cl.Sim.Run()
	// Deliver proposal A first at acceptors 0,1 and proposal B first at
	// acceptors 2,3 by sending directly with controlled timing.
	a, b := cstruct.Cmd{ID: 100}, cstruct.Cmd{ID: 200}
	cl.Sim.Register(1, nopHandler{})
	cl.Sim.Register(2, nopHandler{})
	env1, env2 := cl.Sim.Env(1), cl.Sim.Env(2)
	// Use the latency model: direct scheduling keeps both proposals one
	// step away but swaps arrival order per acceptor half.
	env1.Send(cl.Cfg.Acceptors[0], msg.Propose{Cmd: a})
	env1.Send(cl.Cfg.Acceptors[1], msg.Propose{Cmd: a})
	env2.Send(cl.Cfg.Acceptors[2], msg.Propose{Cmd: b})
	env2.Send(cl.Cfg.Acceptors[3], msg.Propose{Cmd: b})
	// The crossed deliveries arrive one step later.
	cl.Sim.After(1, func() {
		env1.Send(cl.Cfg.Acceptors[2], msg.Propose{Cmd: a})
		env1.Send(cl.Cfg.Acceptors[3], msg.Propose{Cmd: a})
		env2.Send(cl.Cfg.Acceptors[0], msg.Propose{Cmd: b})
		env2.Send(cl.Cfg.Acceptors[1], msg.Propose{Cmd: b})
		// Coordinators also hear proposals (needed for classic recovery).
		env1.Send(cl.Cfg.Coords[0], msg.Propose{Cmd: a})
		env2.Send(cl.Cfg.Coords[0], msg.Propose{Cmd: b})
	})
	return cl
}

func TestCollisionSplitsVotes(t *testing.T) {
	cl := forceCollision(t, RecoveryRestart, ballot.FastScheme{})
	cl.Sim.RunUntil(cl.Sim.Now() + 2) // both proposal waves delivered, acceptors voted
	ids := make(map[uint64]int)
	for _, acc := range cl.Accs {
		if _, v, ok := acc.Vote(); ok {
			ids[v.ID]++
		}
	}
	if len(ids) != 2 || ids[100] != 2 || ids[200] != 2 {
		t.Fatalf("expected a 2-2 split, got %v", ids)
	}
}

func TestCollisionRecoveryRestart(t *testing.T) {
	cl := forceCollision(t, RecoveryRestart, ballot.FastScheme{})
	cl.Sim.Run()
	got, ok := cl.Learners[0].Learned()
	if !ok {
		t.Fatalf("restart recovery did not decide")
	}
	if got.ID != 100 && got.ID != 200 {
		t.Errorf("decided a value that was never proposed: %v", got)
	}
}

func TestCollisionRecoveryCoordinated(t *testing.T) {
	cl := forceCollision(t, RecoveryCoordinated, ballot.FastScheme{})
	cl.Sim.Run()
	got, ok := cl.Learners[0].Learned()
	if !ok {
		t.Fatalf("coordinated recovery did not decide")
	}
	if got.ID != 100 && got.ID != 200 {
		t.Errorf("decided a value that was never proposed: %v", got)
	}
}

func TestCollisionRecoveryUncoordinated(t *testing.T) {
	cl := forceCollision(t, RecoveryUncoordinated, ballot.FastUncoordScheme{})
	cl.Sim.Run()
	got, ok := cl.Learners[0].Learned()
	if !ok {
		t.Fatalf("uncoordinated recovery did not decide")
	}
	if got.ID != 100 && got.ID != 200 {
		t.Errorf("decided a value that was never proposed: %v", got)
	}
}

func TestRecoveryLatencyOrdering(t *testing.T) {
	// E5 shape: uncoordinated < coordinated < restart recovery latency.
	times := make(map[Strategy]int64)
	for _, s := range []Strategy{RecoveryRestart, RecoveryCoordinated, RecoveryUncoordinated} {
		scheme := ballot.Scheme(ballot.FastScheme{})
		if s == RecoveryUncoordinated {
			scheme = ballot.FastUncoordScheme{}
		}
		cl := forceCollision(t, s, scheme)
		cl.Sim.Run()
		if cl.LearnTime < 0 {
			t.Fatalf("%v: no decision", s)
		}
		times[s] = cl.LearnTime
	}
	if !(times[RecoveryUncoordinated] < times[RecoveryCoordinated]) {
		t.Errorf("uncoordinated (%d) must beat coordinated (%d)",
			times[RecoveryUncoordinated], times[RecoveryCoordinated])
	}
	if !(times[RecoveryCoordinated] < times[RecoveryRestart]) {
		t.Errorf("coordinated (%d) must beat restart (%d)",
			times[RecoveryCoordinated], times[RecoveryRestart])
	}
}

func TestAllLearnersAgreeAfterCollision(t *testing.T) {
	cl := NewCluster(ClusterOpts{NAcceptors: 4, F: 1, E: 1, Seed: 1,
		Strategy: RecoveryCoordinated, NLearners: 3})
	cl.Coord.Start()
	cl.Sim.Run()
	cl.Propose(1, cstruct.Cmd{ID: 100})
	cl.Propose(2, cstruct.Cmd{ID: 200})
	cl.Sim.Run()
	ref, ok := cl.Learners[0].Learned()
	if !ok {
		t.Fatalf("no decision")
	}
	for i, l := range cl.Learners[1:] {
		got, ok := l.Learned()
		if !ok || !got.Equal(ref) {
			t.Errorf("learner %d: got %v/%v want %v", i+1, got, ok, ref)
		}
	}
}

func TestClassicRoundThroughFastConfig(t *testing.T) {
	// Drive the coordinator into the classic recovery round directly: it
	// must behave like Classic Paxos (coordinator picks the proposal).
	cl := NewCluster(ClusterOpts{NAcceptors: 4, F: 1, E: 1, Seed: 1})
	first := cl.Cfg.Scheme.First(0, 100)
	classic := cl.Cfg.Scheme.Next(first, 100)
	cl.Coord.StartRound(classic)
	cl.Sim.Run()
	cl.Propose(1, cstruct.Cmd{ID: 5})
	cl.Sim.Run()
	got, ok := cl.Learners[0].Learned()
	if !ok || got.ID != 5 {
		t.Fatalf("classic round in fast config failed: %v/%v", got, ok)
	}
}

func TestAcceptorCrashRecoveryKeepsVote(t *testing.T) {
	cl := NewCluster(ClusterOpts{NAcceptors: 4, F: 1, E: 1, Seed: 1})
	cl.Coord.Start()
	cl.Sim.Run()
	cl.Propose(1, cstruct.Cmd{ID: 77})
	cl.Sim.Run()
	id := cl.Cfg.Acceptors[0]
	cl.Sim.Crash(id)
	cl.Restart(id)
	if _, v, ok := cl.Accs[0].Vote(); !ok || v.ID != 77 {
		t.Errorf("vote lost across recovery")
	}
	if cl.Accs[0].Rnd().MCount == 0 {
		t.Errorf("recovery must bump the acceptor's incarnation")
	}
}

// TestPromiseSurvivesRecovery: an acceptor rebuilt over its store answers no
// round it can have joined in its previous life (Section 4.4). It votes at
// round vote, promises round promise and restarts; a 2a at probe, between the
// two, must then be refused — when the whole exchange happens at an MCount
// some earlier recovery raised the cluster to (the acceptor's own restart
// count dominates nothing), and when a peer's recovery lifted the rounds
// after the vote.
func TestPromiseSurvivesRecovery(t *testing.T) {
	cfg := NewCluster(ClusterOpts{NAcceptors: 4, F: 1, E: 1, Seed: 1}).Cfg
	for _, tc := range []struct {
		name                 string
		vote, promise, probe ballot.Ballot
	}{
		{"rounds already at the incarnation the restart reaches",
			ballot.Ballot{MCount: 1, MinCount: 3, ID: 100}, ballot.Ballot{MCount: 1, MinCount: 5, ID: 100}, ballot.Ballot{MCount: 1, MinCount: 4, ID: 100}},
		{"a peer's recovery lifted the rounds after the vote",
			ballot.Ballot{MinCount: 3, ID: 100}, ballot.Ballot{MCount: 1, MinCount: 5, ID: 100}, ballot.Ballot{MCount: 1, MinCount: 4, ID: 100}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env, disk := &sinkEnv{id: cfg.Acceptors[0]}, &storage.Disk{}
			a := NewAcceptor(env, cfg, disk)
			a.OnMessage(100, msg.P2a{Rnd: tc.vote, Coord: 100, Val: wrap(cstruct.Cmd{ID: 1})})
			if vrnd, _, ok := a.Vote(); !ok || !vrnd.Equal(tc.vote) {
				t.Fatalf("no vote at %v before the crash", tc.vote)
			}
			a.OnMessage(100, msg.P1a{Rnd: tc.promise, Coord: 100})
			if !a.Rnd().Equal(tc.promise) {
				t.Fatalf("joined %v, want the promised %v", a.Rnd(), tc.promise)
			}

			pre := disk.Writes()
			env.sent = nil
			a = NewAcceptor(env, cfg, disk)
			if got := disk.Writes() - pre; got != 1 {
				t.Errorf("recovery cost %d writes, want 1", got)
			}
			a.OnMessage(100, msg.P2a{Rnd: tc.probe, Coord: 100, Val: wrap(cstruct.Cmd{ID: 2})})
			if vrnd, _, _ := a.Vote(); !vrnd.Equal(tc.vote) {
				t.Errorf("voted at %v after promising %v", vrnd, tc.promise)
			}
			var st msg.Stale
			if len(env.sent) == 1 {
				st, _ = env.sent[0].(msg.Stale)
			}
			if !tc.promise.Less(st.Rnd) {
				t.Errorf("the 2a at %v drew %v, want one Stale above %v", tc.probe, env.sent, tc.promise)
			}
		})
	}
}

func TestPickRuleFreeWhenNothingAccepted(t *testing.T) {
	sys := quorum.MustAcceptorSystem(4, 1, 1)
	out := pick([]report{{}, {}, {}}, sys, ballot.FastScheme{})
	if !out.free {
		t.Errorf("no accepted values must leave the pick free")
	}
}

func TestPickRuleClassicPrevRound(t *testing.T) {
	sys := quorum.MustAcceptorSystem(4, 1, 1)
	scheme := ballot.FastScheme{}
	classic := scheme.Next(scheme.First(0, 1), 1) // classic round
	v := cstruct.Cmd{ID: 9}
	out := pick([]report{
		{vrnd: classic, vval: v, has: true},
		{},
		{},
	}, sys, scheme)
	if out.free || out.val.ID != 9 {
		t.Errorf("classic k must force its value: %+v", out)
	}
}

func TestPickRuleFastQuorumThreshold(t *testing.T) {
	sys := quorum.MustAcceptorSystem(4, 1, 1)
	scheme := ballot.FastScheme{}
	fastRnd := scheme.First(0, 1)
	a, b := cstruct.Cmd{ID: 1}, cstruct.Cmd{ID: 2}
	// |Q| = 3, E = 1 → threshold 2: value with 2 votes is forced.
	out := pick([]report{
		{vrnd: fastRnd, vval: a, has: true},
		{vrnd: fastRnd, vval: a, has: true},
		{vrnd: fastRnd, vval: b, has: true},
	}, sys, scheme)
	if out.free || out.val.ID != 1 {
		t.Errorf("value with ≥|Q|−E votes must be picked: %+v", out)
	}
	// 1-1-1 split: no value reaches the threshold → free.
	c := cstruct.Cmd{ID: 3}
	out = pick([]report{
		{vrnd: fastRnd, vval: a, has: true},
		{vrnd: fastRnd, vval: b, has: true},
		{vrnd: fastRnd, vval: c, has: true},
	}, sys, scheme)
	if !out.free {
		t.Errorf("three-way split must be free, got %+v", out)
	}
}

func TestPickConvergingBreaksTies(t *testing.T) {
	sys := quorum.MustAcceptorSystem(4, 1, 1)
	scheme := ballot.FastUncoordScheme{}
	fastRnd := scheme.First(0, 1)
	a, b := cstruct.Cmd{ID: 2}, cstruct.Cmd{ID: 5}
	reps := []report{
		{vrnd: fastRnd, vval: a, has: true},
		{vrnd: fastRnd, vval: b, has: true},
	}
	out := pickConverging(reps, sys, scheme)
	if out.free {
		t.Fatalf("converging pick must never stay free with reports present")
	}
	if out.val.ID != 2 {
		t.Errorf("tie must break to the smallest command ID, got %v", out.val)
	}
}
