package core

import (
	"testing"

	"mcpaxos/internal/ballot"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/quorum"
)

// Fast Paxos in the core engine (Section 2.2): one coordinator's fast rounds
// over single values, with each Recovery. Four acceptors, F = E = 1, so fast
// and classic quorums both hold three.

func fastCluster(set cstruct.Set, scheme ballot.Scheme, r Recovery) *Cluster {
	return NewCluster(ClusterOpts{NCoords: 1, NAcceptors: 4, F: 1, E: 1, Seed: 1,
		NLearners: 3, NProposers: 2, Scheme: scheme, Set: set, Recovery: r})
}

// collide starts cl's fast round and has proposers 1 and 2 reach the acceptor
// halves with a and b in opposite orders, so no fast quorum votes alike; the
// coordinator hears both a step later. It returns the time they were sent.
func collide(cl *Cluster, a, b cstruct.Cmd) int64 {
	cl.Start(0)
	start := cl.Sim.Now()
	pa, pb := msg.Propose{Cmd: a}, msg.Propose{Cmd: b}
	env1, env2 := cl.Sim.Env(1), cl.Sim.Env(2)
	accs := cl.Cfg.Acceptors
	env1.Send(accs[0], pa)
	env1.Send(accs[1], pa)
	env2.Send(accs[2], pb)
	env2.Send(accs[3], pb)
	cl.Sim.After(1, func() {
		env2.Send(accs[0], pb)
		env2.Send(accs[1], pb)
		env1.Send(accs[2], pa)
		env1.Send(accs[3], pa)
		env1.Send(cl.Cfg.Coords[0], pa)
		env2.Send(cl.Cfg.Coords[0], pb)
	})
	return start
}

// firstLearn is the earliest learn time learner 0 saw, or -1.
func firstLearn(cl *Cluster) int64 {
	first := int64(-1)
	for _, t := range cl.LearnTimes {
		if first < 0 || t < first {
			first = t
		}
	}
	return first
}

// checkDecided asserts every learner learned the same single command, one of
// the proposed ones.
func checkDecided(t *testing.T, cl *Cluster) {
	t.Helper()
	ref := cl.Learners[0].Learned()
	if ref.Len() != 1 || !(ref.Contains(cstruct.Cmd{ID: 100}) || ref.Contains(cstruct.Cmd{ID: 200})) {
		t.Fatalf("learner 0 learned %v, want one of the proposals", ref)
	}
	for i, l := range cl.Learners[1:] {
		if !cl.Cfg.Set.Equal(l.Learned(), ref) {
			t.Errorf("learner %d learned %v, learner 0 %v", i+1, l.Learned(), ref)
		}
	}
}

// checkRecovers runs the collision under r to quiescence: it must decide in
// want steps, the paper's cost of that recovery (Sections 2.2, 4.2).
func checkRecovers(t *testing.T, scheme ballot.Scheme, r Recovery, want int64) *Cluster {
	t.Helper()
	cl := fastCluster(cstruct.SingleValueSet{}, scheme, r)
	start := collide(cl, cstruct.Cmd{ID: 100}, cstruct.Cmd{ID: 200})
	cl.Sim.Run()
	checkDecided(t, cl)
	if got := firstLearn(cl) - start; got != want {
		t.Errorf("decided in %d steps, want %d", got, want)
	}
	return cl
}

func TestCollisionRecoveryRestart(t *testing.T) {
	checkRecovers(t, ballot.FastScheme{}, Restart, 6)
}

func TestCollisionRecoveryCoordinated(t *testing.T) {
	checkRecovers(t, ballot.FastScheme{}, Coordinated, 4)
}

func TestCollisionRecoveryUncoordinated(t *testing.T) {
	cl := checkRecovers(t, ballot.FastUncoordScheme{}, AtAcceptors, 3)
	// Every acceptor read the same quorum's pick: one recovery each.
	for i, a := range cl.Accs {
		if a.Promotions() != 1 {
			t.Errorf("acceptor %d recovered %d times, want 1", i, a.Promotions())
		}
	}
}

func TestRecoveryLatencyOrdering(t *testing.T) {
	// E5 shape: uncoordinated < coordinated < restart recovery latency.
	steps := make(map[string]int64)
	for _, tc := range []struct {
		name   string
		scheme ballot.Scheme
		r      Recovery
	}{
		{"restart", ballot.FastScheme{}, Restart},
		{"coordinated", ballot.FastScheme{}, Coordinated},
		{"uncoordinated", ballot.FastUncoordScheme{}, AtAcceptors},
	} {
		cl := fastCluster(cstruct.SingleValueSet{}, tc.scheme, tc.r)
		start := collide(cl, cstruct.Cmd{ID: 100}, cstruct.Cmd{ID: 200})
		cl.Sim.Run()
		if firstLearn(cl) < 0 {
			t.Fatalf("%s: no decision", tc.name)
		}
		steps[tc.name] = firstLearn(cl) - start
	}
	if !(steps["uncoordinated"] < steps["coordinated"]) {
		t.Errorf("uncoordinated (%d) must beat coordinated (%d)", steps["uncoordinated"], steps["coordinated"])
	}
	if !(steps["coordinated"] < steps["restart"]) {
		t.Errorf("coordinated (%d) must beat restart (%d)", steps["coordinated"], steps["restart"])
	}
}

func TestAllLearnersAgreeAfterCollision(t *testing.T) {
	// Two proposers race into the fast round; whatever the split, all three
	// learners end on the same decision.
	cl := fastCluster(cstruct.SingleValueSet{}, ballot.FastScheme{}, Coordinated)
	cl.Start(0)
	cl.Props[0].Propose(cstruct.Cmd{ID: 100})
	cl.Props[1].Propose(cstruct.Cmd{ID: 200})
	cl.Sim.Run()
	checkDecided(t, cl)
}

func TestCollisionRecoveryPromote(t *testing.T) {
	// AtAcceptors before a classic successor: acceptors join it, its
	// coordinator runs phase 2 (three extra steps).
	checkRecovers(t, ballot.FastScheme{}, AtAcceptors, 5)
}

func TestCollisionUnrecoveredWithoutRecovery(t *testing.T) {
	cl := fastCluster(cstruct.SingleValueSet{}, ballot.FastScheme{}, 0)
	collide(cl, cstruct.Cmd{ID: 100}, cstruct.Cmd{ID: 200})
	first := cl.Accs[0].Rnd()
	cl.Sim.Run()
	if got := cl.Learners[0].LearnedCount(); got != 0 {
		t.Errorf("learned %d commands from a split fast round with no recovery", got)
	}
	for i, a := range cl.Accs {
		if !a.Rnd().Equal(first) {
			t.Errorf("acceptor %d left the collided round for %v", i, a.Rnd())
		}
	}
}

func TestFastDecisionTwoSteps(t *testing.T) {
	// E1 shape: with the fast round set up (phase 1 and the ⊥ 2a done), a
	// proposal is learned in 2 steps: propose → 2b → learn (Section 2.2).
	cl := fastCluster(cstruct.SingleValueSet{}, ballot.FastScheme{}, Coordinated)
	cl.Start(0)
	start := cl.Sim.Now()
	cl.Props[0].Propose(cstruct.Cmd{ID: 7})
	cl.Sim.Run()
	lt, ok := cl.LearnTimes[7]
	if !ok {
		t.Fatalf("nothing learned: %v", cl.Learners[0].Learned())
	}
	if steps := lt - start; steps != 2 {
		t.Errorf("fast round learned in %d steps, want 2", steps)
	}
	if got := cl.Learners[0].Learned(); got.Len() != 1 || !got.Contains(cstruct.Cmd{ID: 7}) {
		t.Errorf("learned %v, want command 7", got)
	}
}

// TestSingleProposalNoCollision: whatever the recovery, a lone proposal is
// decided in the fast round's two steps, for one write per acceptor and no
// round change.
func TestSingleProposalNoCollision(t *testing.T) {
	for _, tc := range []struct {
		name   string
		scheme ballot.Scheme
		r      Recovery
	}{
		{"none", ballot.FastScheme{}, 0},
		{"restart", ballot.FastScheme{}, Restart},
		{"coordinated", ballot.FastScheme{}, Coordinated},
		{"at-acceptors", ballot.FastScheme{}, AtAcceptors},
		{"uncoordinated", ballot.FastUncoordScheme{}, AtAcceptors},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl := fastCluster(cstruct.SingleValueSet{}, tc.scheme, tc.r)
			cl.Start(0)
			first := cl.Accs[0].Rnd()
			for _, d := range cl.Disks {
				d.ResetWrites()
			}
			start := cl.Sim.Now()
			cl.Props[0].Propose(cstruct.Cmd{ID: 100})
			cl.Sim.Run()
			checkDecided(t, cl)
			if got := firstLearn(cl) - start; got != 2 {
				t.Errorf("decided in %d steps, want 2", got)
			}
			if got := cl.TotalDiskWrites(); got != 4 {
				t.Errorf("%d acceptor writes, want 4", got)
			}
			if !cl.Coords[0].Rnd().Equal(first) || !cl.Accs[0].Rnd().Equal(first) {
				t.Errorf("round changed without a collision")
			}
		})
	}
}

// TestAcceptorOneValuePerRound: a fast round over single values keeps the
// first proposal an acceptor appended. Appending a second to it is a no-op,
// which tryFastAppend once took for growth and accepted, recursing without
// end.
func TestAcceptorOneValuePerRound(t *testing.T) {
	cl := fastCluster(cstruct.SingleValueSet{}, ballot.FastScheme{}, 0)
	cl.Start(0)
	cl.Props[0].Propose(cstruct.Cmd{ID: 1})
	cl.Sim.Run()
	pre := cl.Disks[0].Writes()
	cl.Props[1].Propose(cstruct.Cmd{ID: 2})
	cl.Sim.Run()
	if v := cl.Accs[0].VVal(); v.Len() != 1 || !v.Contains(cstruct.Cmd{ID: 1}) {
		t.Fatalf("acceptor holds %v after a second proposal, want c1", v)
	}
	if got := cl.Disks[0].Writes() - pre; got != 0 {
		t.Errorf("the second proposal cost %d writes, want 0", got)
	}
}

func TestCollisionSplitsVotes(t *testing.T) {
	cl := fastCluster(cstruct.SingleValueSet{}, ballot.FastScheme{}, 0)
	start := collide(cl, cstruct.Cmd{ID: 100}, cstruct.Cmd{ID: 200})
	cl.Sim.RunUntil(start + 2) // both waves delivered
	ids := make(map[uint64]int)
	for _, a := range cl.Accs {
		for _, c := range a.VVal().Commands() {
			ids[c.ID]++
		}
	}
	if len(ids) != 2 || ids[100] != 2 || ids[200] != 2 {
		t.Fatalf("expected a 2-2 split, got %v", ids)
	}
}

// TestCoordinatedRecoveryOrdersConflictingHistories: Generalized Paxos's fast
// round with two conflicting commands accepted in opposite orders. The
// coordinator reads the 2bs as the next round's 1bs and orders both there.
func TestCoordinatedRecoveryOrdersConflictingHistories(t *testing.T) {
	cl := fastCluster(cstruct.NewHistorySet(cstruct.AlwaysConflict), ballot.FastScheme{}, Coordinated)
	a, b := cstruct.Cmd{ID: 100}, cstruct.Cmd{ID: 200}
	proposed := []cstruct.Cmd{a, b}
	collide(cl, a, b)
	first := cl.Accs[0].Rnd()
	cl.Sim.Run()
	for _, id := range []uint64{100, 200} {
		if _, ok := cl.LearnTimes[id]; !ok {
			t.Fatalf("command %d not learned after coordinated recovery", id)
		}
	}
	if !cl.Agreement() {
		t.Fatalf("learners diverged")
	}
	if want := cl.Cfg.Scheme.Next(first, first.ID); !cl.Coords[0].Rnd().Equal(want) {
		t.Errorf("coordinator at %v, want the successor round %v", cl.Coords[0].Rnd(), want)
	}
	for i, acc := range cl.Accs {
		if acc.Promotions() != 0 {
			t.Errorf("acceptor %d promoted: the coordinator, not the acceptors, recovers", i)
		}
	}
	checkRefined(t, cl, proposed, "after coordinated recovery")
}

func TestClassicRoundThroughFastConfig(t *testing.T) {
	// The classic round of a fast scheme, started directly, behaves like
	// Classic Paxos: the coordinator picks the proposal.
	cl := fastCluster(cstruct.SingleValueSet{}, ballot.FastScheme{}, Coordinated)
	first := cl.Cfg.Scheme.First(0, uint32(cl.Cfg.Coords[0]))
	cl.Coords[0].StartRound(cl.Cfg.Scheme.Next(first, first.ID))
	cl.Sim.Run()
	cl.Props[0].Propose(cstruct.Cmd{ID: 100})
	cl.Sim.Run()
	checkDecided(t, cl)
}

func TestAcceptorCrashRecoveryKeepsVote(t *testing.T) {
	cl := fastCluster(cstruct.SingleValueSet{}, ballot.FastScheme{}, Coordinated)
	cl.Start(0)
	cl.Props[0].Propose(cstruct.Cmd{ID: 77})
	cl.Sim.Run()
	id := cl.Cfg.Acceptors[0]
	cl.Sim.Crash(id)
	cl.Restart(id)
	if v := cl.Accs[0].VVal(); v.Len() != 1 || !v.Contains(cstruct.Cmd{ID: 77}) {
		t.Errorf("fast-round vote lost across recovery: %v", v)
	}
	if cl.Accs[0].Rnd().MCount == 0 {
		t.Errorf("recovery must bump the acceptor's incarnation")
	}
}

// TestFastConfigValidate: every fast-round deployment the E1/E5 rows run is
// valid, and an unknown Recovery is not.
func TestFastConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		scheme ballot.Scheme
		r      Recovery
	}{
		{ballot.FastScheme{}, 0},
		{ballot.FastScheme{}, Restart},
		{ballot.FastScheme{}, Coordinated},
		{ballot.FastScheme{}, AtAcceptors},
		{ballot.FastUncoordScheme{}, AtAcceptors},
	} {
		cfg := fastCluster(cstruct.SingleValueSet{}, tc.scheme, tc.r).Cfg
		if err := cfg.Validate(); err != nil {
			t.Errorf("%T with recovery %d rejected: %v", tc.scheme, tc.r, err)
		}
	}
	bad := fastCluster(cstruct.SingleValueSet{}, ballot.FastScheme{}, Coordinated).Cfg
	bad.Recovery = AtAcceptors + 1
	if err := bad.Validate(); err == nil {
		t.Errorf("unknown recovery must be rejected")
	}
	bad.Recovery, bad.Scheme = Coordinated, nil
	if err := bad.Validate(); err == nil {
		t.Errorf("nil scheme must be rejected")
	}
}

// The pick a fast-round recovery makes from a quorum's reports (Section 2.2):
// ProvedSafe, then PickValue, over single values with n = 4, E = 1.

func TestPickRuleFreeWhenNothingAccepted(t *testing.T) {
	set := cstruct.SingleValueSet{}
	sys := quorum.MustAcceptorSystem(4, 1, 1)
	none := Report{VRnd: ballot.Zero, VVal: set.Bottom()}
	reps := []Report{none, none, none}
	for i := range reps {
		reps[i].AccIdx = i
	}
	got, err := ProvedSafeSized(set, sys, ballot.FastScheme{}, reps)
	if err != nil || len(got) != 1 || got[0].Len() != 0 {
		t.Errorf("no accepted values must leave the pick free (⊥), got %v (%v)", got, err)
	}
}

func TestPickRuleClassicPrevRound(t *testing.T) {
	set := cstruct.SingleValueSet{}
	sys := quorum.MustAcceptorSystem(4, 1, 1)
	scheme := ballot.FastScheme{}
	classic := scheme.Next(scheme.First(0, 100), 100)
	v := cstruct.NewSingleValue(cstruct.Cmd{ID: 9})
	got, err := ProvedSafeSized(set, sys, scheme, []Report{
		{AccIdx: 0, VRnd: classic, VVal: v},
		{AccIdx: 1, VRnd: ballot.Zero, VVal: set.Bottom()},
		{AccIdx: 2, VRnd: ballot.Zero, VVal: set.Bottom()},
	})
	if err != nil || len(got) != 1 || !set.Equal(got[0], v) {
		t.Errorf("a value accepted at classic round k must be forced, got %v (%v)", got, err)
	}
}

// TestPickConvergingBreaksTies: acceptors recovering without a coordinator
// must pick alike from the same 2bs, so when ProvedSafe leaves two values
// open, PickValue's tie-break decides — whatever order the 2bs arrived in.
func TestPickConvergingBreaksTies(t *testing.T) {
	cfg := fastCluster(cstruct.SingleValueSet{}, ballot.FastUncoordScheme{}, AtAcceptors).Cfg
	k := cfg.Scheme.First(0, 100)
	next := cfg.Scheme.Next(k, k.ID)
	a, b := cstruct.NewSingleValue(cstruct.Cmd{ID: 2}), cstruct.NewSingleValue(cstruct.Cmd{ID: 5})
	p1bs := []msg.P1b{
		{Rnd: next, Acc: cfg.Acceptors[0], VRnd: k, VVal: a},
		{Rnd: next, Acc: cfg.Acceptors[1], VRnd: k, VVal: b},
		{Rnd: next, Acc: cfg.Acceptors[2]},
		{Rnd: next, Acc: cfg.Acceptors[3]},
	}
	swapped := append([]msg.P1b{p1bs[1], p1bs[0]}, p1bs[2:]...)
	for _, in := range [][]msg.P1b{p1bs, swapped} {
		v, ok := cfg.safeValue(in)
		if !ok || v.Len() == 0 {
			t.Fatalf("converging pick must never stay free with reports present: %v/%v", v, ok)
		}
		if !cfg.Set.Equal(v, a) {
			t.Errorf("tie must break to the smallest rendering, c2, got %v", v)
		}
	}
}

// The learner over single values: a value is learned once a quorum of the
// round's kind — fast for fast rounds — voted it, and a higher round's votes
// supersede an acceptor's older ones.

func learnerFixture() (*Learner, ballot.Ballot, ballot.Ballot) {
	cfg := fastCluster(cstruct.SingleValueSet{}, ballot.FastScheme{}, 0).Cfg
	l := NewLearner(&sinkEnv{id: cfg.Learners[0]}, cfg, nil)
	r := cfg.Scheme.First(0, uint32(cfg.Coords[0]))
	return l, r, cfg.Scheme.Next(r, r.ID)
}

func vote(l *Learner, r ballot.Ballot, acc msg.NodeID, id uint64) {
	l.OnMessage(acc, msg.P2b{Rnd: r, Acc: acc, Val: cstruct.NewSingleValue(cstruct.Cmd{ID: id})})
}

func learned(l *Learner, id uint64) bool { return l.Learned().Contains(cstruct.Cmd{ID: id}) }

func TestLearnerNeedsFastQuorum(t *testing.T) {
	l, r, _ := learnerFixture()
	vote(l, r, 200, 7)
	vote(l, r, 201, 7)
	if l.LearnedCount() != 0 {
		t.Fatalf("2 of 4 votes must not reach the fast quorum of 3")
	}
	vote(l, r, 202, 7)
	if !learned(l, 7) {
		t.Fatalf("3 matching votes must decide: %v", l.Learned())
	}
}

func TestLearnerIgnoresDuplicateVotes(t *testing.T) {
	l, r, _ := learnerFixture()
	for i := 0; i < 5; i++ {
		vote(l, r, 200, 7)
	}
	if l.LearnedCount() != 0 {
		t.Fatalf("one acceptor repeating itself must not decide")
	}
}

func TestLearnerHigherRoundSupersedes(t *testing.T) {
	l, r, next := learnerFixture()
	vote(l, r, 200, 1)
	vote(l, r, 201, 2)
	for _, acc := range []msg.NodeID{200, 201, 202} {
		vote(l, next, acc, 1)
	}
	if !learned(l, 1) {
		t.Fatalf("the recovery round must decide: %v", l.Learned())
	}
}

func TestLearnerRejectsStaleRoundVote(t *testing.T) {
	l, r, next := learnerFixture()
	vote(l, next, 200, 1)
	vote(l, r, 200, 2) // delayed from the older round
	vote(l, next, 201, 1)
	vote(l, next, 202, 1)
	if !learned(l, 1) || learned(l, 2) {
		t.Fatalf("a stale vote corrupted the decision: %v", l.Learned())
	}
}
