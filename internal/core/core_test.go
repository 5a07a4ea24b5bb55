package core

import (
	"testing"

	"mcpaxos/internal/ballot"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
)

func TestConfigValidate(t *testing.T) {
	cl := NewCluster(ClusterOpts{NCoords: 3, NAcceptors: 3, F: 1, Seed: 1})
	if err := cl.Cfg.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := cl.Cfg
	bad.Coords = nil
	if err := bad.Validate(); err == nil {
		t.Errorf("no coordinators must be rejected")
	}
	bad = cl.Cfg
	bad.Set = nil
	if err := bad.Validate(); err == nil {
		t.Errorf("nil set must be rejected")
	}
	bad = cl.Cfg
	bad.Scheme = nil
	if err := bad.Validate(); err == nil {
		t.Errorf("nil scheme must be rejected")
	}
	bad = cl.Cfg
	bad.Coords = bad.Coords[:2] // mismatch with CoordQ
	if err := bad.Validate(); err == nil {
		t.Errorf("coordinator/coord-quorum mismatch must be rejected")
	}
}

func TestRoundCoords(t *testing.T) {
	cl := NewCluster(ClusterOpts{NCoords: 3, NAcceptors: 3, F: 1, Seed: 1})
	multi := cl.Cfg.Scheme.First(0, 100) // MultiScheme: multicoordinated
	single := cl.Cfg.Scheme.Next(multi, 100)
	if got := cl.Cfg.RoundCoords(multi); len(got) != 3 {
		t.Errorf("multicoordinated round must have all coordinators, got %v", got)
	}
	if got := cl.Cfg.RoundCoords(single); len(got) != 1 || got[0] != 100 {
		t.Errorf("single-coordinated round must have its owner only, got %v", got)
	}
	if cl.Cfg.CoordQuorumSize(multi) != 2 {
		t.Errorf("coordquorum size for 3 coordinators must be 2")
	}
	if cl.Cfg.CoordQuorumSize(single) != 1 {
		t.Errorf("single round coordquorum size must be 1")
	}
	if !cl.Cfg.IsCoordOf(101, multi) || cl.Cfg.IsCoordOf(101, single) {
		t.Errorf("IsCoordOf wrong")
	}
}

func TestMulticoordDecisionThreeSteps(t *testing.T) {
	// E1 shape: multicoordinated rounds learn in 3 steps like classic
	// rounds (Section 3.1), with no single coordinator on the path.
	cl := NewCluster(ClusterOpts{NCoords: 3, NAcceptors: 5, F: 2, Seed: 1})
	cl.Start(0)
	start := cl.Sim.Now()
	cl.Props[0].Propose(cstruct.Cmd{ID: 7})
	cl.Sim.Run()
	lt, ok := cl.LearnTimes[7]
	if !ok {
		t.Fatalf("command not learned")
	}
	if steps := lt - start; steps != 3 {
		t.Errorf("learned in %d steps, want 3", steps)
	}
}

func TestMulticoordSurvivesCoordinatorCrash(t *testing.T) {
	// E3 shape: with 3 coordinators and majority coordquorums, one
	// coordinator crash must not stall the round nor force a round change
	// (Section 4.1).
	cl := NewCluster(ClusterOpts{NCoords: 3, NAcceptors: 3, F: 1, Seed: 1})
	cl.Start(0)
	r0 := cl.Accs[0].Rnd()
	cl.Sim.Crash(cl.Cfg.Coords[2])
	cl.Props[0].Propose(cstruct.Cmd{ID: 9})
	cl.Sim.Run()
	if _, ok := cl.LearnTimes[9]; !ok {
		t.Fatalf("crash of one coordinator must not block learning")
	}
	if !cl.Accs[0].Rnd().Equal(r0) {
		t.Errorf("no round change should have been needed, got %v → %v", r0, cl.Accs[0].Rnd())
	}
}

func TestMulticoordStallsWithoutCoordQuorum(t *testing.T) {
	// Crashing a majority of coordinators leaves no coordinator quorum:
	// the round is stuck until a new round starts.
	cl := NewCluster(ClusterOpts{NCoords: 3, NAcceptors: 3, F: 1, Seed: 1})
	cl.Start(0)
	cl.Sim.Crash(cl.Cfg.Coords[1])
	cl.Sim.Crash(cl.Cfg.Coords[2])
	cl.Props[0].Propose(cstruct.Cmd{ID: 9})
	cl.Sim.Run()
	if _, ok := cl.LearnTimes[9]; ok {
		t.Fatalf("no coordinator quorum should mean no progress in this round")
	}
	// Recovery path: the surviving coordinator starts a single-coordinated
	// round and finishes the command.
	cur := cl.Accs[0].Rnd()
	cl.Coords[0].StartRound(cl.Cfg.Scheme.Next(cur, 100))
	cl.Sim.Run()
	if _, ok := cl.LearnTimes[9]; !ok {
		t.Fatalf("single-coordinated takeover must finish the command")
	}
}

func TestConsensusCollisionPromotesAndRecovers(t *testing.T) {
	// Two proposals reach the coordinators in opposite orders: with
	// single-value c-structs the coordinators' cvals are incompatible, the
	// acceptors detect the collision (Section 4.2) and jump to the
	// single-coordinated successor round, whose owner finishes.
	cl := NewCluster(ClusterOpts{NCoords: 3, NAcceptors: 3, F: 1, Seed: 1, NProposers: 2})
	cl.Start(0)
	a, b := cstruct.Cmd{ID: 100}, cstruct.Cmd{ID: 200}
	env1, env2 := cl.Sim.Env(1), cl.Sim.Env(2)
	// Coordinator 0 and 1 see A first; coordinator 2 sees B first.
	env1.Send(cl.Cfg.Coords[0], msg.Propose{Cmd: a})
	env1.Send(cl.Cfg.Coords[1], msg.Propose{Cmd: a})
	env2.Send(cl.Cfg.Coords[2], msg.Propose{Cmd: b})
	cl.Sim.After(1, func() {
		env1.Send(cl.Cfg.Coords[2], msg.Propose{Cmd: a})
		env2.Send(cl.Cfg.Coords[0], msg.Propose{Cmd: b})
		env2.Send(cl.Cfg.Coords[1], msg.Propose{Cmd: b})
	})
	cl.Sim.Run()
	if _, okA := cl.LearnTimes[100]; !okA {
		if _, okB := cl.LearnTimes[200]; !okB {
			t.Fatalf("collision recovery did not decide either value")
		}
	}
	// At least one acceptor must have promoted the round.
	promoted := 0
	for _, acc := range cl.Accs {
		promoted += acc.Promotions()
	}
	if promoted == 0 {
		t.Errorf("expected at least one collision-triggered promotion")
	}
	if !cl.Agreement() {
		t.Fatalf("learners disagree after collision recovery")
	}
}

func TestConsensusNoCollisionSameOrder(t *testing.T) {
	// When all coordinators see the same first proposal there is no
	// collision: the round stays multicoordinated.
	cl := NewCluster(ClusterOpts{NCoords: 3, NAcceptors: 3, F: 1, Seed: 1, NProposers: 2})
	cl.Start(0)
	cl.Props[0].Propose(cstruct.Cmd{ID: 100})
	cl.Sim.Run()
	cl.Props[1].Propose(cstruct.Cmd{ID: 200})
	cl.Sim.Run()
	if _, ok := cl.LearnTimes[100]; !ok {
		t.Fatalf("first command must be decided")
	}
	for _, acc := range cl.Accs {
		if acc.Promotions() != 0 {
			t.Errorf("no promotion expected in collision-free run")
		}
	}
}

func TestAcceptorCrashRecovery(t *testing.T) {
	cl := NewCluster(ClusterOpts{NCoords: 3, NAcceptors: 3, F: 1, Seed: 1})
	cl.Start(0)
	cl.Props[0].Propose(cstruct.Cmd{ID: 5})
	cl.Sim.Run()
	id := cl.Cfg.Acceptors[0]
	cl.Sim.Crash(id)
	cl.Restart(id)
	if !cl.Accs[0].VVal().Contains(cstruct.Cmd{ID: 5}) {
		t.Errorf("accepted value lost across recovery")
	}
	if cl.Accs[0].Rnd().MCount == 0 {
		t.Errorf("recovery must bump the incarnation")
	}
}

func TestCoordinatorRecoveryIsStateless(t *testing.T) {
	// CmdSetSet lets the deployment keep learning after the first command.
	cl := NewCluster(ClusterOpts{NCoords: 3, NAcceptors: 3, F: 1, Seed: 1, Set: cstruct.CmdSetSet{}})
	cl.Start(0)
	cl.Props[0].Propose(cstruct.Cmd{ID: 5})
	cl.Sim.Run()
	id := cl.Cfg.Coords[0]
	cl.Sim.Crash(id)
	cl.Restart(id)
	if !cl.Coords[0].Rnd().IsZero() || cl.Coords[0].Started() {
		t.Errorf("recovered coordinator must be fresh (no stable state)")
	}
	// The system keeps working through the remaining coordinator quorum.
	cl.Props[0].Propose(cstruct.Cmd{ID: 6})
	cl.Sim.Run()
	if _, ok := cl.LearnTimes[6]; !ok {
		t.Errorf("system must keep deciding after a coordinator recovery")
	}
}

func TestStaleNotifiesAndChases(t *testing.T) {
	cl := NewCluster(ClusterOpts{NCoords: 3, NAcceptors: 3, F: 1, Seed: 1})
	cl.Coords[0].ChaseStale = true
	cl.Start(0)
	// Move the acceptors to a single-coordinated round owned by 101:
	// coordinator 0 hears no 1b for it and stays behind.
	jump := ballot.Ballot{MinCount: 2, ID: 101, RType: 1}
	cl.Coords[1].StartRound(jump)
	cl.Sim.Run()
	before := cl.Coords[0].Rnd()
	if !before.Less(jump) {
		t.Fatalf("setup failed: coordinator 0 should be behind %v, at %v", jump, before)
	}
	// Coordinator 0 tries a round below the acceptors' current one: they
	// answer Stale and ChaseStale makes it outbid.
	cl.Coords[0].StartRound(cl.Cfg.Scheme.Next(before, 100))
	cl.Sim.Run()
	if !jump.Less(cl.Coords[0].Rnd()) {
		t.Errorf("stale coordinator must outbid %v, at %v", jump, cl.Coords[0].Rnd())
	}
	cl.Props[0].Propose(cstruct.Cmd{ID: 77})
	cl.Sim.Run()
	if _, ok := cl.LearnTimes[77]; !ok {
		t.Errorf("command must be decided after the chase")
	}
}

func TestAgreementManyLearners(t *testing.T) {
	cl := NewCluster(ClusterOpts{NCoords: 3, NAcceptors: 5, F: 2, NLearners: 4, Seed: 1})
	cl.Start(1)
	for i := 0; i < 10; i++ {
		cl.Props[0].Propose(cstruct.Cmd{ID: uint64(10 + i)})
		cl.Sim.Run()
	}
	if !cl.Agreement() {
		t.Fatalf("learners diverged")
	}
	if got := cl.Learners[0].LearnedCount(); got != 1 {
		// Single-value consensus: exactly one command can ever be learned.
		t.Errorf("single-value set learned %d commands, want 1", got)
	}
}

func TestPickValueDeterministic(t *testing.T) {
	set := cstruct.NewHistorySet(cstruct.AlwaysConflict)
	short := set.NewHistory(cstruct.Cmd{ID: 1})
	long := set.NewHistory(cstruct.Cmd{ID: 1}, cstruct.Cmd{ID: 2})
	if got := PickValue([]cstruct.CStruct{short, long}); got.Len() != 2 {
		t.Errorf("PickValue must prefer the longest candidate")
	}
	if got := PickValue([]cstruct.CStruct{long, short}); got.Len() != 2 {
		t.Errorf("PickValue must be order-independent")
	}
}

func TestBallotKindsViaScheme(t *testing.T) {
	cl := NewCluster(ClusterOpts{NCoords: 3, NAcceptors: 3, F: 1, Seed: 1})
	first := cl.Cfg.Scheme.First(0, 100)
	if cl.Cfg.Scheme.Kind(first) != ballot.KindMulti {
		t.Errorf("MultiScheme first round must be multicoordinated")
	}
	next := cl.Cfg.Scheme.Next(first, 100)
	if cl.Cfg.Scheme.Kind(next) != ballot.KindSingle {
		t.Errorf("successor must be single-coordinated")
	}
}
