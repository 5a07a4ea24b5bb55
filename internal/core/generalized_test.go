package core

import (
	"testing"

	"mcpaxos/internal/ballot"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
)

func histCluster(conflict cstruct.Conflict, opts ClusterOpts) *Cluster {
	opts.Set = cstruct.NewHistorySet(conflict)
	return NewCluster(opts)
}

func TestGeneralizedCommutingCommandsNoCollision(t *testing.T) {
	// E7 shape: commands that commute are absorbed by the lattice merge —
	// no collision, no round change, even when coordinators see them in
	// different orders (Section 2.3 motivation).
	cl := histCluster(cstruct.NeverConflict, ClusterOpts{
		NCoords: 3, NAcceptors: 3, F: 1, Seed: 1, NProposers: 2})
	cl.Start(0)
	a, b := cstruct.Cmd{ID: 100, Key: "x"}, cstruct.Cmd{ID: 200, Key: "y"}
	env1, env2 := cl.Sim.Env(1), cl.Sim.Env(2)
	env1.Send(cl.Cfg.Coords[0], msg.Propose{Cmd: a})
	env2.Send(cl.Cfg.Coords[1], msg.Propose{Cmd: b})
	env2.Send(cl.Cfg.Coords[2], msg.Propose{Cmd: b})
	cl.Sim.After(1, func() {
		env1.Send(cl.Cfg.Coords[1], msg.Propose{Cmd: a})
		env1.Send(cl.Cfg.Coords[2], msg.Propose{Cmd: a})
		env2.Send(cl.Cfg.Coords[0], msg.Propose{Cmd: b})
	})
	cl.Sim.Run()
	for _, id := range []uint64{100, 200} {
		if _, ok := cl.LearnTimes[id]; !ok {
			t.Fatalf("command %d not learned", id)
		}
	}
	for _, acc := range cl.Accs {
		if acc.Promotions() != 0 {
			t.Errorf("commuting commands must not trigger collisions")
		}
	}
	if !cl.Agreement() {
		t.Fatalf("learners diverged")
	}
}

func TestGeneralizedConflictingCommandsCollide(t *testing.T) {
	// Conflicting commands arriving in opposite orders at different
	// coordinators produce incompatible c-structs: acceptors must detect
	// the collision and the successor round must decide both commands in a
	// single order.
	cl := histCluster(cstruct.AlwaysConflict, ClusterOpts{
		NCoords: 3, NAcceptors: 3, F: 1, Seed: 1, NProposers: 2})
	cl.Start(0)
	a, b := cstruct.Cmd{ID: 100}, cstruct.Cmd{ID: 200}
	env1, env2 := cl.Sim.Env(1), cl.Sim.Env(2)
	env1.Send(cl.Cfg.Coords[0], msg.Propose{Cmd: a})
	env1.Send(cl.Cfg.Coords[1], msg.Propose{Cmd: a})
	env2.Send(cl.Cfg.Coords[2], msg.Propose{Cmd: b})
	cl.Sim.After(1, func() {
		env1.Send(cl.Cfg.Coords[2], msg.Propose{Cmd: a})
		env2.Send(cl.Cfg.Coords[0], msg.Propose{Cmd: b})
		env2.Send(cl.Cfg.Coords[1], msg.Propose{Cmd: b})
	})
	cl.Sim.Run()
	for _, id := range []uint64{100, 200} {
		if _, ok := cl.LearnTimes[id]; !ok {
			t.Fatalf("command %d not learned after collision recovery", id)
		}
	}
	promoted := 0
	for _, acc := range cl.Accs {
		promoted += acc.Promotions()
	}
	if promoted == 0 {
		t.Errorf("conflicting interleaved commands must collide")
	}
	if !cl.Agreement() {
		t.Fatalf("learners diverged after collision")
	}
}

func TestGeneralizedStreamsManyCommands(t *testing.T) {
	cl := histCluster(cstruct.KeyConflict, ClusterOpts{
		NCoords: 3, NAcceptors: 5, F: 2, Seed: 1, NLearners: 2})
	cl.Start(0)
	const n = 40
	for i := 0; i < n; i++ {
		cl.Props[0].Propose(cstruct.Cmd{ID: uint64(1000 + i), Key: "k"})
		cl.Sim.Run()
	}
	if got := cl.Learners[0].LearnedCount(); got != n {
		t.Fatalf("learned %d commands, want %d", got, n)
	}
	// Single proposer, same key: learners must hold the same total order.
	l0 := cl.Learners[0].Learned().Commands()
	l1 := cl.Learners[1].Learned().Commands()
	if len(l1) != len(l0) {
		t.Fatalf("learner 1 behind: %d vs %d", len(l1), len(l0))
	}
	for i := range l0 {
		if l0[i].ID != l1[i].ID {
			t.Fatalf("order diverged at %d: %v vs %v", i, l0[i], l1[i])
		}
	}
}

func TestGeneralizedFastRound(t *testing.T) {
	// Fast rounds in the generalized engine: proposals reach acceptors
	// directly and commute into the history (two steps per command).
	cl := histCluster(cstruct.NeverConflict, ClusterOpts{
		NCoords: 1, NAcceptors: 4, F: 1, E: 1, Seed: 1,
		Scheme: ballot.FastScheme{}})
	cl.Start(0)
	start := cl.Sim.Now()
	cl.Props[0].Propose(cstruct.Cmd{ID: 7})
	cl.Sim.Run()
	lt, ok := cl.LearnTimes[7]
	if !ok {
		t.Fatalf("fast generalized round did not learn")
	}
	if steps := lt - start; steps != 2 {
		t.Errorf("fast round learned in %d steps, want 2", steps)
	}
}

func TestGeneralizedFastRoundCommutingConcurrent(t *testing.T) {
	cl := histCluster(cstruct.NeverConflict, ClusterOpts{
		NCoords: 1, NAcceptors: 4, F: 1, E: 1, Seed: 1,
		Scheme: ballot.FastScheme{}, NProposers: 2})
	cl.Start(0)
	a, b := cstruct.Cmd{ID: 100}, cstruct.Cmd{ID: 200}
	env1, env2 := cl.Sim.Env(1), cl.Sim.Env(2)
	// Opposite arrival orders at the acceptor halves.
	env1.Send(cl.Cfg.Acceptors[0], msg.Propose{Cmd: a})
	env1.Send(cl.Cfg.Acceptors[1], msg.Propose{Cmd: a})
	env2.Send(cl.Cfg.Acceptors[2], msg.Propose{Cmd: b})
	env2.Send(cl.Cfg.Acceptors[3], msg.Propose{Cmd: b})
	cl.Sim.After(1, func() {
		env1.Send(cl.Cfg.Acceptors[2], msg.Propose{Cmd: a})
		env1.Send(cl.Cfg.Acceptors[3], msg.Propose{Cmd: a})
		env2.Send(cl.Cfg.Acceptors[0], msg.Propose{Cmd: b})
		env2.Send(cl.Cfg.Acceptors[1], msg.Propose{Cmd: b})
	})
	cl.Sim.Run()
	for _, id := range []uint64{100, 200} {
		if _, ok := cl.LearnTimes[id]; !ok {
			t.Fatalf("command %d not learned despite commuting", id)
		}
	}
	if !cl.Agreement() {
		t.Fatalf("learners diverged")
	}
}

func TestGeneralizedFastRoundConflictDetectedViaExchange(t *testing.T) {
	// Conflicting commands accepted in opposite orders in a fast round:
	// with Recovery AtAcceptors, acceptors detect the incompatibility and promote
	// to the successor classic round (Section 4.2).
	cl := histCluster(cstruct.AlwaysConflict, ClusterOpts{
		NCoords: 1, NAcceptors: 4, F: 1, E: 1, Seed: 1,
		Scheme: ballot.FastScheme{}, NProposers: 2, Recovery: AtAcceptors})
	cl.Start(0)
	a, b := cstruct.Cmd{ID: 100}, cstruct.Cmd{ID: 200}
	env1, env2 := cl.Sim.Env(1), cl.Sim.Env(2)
	env1.Send(cl.Cfg.Acceptors[0], msg.Propose{Cmd: a})
	env1.Send(cl.Cfg.Acceptors[1], msg.Propose{Cmd: a})
	env2.Send(cl.Cfg.Acceptors[2], msg.Propose{Cmd: b})
	env2.Send(cl.Cfg.Acceptors[3], msg.Propose{Cmd: b})
	cl.Sim.After(1, func() {
		env1.Send(cl.Cfg.Acceptors[2], msg.Propose{Cmd: a})
		env1.Send(cl.Cfg.Acceptors[3], msg.Propose{Cmd: a})
		env2.Send(cl.Cfg.Acceptors[0], msg.Propose{Cmd: b})
		env2.Send(cl.Cfg.Acceptors[1], msg.Propose{Cmd: b})
		// Coordinator must also hear the proposals to finish them in the
		// recovery round.
		env1.Send(cl.Cfg.Coords[0], msg.Propose{Cmd: a})
		env2.Send(cl.Cfg.Coords[0], msg.Propose{Cmd: b})
	})
	cl.Sim.Run()
	for _, id := range []uint64{100, 200} {
		if _, ok := cl.LearnTimes[id]; !ok {
			t.Fatalf("command %d not learned after fast-round collision", id)
		}
	}
	promoted := 0
	for _, acc := range cl.Accs {
		promoted += acc.Promotions()
	}
	if promoted == 0 {
		t.Errorf("fast-round conflict must be detected via 2b exchange")
	}
	if !cl.Agreement() {
		t.Fatalf("learners diverged")
	}
}

// Generalized Paxos (Section 2.3) is a configuration of core: one
// coordinator's fast rounds over histories. The tests below run it under each
// collision recovery.

var fastRecoveries = []struct {
	name   string
	scheme ballot.Scheme
	r      Recovery
}{
	{"none", ballot.FastScheme{}, 0},
	{"restart", ballot.FastScheme{}, Restart},
	{"coordinated", ballot.FastScheme{}, Coordinated},
	{"at-acceptors", ballot.FastScheme{}, AtAcceptors},
	{"uncoordinated", ballot.FastUncoordScheme{}, AtAcceptors},
}

func generalizedCluster(scheme ballot.Scheme, r Recovery) *Cluster {
	return histCluster(cstruct.KeyConflict, ClusterOpts{NCoords: 1, NAcceptors: 4, F: 1, E: 1, Seed: 1,
		NLearners: 2, NProposers: 2, Scheme: scheme, Recovery: r})
}

func TestFastLearningTwoSteps(t *testing.T) {
	for _, tc := range fastRecoveries {
		t.Run(tc.name, func(t *testing.T) {
			cl := generalizedCluster(tc.scheme, tc.r)
			cl.Start(0)
			start := cl.Sim.Now()
			cl.Props[0].Propose(cstruct.Cmd{ID: 1, Key: "a"})
			cl.Sim.Run()
			lt, ok := cl.LearnTimes[1]
			if !ok {
				t.Fatalf("command not learned")
			}
			if steps := lt - start; steps != 2 {
				t.Errorf("Generalized Paxos learns in %d steps, want 2", steps)
			}
		})
	}
}

func TestCommutingConcurrentProposalsBothLearned(t *testing.T) {
	// Commands on different keys reach the acceptors in opposite orders: the
	// histories stay compatible, so no recovery runs and no round changes.
	for _, tc := range fastRecoveries {
		t.Run(tc.name, func(t *testing.T) {
			cl := generalizedCluster(tc.scheme, tc.r)
			cl.Start(0)
			first := cl.Accs[0].Rnd()
			a := cstruct.Cmd{ID: 10, Key: "x"}
			b := cstruct.Cmd{ID: 20, Key: "y"}
			env1, env2 := cl.Sim.Env(1), cl.Sim.Env(2)
			for i, acc := range cl.Cfg.Acceptors {
				if i%2 == 0 {
					env1.Send(acc, msg.Propose{Cmd: a})
					env2.Send(acc, msg.Propose{Cmd: b})
				} else {
					env2.Send(acc, msg.Propose{Cmd: b})
					env1.Send(acc, msg.Propose{Cmd: a})
				}
			}
			cl.Sim.Run()
			for _, id := range []uint64{10, 20} {
				if _, ok := cl.LearnTimes[id]; !ok {
					t.Fatalf("command %d not learned", id)
				}
			}
			for i, acc := range cl.Accs {
				if acc.Promotions() != 0 || !acc.Rnd().Equal(first) {
					t.Errorf("acceptor %d left round %v for %v: commuting commands must not collide", i, first, acc.Rnd())
				}
			}
		})
	}
}

func TestConflictingConcurrentProposalsRecover(t *testing.T) {
	// Two writes to one key accepted in opposite orders, under the recoveries
	// safe for every command stream over histories (see Recovery): both end
	// up learned, in one order at every learner.
	for _, tc := range []struct {
		name string
		r    Recovery
	}{{"restart", Restart}, {"at-acceptors", AtAcceptors}} {
		t.Run(tc.name, func(t *testing.T) {
			cl := generalizedCluster(ballot.FastScheme{}, tc.r)
			a := cstruct.Cmd{ID: 10, Key: "x", Op: cstruct.OpWrite}
			b := cstruct.Cmd{ID: 20, Key: "x", Op: cstruct.OpWrite}
			collide(cl, a, b)
			cl.Sim.Run()
			for _, id := range []uint64{10, 20} {
				if _, ok := cl.LearnTimes[id]; !ok {
					t.Fatalf("command %d lost in collision recovery", id)
				}
			}
			if !cl.Agreement() {
				t.Fatalf("learners diverged")
			}
		})
	}
}

func TestGeneralizedMultiLearnersCompatibleUnderLoad(t *testing.T) {
	cl := histCluster(cstruct.KeyConflict, ClusterOpts{
		NCoords: 3, NAcceptors: 5, F: 1, E: 1, Seed: 3, NLearners: 3, NProposers: 3})
	cl.Start(0)
	keys := []string{"a", "b", "c"}
	id := uint64(1)
	for round := 0; round < 10; round++ {
		for pi, p := range cl.Props {
			p.Propose(cstruct.Cmd{ID: id, Key: keys[(round+pi)%len(keys)]})
			id++
		}
		cl.Sim.Run()
	}
	if !cl.Agreement() {
		t.Fatalf("learners diverged under concurrent keyed load")
	}
	if cl.Learners[0].LearnedCount() == 0 {
		t.Fatalf("nothing learned")
	}
}
