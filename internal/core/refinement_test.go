package core

import (
	"fmt"
	"testing"

	"mcpaxos/internal/ballot"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/sim"
)

// checkRefined maps the cluster into the abstract specification and checks
// the Appendix A.2 invariants, with two relaxations documented in
// refinement.go: superseded votes are unavailable, and maxTried is
// reconstructed only for rounds coordinators still sit at.
func checkRefined(t *testing.T, cl *Cluster, proposed []cstruct.Cmd, when string) {
	t.Helper()
	cfg, s := Refine(cl, RefineOpts{ProposedCmds: proposed})
	if err := cfg.Validate(); err != nil {
		t.Fatalf("%s: refined config invalid: %v", when, err)
	}
	if err := cfg.CheckInvariants(s); err != nil {
		t.Fatalf("%s: abstract invariants violated by refined state: %v", when, err)
	}
}

func TestRefinementCleanRun(t *testing.T) {
	cl := histCluster(cstruct.KeyConflict, ClusterOpts{
		NCoords: 3, NAcceptors: 3, F: 1, Seed: 1, NLearners: 2})
	proposed := []cstruct.Cmd{{ID: 1, Key: "a"}, {ID: 2, Key: "b"}, {ID: 3, Key: "a"}}
	cl.Start(0)
	checkRefined(t, cl, proposed, "after start")
	for i, c := range proposed {
		cl.Props[0].Propose(c)
		cl.Sim.Run()
		checkRefined(t, cl, proposed, fmt.Sprintf("after command %d", i+1))
	}
}

func TestRefinementCollisionRun(t *testing.T) {
	cl := histCluster(cstruct.AlwaysConflict, ClusterOpts{
		NCoords: 3, NAcceptors: 3, F: 1, Seed: 1, NProposers: 2, NLearners: 2})
	cl.Start(0)
	a, b := cstruct.Cmd{ID: 100}, cstruct.Cmd{ID: 200}
	proposed := []cstruct.Cmd{a, b}
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
	checkRefined(t, cl, proposed, "after collision recovery")
}

func TestRefinementCrashRun(t *testing.T) {
	cl := histCluster(cstruct.KeyConflict, ClusterOpts{
		NCoords: 3, NAcceptors: 3, F: 1, Seed: 2, NLearners: 2})
	proposed := []cstruct.Cmd{{ID: 1, Key: "k"}, {ID: 2, Key: "k"}}
	cl.Start(0)
	cl.Props[0].Propose(proposed[0])
	cl.Sim.Run()
	cl.Sim.Crash(cl.Cfg.Acceptors[0])
	cl.Restart(cl.Cfg.Acceptors[0])
	cl.Props[0].Propose(proposed[1])
	cl.Sim.Run()
	checkRefined(t, cl, proposed, "after crash/recover")
}

func TestRefinementJitteredRuns(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		cl := histCluster(cstruct.KeyConflict, ClusterOpts{
			NCoords: 3, NAcceptors: 3, F: 1, Seed: seed, NProposers: 2, NLearners: 2})
		cl.Sim.SetLatency(sim.JitterLatency(2))
		cl.Start(0)
		proposed := []cstruct.Cmd{
			{ID: 1, Key: "x"}, {ID: 2, Key: "x"}, {ID: 3, Key: "y"}, {ID: 4, Key: "y"},
		}
		for i, c := range proposed {
			cl.Props[i%2].Propose(c)
		}
		cl.Sim.Run()
		checkRefined(t, cl, proposed, fmt.Sprintf("seed %d", seed))
	}
}

// TestRefinementFastCollisionRuns maps the E5 collisions into the abstract
// specification. A Restart run maps after every event. Coordinated and
// uncoordinated runs map only once recovered: they read an acceptor's 2b as
// its 1b for the next round while the acceptor still sits in the collided
// one, and the mapping takes an acceptor's mbal from its own round, so until
// the next round's 2a (or vote) reaches it the collided round looks open.
func TestRefinementFastCollisionRuns(t *testing.T) {
	for _, tc := range []struct {
		name       string
		scheme     ballot.Scheme
		r          Recovery
		everyEvent bool
	}{
		{"restart", ballot.FastScheme{}, Restart, true},
		{"coordinated", ballot.FastScheme{}, Coordinated, false},
		{"uncoordinated", ballot.FastUncoordScheme{}, AtAcceptors, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl := fastCluster(cstruct.SingleValueSet{}, tc.scheme, tc.r)
			proposed := []cstruct.Cmd{{ID: 100}, {ID: 200}}
			collide(cl, proposed[0], proposed[1])
			for cl.Sim.Step() {
				if tc.everyEvent {
					checkRefined(t, cl, proposed, fmt.Sprintf("at t=%d", cl.Sim.Now()))
				}
			}
			checkRefined(t, cl, proposed, "after "+tc.name+" recovery")
		})
	}
}
