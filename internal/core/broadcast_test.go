package core

import (
	"fmt"
	"testing"

	"mcpaxos/internal/ballot"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
)

// Generic Broadcast (Section 3.3) is core over histories: a learner delivers
// its learned history's commands, and compatible histories order every
// conflicting pair alike, which Cluster.Agreement checks.

// keyed is command id of a stream where every hotEvery-th command writes the
// shared key "hot" and the rest write keys of their own.
func keyed(id uint64, hotEvery uint64) cstruct.Cmd {
	key := fmt.Sprintf("uniq-%d", id)
	if id%hotEvery == 0 {
		key = "hot"
	}
	return cstruct.Cmd{ID: id, Key: key, Op: cstruct.OpWrite}
}

func TestBroadcastDeliversEverything(t *testing.T) {
	cl := histCluster(cstruct.KeyConflict, ClusterOpts{NCoords: 3, NAcceptors: 3, F: 1, Seed: 1, NLearners: 2})
	cl.Start(0)
	const n = 30
	for i := uint64(1); i <= n; i++ {
		cl.Props[0].Propose(keyed(i, 5))
		cl.Sim.Run()
	}
	for li, l := range cl.Learners {
		if got := len(l.Learned().Commands()); got != n {
			t.Errorf("learner %d delivered %d/%d", li, got, n)
		}
	}
	if !cl.Agreement() {
		t.Fatalf("conflicting commands delivered in different orders")
	}
}

func TestConcurrentBroadcastersPartialOrderHolds(t *testing.T) {
	cl := histCluster(cstruct.KeyConflict, ClusterOpts{NCoords: 3, NAcceptors: 5, F: 1, E: 1, Seed: 2,
		NLearners: 3, NProposers: 3})
	cl.Start(0)
	id := uint64(1)
	for round := 0; round < 8; round++ {
		for _, p := range cl.Props {
			p.Propose(keyed(id, 2))
			id++
		}
		cl.Sim.Run()
	}
	if !cl.Agreement() {
		t.Fatalf("partial order violated under concurrency")
	}
	if cl.Learners[0].LearnedCount() == 0 {
		t.Fatalf("nothing delivered")
	}
}

func TestFastGroupDelivers(t *testing.T) {
	cl := histCluster(cstruct.KeyConflict, ClusterOpts{NCoords: 1, NAcceptors: 4, F: 1, E: 1, Seed: 1,
		Scheme: ballot.FastScheme{}, Recovery: AtAcceptors})
	cl.Start(0)
	cl.Props[0].Propose(cstruct.Cmd{ID: 1, Key: "k"})
	cl.Sim.Run()
	if got := len(cl.Learners[0].Learned().Commands()); got != 1 {
		t.Fatalf("fast group delivered %d commands, want 1", got)
	}
}

func TestBalancedGroupDelivers(t *testing.T) {
	// Load balancing routes each command through one coordinator quorum
	// and one acceptor quorum (Section 4.1). Commands must commute:
	// coordinators deliberately see disjoint command subsets, which for
	// conflicting commands is exactly the collision case.
	cl := histCluster(cstruct.KeyConflict, ClusterOpts{NCoords: 3, NAcceptors: 5, F: 2, Seed: 1, Balance: true})
	cl.Start(0)
	const n = 20
	for i := 0; i < n; i++ {
		cl.Props[0].Propose(cstruct.Cmd{ID: uint64(1 + i), Key: fmt.Sprintf("k%d", i)})
		cl.Sim.Run()
	}
	if got := len(cl.Learners[0].Learned().Commands()); got != n {
		t.Fatalf("balanced group delivered %d/%d", got, n)
	}
	m := cl.Sim.Metrics()
	for _, co := range cl.Cfg.Coords {
		if m.RecvByNode[co] == 0 {
			t.Errorf("coordinator %v received nothing — selection never picked it", co)
		}
	}
}

// TestAgreementDetectsOrderViolation: the check the broadcast tests rely on
// flags learners that delivered a conflicting pair in opposite orders, and
// passes prefixes and commuting commands in any order.
func TestAgreementDetectsOrderViolation(t *testing.T) {
	a, b := cstruct.Cmd{ID: 1}, cstruct.Cmd{ID: 2}
	for _, tc := range []struct {
		name     string
		conflict cstruct.Conflict
		l0, l1   []cstruct.Cmd
		want     bool
	}{
		{"prefix", cstruct.AlwaysConflict, []cstruct.Cmd{a, b}, []cstruct.Cmd{a}, true},
		{"opposite orders", cstruct.AlwaysConflict, []cstruct.Cmd{a, b}, []cstruct.Cmd{b, a}, false},
		{"commuting", cstruct.NeverConflict, []cstruct.Cmd{a, b}, []cstruct.Cmd{b, a}, true},
	} {
		cl := histCluster(tc.conflict, ClusterOpts{NCoords: 1, NAcceptors: 3, F: 1, Seed: 1, NLearners: 2})
		r := cl.Cfg.Scheme.First(0, 100)
		for i, cmds := range [][]cstruct.Cmd{tc.l0, tc.l1} {
			h := cstruct.AppendSeq(cl.Cfg.Set.Bottom(), cmds)
			for _, acc := range cl.Cfg.Acceptors[:2] { // a classic quorum
				cl.Learners[i].OnMessage(acc, msg.P2b{Rnd: r, Acc: acc, Val: h})
			}
			if got := cl.Learners[i].LearnedCount(); got != len(cmds) {
				t.Fatalf("%s: learner %d learned %d commands, want %d", tc.name, i, got, len(cmds))
			}
		}
		if got := cl.Agreement(); got != tc.want {
			t.Errorf("%s: Agreement() = %v, want %v", tc.name, got, tc.want)
		}
	}
}
