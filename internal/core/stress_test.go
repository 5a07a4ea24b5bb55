package core

import (
	"fmt"
	"math/rand"
	"testing"

	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/sim"
)

// TestSafetyUnderRandomSchedules runs many randomized executions — jittered
// delivery, message loss, proposer concurrency, acceptor and coordinator
// crash/recovery — and asserts the Generalized Consensus safety properties
// on every run: Nontriviality (learned ⊆ proposed), Stability (learned only
// grows) and Consistency (learners pairwise compatible). Liveness is not
// asserted (the schedules are adversarial).
func TestSafetyUnderRandomSchedules(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cl := NewCluster(ClusterOpts{
				NCoords: 3, NAcceptors: 3, F: 1, Seed: seed, NProposers: 2,
				NLearners: 2, RetryEvery: 50,
				Set: cstruct.NewHistorySet(cstruct.KeyConflict),
			})
			jitter := sim.JitterLatency(3)
			cl.Sim.SetLatency(func(from, to msg.NodeID, m msg.Message, r *rand.Rand) sim.Time {
				if r.Float64() < 0.05 {
					return -1 // lost
				}
				return jitter(from, to, m, r)
			})

			// Stability tracking per learner.
			prev := make([]cstruct.CStruct, len(cl.Learners))
			for i := range prev {
				prev[i] = cl.Cfg.Set.Bottom()
			}
			checkStability := func() {
				for i, l := range cl.Learners {
					cur := l.Learned()
					if !cl.Cfg.Set.Extends(prev[i], cur) {
						t.Fatalf("stability violated at learner %d: %v ⋣ %v", i, prev[i], cur)
					}
					prev[i] = cur
				}
			}

			cl.Start(0)
			rng := cl.Sim.Rand()
			proposed := make(map[uint64]bool)
			nextID := uint64(1)
			keys := []string{"x", "y", "z"}
			for burst := 0; burst < 12; burst++ {
				// Random proposals from both proposers.
				for p := 0; p < 2; p++ {
					if rng.Intn(2) == 0 {
						cmd := cstruct.Cmd{ID: nextID, Key: keys[rng.Intn(len(keys))]}
						proposed[nextID] = true
						nextID++
						cl.Props[p].Propose(cmd)
					}
				}
				// Random crash/recover of one acceptor or coordinator.
				switch rng.Intn(6) {
				case 0:
					id := cl.Cfg.Acceptors[rng.Intn(len(cl.Cfg.Acceptors))]
					cl.Sim.Crash(id)
					at := cl.Sim.Now() + int64(rng.Intn(30))
					cl.Sim.At(at, func() { cl.Restart(id) })
				case 1:
					id := cl.Cfg.Coords[rng.Intn(len(cl.Cfg.Coords))]
					cl.Sim.Crash(id)
					at := cl.Sim.Now() + int64(rng.Intn(40))
					cl.Sim.At(at, func() { cl.Restart(id) })
				}
				cl.Sim.RunUntil(cl.Sim.Now() + int64(20+rng.Intn(40)))
				checkStability()
				if !cl.Agreement() {
					t.Fatalf("consistency violated after burst %d", burst)
				}
			}
			cl.Sim.RunUntil(cl.Sim.Now() + 500)
			checkStability()
			if !cl.Agreement() {
				t.Fatalf("consistency violated at quiescence")
			}
			// Nontriviality: everything learned was proposed.
			for _, l := range cl.Learners {
				for _, c := range l.Learned().Commands() {
					if !proposed[c.ID] {
						t.Fatalf("learned unproposed command %v", c)
					}
				}
			}
		})
	}
}

// TestSafetyUnderPartition isolates one acceptor for a while (all traffic
// to/from it dropped), then heals the partition, checking agreement and
// eventual progress: the remaining majority keeps deciding.
func TestSafetyUnderPartition(t *testing.T) {
	cl := NewCluster(ClusterOpts{
		NCoords: 3, NAcceptors: 3, F: 1, Seed: 5, NLearners: 2, RetryEvery: 40,
		Set: cstruct.NewHistorySet(cstruct.KeyConflict),
	})
	isolated := cl.Cfg.Acceptors[0]
	partitioned := true
	cl.Sim.SetLatency(dropping(func(from, to msg.NodeID, _ msg.Message, _ *rand.Rand) bool {
		return partitioned && (from == isolated || to == isolated)
	}))
	cl.Start(0)
	for i := 0; i < 5; i++ {
		cl.Props[0].Propose(cstruct.Cmd{ID: uint64(1 + i), Key: "k"})
	}
	cl.Sim.RunUntil(cl.Sim.Now() + 500)
	learnedDuring := cl.Learners[0].LearnedCount()
	if learnedDuring != 5 {
		t.Fatalf("majority must decide during the partition: %d/5", learnedDuring)
	}
	if !cl.Agreement() {
		t.Fatalf("consistency violated during partition")
	}
	// Heal; the isolated acceptor catches up via retransmitted 2a traffic
	// on later commands.
	partitioned = false
	for i := 5; i < 8; i++ {
		cl.Props[0].Propose(cstruct.Cmd{ID: uint64(1 + i), Key: "k"})
	}
	cl.Sim.RunUntil(cl.Sim.Now() + 500)
	if got := cl.Learners[0].LearnedCount(); got != 8 {
		t.Fatalf("post-heal commands lost: %d/8", got)
	}
	if !cl.Agreement() {
		t.Fatalf("consistency violated after heal")
	}
	if !cl.Cfg.Set.Extends(cl.Accs[0].VVal(), cl.Learners[0].Learned()) &&
		cl.Accs[0].VVal().Len() == 0 {
		t.Logf("isolated acceptor still behind (allowed): %v", cl.Accs[0].VVal())
	}
}

// dropping is unit latency that loses the messages drop picks.
func dropping(drop func(from, to msg.NodeID, m msg.Message, r *rand.Rand) bool) sim.LatencyFn {
	return func(from, to msg.NodeID, m msg.Message, r *rand.Rand) sim.Time {
		if drop(from, to, m, r) {
			return -1
		}
		return 1
	}
}

// dropProb is unit latency that loses each message with probability p.
func dropProb(p float64) sim.LatencyFn {
	return dropping(func(_, _ msg.NodeID, _ msg.Message, r *rand.Rand) bool { return r.Float64() < p })
}
