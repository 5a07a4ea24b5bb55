package classic

import (
	"testing"

	"mcpaxos/internal/ballot"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/storage"
)

// allocRuns is how many instances each allocation pin averages over.
const allocRuns = 200

// One instance at a learner of n = 3 — three acceptors' 2bs, built before
// the count, then the release of the applied instance — allocates the
// instance's tally and nothing per 2b.
func TestLearnerAllocsPerInstance(t *testing.T) {
	cfg := NewCluster(ClusterOpts{NAcceptors: 3, F: 1, Seed: 1}).Cfg
	l := NewLearner(discardEnv{}, cfg, nil)
	r := ballot.Ballot{MinCount: 1, ID: uint32(cfg.Coords[0])}
	ms := make([][]msg.Message, allocRuns+1)
	for inst := range ms {
		for _, acc := range cfg.Acceptors {
			ms[inst] = append(ms[inst], p2b(uint64(inst), r, acc, uint64(inst)))
		}
	}
	inst := 0
	got := testing.AllocsPerRun(allocRuns, func() {
		for _, m := range ms[inst] {
			l.OnMessage(0, m)
		}
		inst++
		l.Release(uint64(inst))
	})
	if l.LearnedCount() != allocRuns+1 {
		t.Fatalf("learned %d instances, want %d", l.LearnedCount(), allocRuns+1)
	}
	t.Logf("%v allocations per instance", got)
	if got > 1 {
		t.Errorf("%v allocations per instance at the learner, want at most 1", got)
	}
}

// One instance at an acceptor of a c = 3 group — the three members' 2as,
// built before the count, then the burst's OnIdle over a memory disk —
// allocates the vote's member list, its disk record and the 2b it sends.
func TestAcceptorAllocsPerInstance(t *testing.T) {
	cfg := NewCluster(ClusterOpts{NAcceptors: 3, F: 1, Seed: 1, CoordsPerShard: 3}).Cfg
	a := NewAcceptor(discardEnv{}, cfg, &storage.Disk{})
	r := ballot.Ballot{MinCount: 1, ID: uint32(cfg.Coords[0])}
	ms := make([][]msg.Message, allocRuns+1)
	for inst := range ms {
		for _, co := range cfg.Coords {
			ms[inst] = append(ms[inst], msg.P2a{Inst: uint64(inst), Rnd: r, Coord: co, Val: wrap(cstruct.Cmd{ID: uint64(inst), Key: "k"})})
		}
	}
	inst := 0
	got := testing.AllocsPerRun(allocRuns, func() {
		for _, m := range ms[inst] {
			a.OnMessage(m.(msg.P2a).Coord, m)
		}
		a.OnIdle()
		inst++
	})
	if _, _, ok := a.Vote(allocRuns); !ok {
		t.Fatal("the last instance was not accepted")
	}
	t.Logf("%v allocations per instance", got)
	if got > 6 {
		t.Errorf("%v allocations per instance at the acceptor, want at most 6", got)
	}
}
