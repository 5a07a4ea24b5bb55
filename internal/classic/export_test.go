package classic

// Accessors and helpers that only this package's tests use: no shipped code
// reads them.

import (
	"slices"

	"mcpaxos/internal/ballot"
	"mcpaxos/internal/msg"
)

// Rnd exposes the acceptor's highest current round across shards, for tests
// and recovery checks.
func (a *Acceptor) Rnd() ballot.Ballot {
	hi := a.rnds[0]
	for _, r := range a.rnds[1:] {
		hi = ballot.Max(hi, r)
	}
	return hi
}

// Floor exposes the acceptor's compaction floor, for tests and accounting.
func (a *Acceptor) Floor() uint64 { return a.floor }

// Tally exposes the coordinator-vote tally of an instance: the round and
// the sorted group members whose matching 2a messages have been received.
func (a *Acceptor) Tally(inst uint64) (ballot.Ballot, []msg.NodeID, bool) {
	t, ok := a.tallies[inst]
	return t.vrnd, slices.Sorted(slices.Values(t.by)), ok
}

// Leading reports whether phase 1 has completed for the current round.
func (c *Coordinator) Leading() bool { return c.leading }

// Rnd returns the coordinator's current round.
func (c *Coordinator) Rnd() ballot.Ballot { return c.crnd }

// Pending reports how many assigned instances wait for a window slot.
func (c *Coordinator) Pending() int { return len(c.unsent) }

// Inflight reports how many forwarded instances are not yet learned.
func (c *Coordinator) Inflight() int { return len(c.sent) }

// Retained reports how many instances the coordinator holds state for
// (assigned values plus out-of-order learns), for memory-bound tests.
func (c *Coordinator) Retained() int { return len(c.proposals) + len(c.learned) }

// LearnedCount returns how many instances have ever been learned, including
// released ones.
func (l *Learner) LearnedCount() int { return l.count }

// Retained reports how many instances the learner currently holds state for
// (learned values plus open tallies), for memory-bound tests.
func (l *Learner) Retained() int { return len(l.learned) + len(l.votes) }
