package classic

import (
	"mcpaxos/internal/ballot"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/node"
)

// LearnFn is invoked exactly once per learned instance.
type LearnFn func(inst uint64, cmd cstruct.Cmd)

// tallyKey identifies one (round, value) bucket of an instance's votes.
// Commands are identified by ID (cstruct.Cmd.Equal), so the ID is the value
// identity.
type tallyKey struct {
	rnd   ballot.Ballot
	cmdID uint64
}

// instTally is the per-instance vote state: the latest 2b per acceptor plus
// an incrementally maintained count per (round, value). A new 2b adjusts two
// counters instead of recounting every stored vote, so the per-2b cost is
// O(1) in the number of acceptors.
type instTally struct {
	byAcc  map[msg.NodeID]msg.P2b
	counts map[tallyKey]int
}

// Learner is a multi-instance Classic Paxos learner: a value is learned for
// an instance once a classic quorum of acceptors reports the same value in
// the same round (action Learn, Section 2.1.2).
//
// Memory is bounded in two ways: an instance's vote tallies are dropped the
// moment it is learned, and Release lets the SMR layer return learned
// commands once they are applied, so long runs do not retain every command
// forever. Learning itself is per-instance, so sharded deployments
// (cfg.Shards > 1) need no learner changes: the shard streams interleave in
// the instance space and the SMR merger restores the total order.
type Learner struct {
	env     node.Env
	cfg     Config
	onLearn LearnFn

	votes   map[uint64]*instTally
	learned map[uint64]cstruct.Cmd
	// count is the number of instances ever learned (monotone under
	// Release).
	count int
	// floor is the release watermark: every instance < floor was learned,
	// delivered and GC'd; late 2b duplicates below it are dropped.
	floor uint64

	// OnDuplicate, when set, observes every re-announced 2b (msg.P2b.Again)
	// for an instance this learner already learned (retained or released): a
	// coordinator is still forwarding the instance — it lost the first ack, or
	// it is a repaired member re-2aing its shard's whole history — and the
	// host uses the hook to re-acknowledge it so that member's pipeline window
	// drains instead of wedging. An acceptor's first 2b arriving after the
	// quorum that decided the instance is unmarked and draws nothing.
	OnDuplicate func(inst uint64)
}

var _ node.Handler = (*Learner)(nil)

// NewLearner builds a learner delivering via fn (may be nil).
func NewLearner(env node.Env, cfg Config, fn LearnFn) *Learner {
	return &Learner{
		env:     env,
		cfg:     cfg,
		onLearn: fn,
		votes:   make(map[uint64]*instTally),
		learned: make(map[uint64]cstruct.Cmd),
	}
}

// Learned returns the learned command for an instance, if it is still
// retained (not yet handed back via Release).
func (l *Learner) Learned(inst uint64) (cstruct.Cmd, bool) {
	c, ok := l.learned[inst]
	return c, ok
}

// LearnedCount returns how many instances have ever been learned, including
// released ones.
func (l *Learner) LearnedCount() int { return l.count }

// Release garbage-collects every instance < upTo: the SMR layer calls it
// once those instances are applied, bounding the learner's retained state.
// Late 2b retransmissions below the watermark are ignored — they can only
// re-report the already-learned value (Paxos safety), never change it.
func (l *Learner) Release(upTo uint64) {
	if upTo <= l.floor {
		return
	}
	for inst := l.floor; inst < upTo; inst++ {
		delete(l.learned, inst)
		delete(l.votes, inst)
	}
	l.floor = upTo
}

// Retained reports how many instances the learner currently holds state for
// (learned values plus open tallies), for memory-bound tests.
func (l *Learner) Retained() int { return len(l.learned) + len(l.votes) }

// OnMessage implements node.Handler.
func (l *Learner) OnMessage(_ msg.NodeID, m msg.Message) {
	mm, ok := m.(msg.P2b)
	if !ok {
		return
	}
	if _, done := l.learned[mm.Inst]; done || mm.Inst < l.floor {
		if mm.Again && l.OnDuplicate != nil {
			l.OnDuplicate(mm.Inst)
		}
		return
	}
	t, ok := l.votes[mm.Inst]
	if !ok {
		t = &instTally{
			byAcc:  make(map[msg.NodeID]msg.P2b),
			counts: make(map[tallyKey]int),
		}
		l.votes[mm.Inst] = t
	}
	if prev, seen := t.byAcc[mm.Acc]; seen {
		if !prev.Rnd.Less(mm.Rnd) {
			return
		}
		// The acceptor moved to a higher round: retract its old vote from
		// that round's tally.
		if pc, ok := unwrap(prev.Val); ok {
			pk := tallyKey{rnd: prev.Rnd, cmdID: pc.ID}
			if t.counts[pk]--; t.counts[pk] == 0 {
				delete(t.counts, pk)
			}
		}
	}
	t.byAcc[mm.Acc] = mm

	cmd, ok := unwrap(mm.Val)
	if !ok {
		return
	}
	k := tallyKey{rnd: mm.Rnd, cmdID: cmd.ID}
	t.counts[k]++
	if l.cfg.Quorums.IsQuorum(t.counts[k], false) {
		l.learned[mm.Inst] = cmd
		l.count++
		delete(l.votes, mm.Inst)
		if l.onLearn != nil {
			l.onLearn(mm.Inst, cmd)
		}
	}
}
