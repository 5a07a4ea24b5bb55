package classic

import (
	"slices"

	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/node"
)

// LearnFn is invoked exactly once per learned instance.
type LearnFn func(inst uint64, cmd cstruct.Cmd)

// Learner is a multi-instance Classic Paxos learner: a value is learned for
// an instance once a classic quorum of acceptors reports the same value in
// the same round (action Learn, Section 2.1.2).
//
// An open instance's tally is the highest-round 2b of each acceptor that
// voted in it — one short slice, sized for the acceptors on first use and
// scanned when a 2b arrives — so a vote its acceptor superseded no longer
// counts. Memory is bounded in two ways: an instance's tally is dropped the
// moment it is learned, and Release lets the SMR layer return learned
// commands once they are applied, so long runs do not retain every command
// forever. Learning itself is per-instance, so sharded deployments
// (cfg.Shards > 1) need no learner changes: the shard streams interleave in
// the instance space and the SMR merger restores the total order.
type Learner struct {
	env     node.Env
	cfg     Config
	onLearn LearnFn

	votes   map[uint64][]msg.P2b
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
		votes:   make(map[uint64][]msg.P2b),
		learned: make(map[uint64]cstruct.Cmd),
	}
}

// Learned returns the learned command for an instance, if it is still
// retained (not yet handed back via Release).
func (l *Learner) Learned(inst uint64) (cstruct.Cmd, bool) {
	c, ok := l.learned[inst]
	return c, ok
}

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
	vs := l.votes[mm.Inst]
	i := slices.IndexFunc(vs, func(v msg.P2b) bool { return v.Acc == mm.Acc })
	switch {
	case i < 0:
		if vs == nil {
			vs = make([]msg.P2b, 0, len(l.cfg.Acceptors))
		}
		vs = append(vs, mm)
		l.votes[mm.Inst] = vs
	case vs[i].Rnd.Less(mm.Rnd):
		vs[i] = mm
	default:
		return
	}
	cmd, ok := unwrap(mm.Val)
	if !ok {
		return
	}
	n := 0
	for _, v := range vs {
		if c, ok := unwrap(v.Val); ok && c.Equal(cmd) && v.Rnd.Equal(mm.Rnd) {
			n++
		}
	}
	if l.cfg.Quorums.IsQuorum(n, false) {
		l.learned[mm.Inst] = cmd
		l.count++
		delete(l.votes, mm.Inst)
		if l.onLearn != nil {
			l.onLearn(mm.Inst, cmd)
		}
	}
}
