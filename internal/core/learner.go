package core

import (
	"mcpaxos/internal/ballot"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/node"
	"mcpaxos/internal/quorum"
)

// UpdateFn is invoked whenever the learner's c-struct grows; newCmds lists
// the commands that became learned with this growth, in a delivery order
// consistent with the c-struct.
type UpdateFn func(learned cstruct.CStruct, newCmds []cstruct.Cmd)

// Learner accumulates the learned c-struct of a Multicoordinated Paxos
// deployment (action Learn, Section 3.2): whenever an i-quorum of acceptors
// reports 2b values for round i, the glb of each quorum's values is folded
// into learned[l] by lub.
type Learner struct {
	env      node.Env
	cfg      Config
	onUpdate UpdateFn

	// latest 2b per acceptor (higher rounds supersede; within a round,
	// longer values supersede).
	votes   map[msg.NodeID]msg.P2b
	learned cstruct.CStruct
	known   map[uint64]bool
}

var _ node.Handler = (*Learner)(nil)

// NewLearner builds a learner delivering via fn (may be nil).
func NewLearner(env node.Env, cfg Config, fn UpdateFn) *Learner {
	return &Learner{
		env:      env,
		cfg:      cfg,
		onUpdate: fn,
		votes:    make(map[msg.NodeID]msg.P2b),
		learned:  cfg.Set.Bottom(),
		known:    make(map[uint64]bool),
	}
}

// Learned returns the current learned c-struct.
func (l *Learner) Learned() cstruct.CStruct { return l.learned }

// OnMessage implements node.Handler.
func (l *Learner) OnMessage(_ msg.NodeID, m msg.Message) {
	mm, ok := m.(msg.P2b)
	if !ok || mm.Val == nil {
		return
	}
	prev, seen := l.votes[mm.Acc]
	switch {
	case !seen:
		l.votes[mm.Acc] = mm
	case prev.Rnd.Less(mm.Rnd):
		l.votes[mm.Acc] = mm
	case prev.Rnd.Equal(mm.Rnd) && l.cfg.Set.Extends(prev.Val, mm.Val):
		l.votes[mm.Acc] = mm
	default:
		return
	}
	l.relearn(mm.Rnd, mm.Acc)
}

// relearn folds r-quorum glbs into learned, incrementally: only quorums
// containing the acceptor whose vote just changed can produce a new glb —
// every other quorum's members are untouched since the last fold that
// covered them, and folding by lub is monotone — so instead of enumerating
// all C(present, q) quorums per 2b, only the C(present−1, q−1) quorums
// through the changed acceptor are visited (the ROADMAP's learner
// quorum-subset caching lever; quorum.Subsets itself memoizes the
// enumeration).
func (l *Learner) relearn(r ballot.Ballot, changed msg.NodeID) {
	var others []msg.NodeID
	for acc, v := range l.votes {
		if acc != changed && v.Rnd.Equal(r) {
			others = append(others, acc)
		}
	}
	qsize := l.cfg.Quorums.Size(l.cfg.Scheme.IsFast(r))
	if len(others)+1 < qsize {
		return
	}
	changedVal := l.votes[changed].Val
	var grown []cstruct.CStruct
	for _, sub := range quorum.Subsets(len(others), qsize-1) {
		vals := make([]cstruct.CStruct, 0, qsize)
		vals = append(vals, changedVal)
		for _, j := range sub {
			vals = append(vals, l.votes[others[j]].Val)
		}
		grown = append(grown, l.cfg.Set.GLB(vals...))
	}
	// Every chosen value is compatible with every other and with learned
	// (Proposition 1); incompatibility here would be a safety violation,
	// so we refuse to learn rather than diverge.
	for _, g := range grown {
		merged, ok := l.cfg.Set.LUB(l.learned, g)
		if !ok {
			continue
		}
		l.learned = merged
	}
	l.deliverNew()
}

// deliverNew invokes the callback with commands that newly appeared.
func (l *Learner) deliverNew() {
	var fresh []cstruct.Cmd
	for _, c := range l.learned.Commands() {
		if !l.known[c.ID] {
			l.known[c.ID] = true
			fresh = append(fresh, c)
		}
	}
	if len(fresh) > 0 && l.onUpdate != nil {
		l.onUpdate(l.learned, fresh)
	}
}
