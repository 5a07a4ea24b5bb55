package core

import (
	"mcpaxos/internal/ballot"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/node"
	"mcpaxos/internal/quorum"
	"mcpaxos/internal/storage"
)

// Acceptor is a Multicoordinated Paxos acceptor (Section 3.2). It accepts a
// c-struct in round i only when a whole i-coordquorum forwarded compatible
// values, merging their greatest lower bounds into its accepted value. In
// fast rounds it extends its value directly with proposals. Accepted values
// are persisted before the 2b leaves; the current round is volatile, only
// its MCount is stable (Section 4.4, storage.Incarnation).
type Acceptor struct {
	env  node.Env
	cfg  Config
	disk storage.Stable
	inc  storage.Incarnation

	rnd  ballot.Ballot
	vrnd ballot.Ballot
	vval cstruct.CStruct

	// twoAs holds the latest 2a value per coordinator of its round.
	twoAs roundVals
	// peer2bs holds the current round's non-⊥ 2bs per acceptor, its own
	// included, for uncoordinated recovery.
	peer2bs roundVals

	// proposals buffered for fast rounds.
	proposals []cstruct.Cmd
	proposed  map[uint64]bool

	// promotions counts collision-triggered round jumps, for experiments and
	// for the MaxUncoordRecoveries bound.
	promotions int

	// PersistRnd disables the Section 4.4 optimization: the acceptor then
	// writes its current round to disk on every round change, as a naive
	// implementation would. Exists for the disk-write ablation.
	PersistRnd bool
}

// MaxUncoordRecoveries bounds the uncoordinated recoveries one acceptor runs:
// acceptors recovering from different quorums of 2bs can collide again, and
// the livelock ends with a coordinator's classic round (Section 2.2).
const MaxUncoordRecoveries = 8

var _ node.Handler = (*Acceptor)(nil)

// NewAcceptor builds an acceptor bound to env, in the state disk (the
// simulated Disk or the on-disk WAL) dictates. Over a store an earlier acceptor
// wrote to, this is that acceptor's recovery: the accepted value comes back,
// and the round starts where storage.LoadIncarnation says — at Zero on a first
// start, above any round the previous life can have joined otherwise (one disk
// write, Section 4.4).
func NewAcceptor(env node.Env, cfg Config, disk storage.Stable) *Acceptor {
	a := &Acceptor{
		env: env, cfg: cfg, disk: disk,
		vval:     cfg.Set.Bottom(),
		proposed: make(map[uint64]bool),
	}
	if rec, ok := disk.Get(storage.KeyVote); ok {
		v := rec.(storage.VoteRec)
		a.vrnd = v.VRnd
		a.vval = cstruct.AppendSeq(cfg.Set.Bottom(), v.Cmds)
	}
	a.inc, a.rnd = storage.LoadIncarnation(disk, a.vrnd)
	return a
}

// Rnd exposes the current round, for tests.
func (a *Acceptor) Rnd() ballot.Ballot { return a.rnd }

// VVal exposes the accepted c-struct, for tests.
func (a *Acceptor) VVal() cstruct.CStruct { return a.vval }

// VRnd exposes the round of the latest accept, for tests.
func (a *Acceptor) VRnd() ballot.Ballot { return a.vrnd }

// Promotions reports how many collision-triggered round changes this
// acceptor initiated.
func (a *Acceptor) Promotions() int { return a.promotions }

// OnMessage implements node.Handler.
func (a *Acceptor) OnMessage(from msg.NodeID, m msg.Message) {
	switch mm := m.(type) {
	case msg.P1a:
		a.onP1a(mm)
	case msg.P2a:
		a.onP2a(from, mm)
	case msg.Propose:
		a.onPropose(mm)
	case msg.P2b:
		a.onPeer2b(mm)
	}
}

// onP1a is action Phase1b.
func (a *Acceptor) onP1a(mm msg.P1a) {
	if !a.rnd.Less(mm.Rnd) {
		a.env.Send(mm.Coord, msg.Stale{Rnd: a.rnd})
		return
	}
	a.joinRound(mm.Rnd)
}

// joinRound sets rnd and sends the 1b to every coordinator of the round.
func (a *Acceptor) joinRound(r ballot.Ballot) {
	a.inc.Observe(r)
	a.rnd = r
	if a.PersistRnd {
		a.disk.Put(storage.KeyRnd, r) // ablation: naive per-round-change write
	}
	a.twoAs.reset(r)
	out := msg.P1b{Rnd: r, Acc: a.env.ID(), VRnd: a.vrnd, VVal: a.vval}
	node.Broadcast(a.env, a.cfg.RoundCoords(r), out)
}

// onP2a stores the coordinator's value, detects coordinator collisions
// (incompatible values within one round, Section 4.2) and tries to accept.
func (a *Acceptor) onP2a(from msg.NodeID, mm msg.P2a) {
	if mm.Rnd.Less(a.rnd) {
		a.env.Send(from, msg.Stale{Rnd: a.rnd})
		return
	}
	if mm.Val == nil {
		return
	}
	if !a.twoAs.add(a.cfg.Set, mm.Rnd, mm.Coord, mm.Val) {
		return // stale 2a for a round we already left
	}

	// Collision detection: two coordinators of the same round with
	// incompatible c-structs. With majority coordquorums any two
	// coordinators share a quorum, so any incompatible pair is a collision.
	if a.twoAs.collide(a.cfg.Set) {
		a.promote(a.cfg.Scheme.Next(a.twoAs.rnd, a.twoAs.rnd.ID))
		return
	}
	a.tryAccept(mm.Rnd)
}

// tryAccept is action Phase2bClassic: for every coordquorum fully heard
// from, fold its glb into the accepted value.
func (a *Acceptor) tryAccept(r ballot.Ballot) {
	need := a.cfg.CoordQuorumSize(r)
	if len(a.twoAs.vals) < need {
		return
	}
	coords := a.cfg.RoundCoords(r)
	present := make([]msg.NodeID, 0, len(coords))
	for _, co := range coords {
		if _, ok := a.twoAs.vals[co]; ok {
			present = append(present, co)
		}
	}
	if len(present) < need {
		return
	}
	// u = ⊔ { ⊓ vals(L) : L coordquorum ⊆ present }. Quorum glbs are
	// pairwise compatible (they share a coordinator), so the lub exists.
	var candidates []cstruct.CStruct
	for _, sub := range quorum.Subsets(len(present), need) {
		vals := make([]cstruct.CStruct, 0, need)
		for _, j := range sub {
			vals = append(vals, a.twoAs.vals[present[j]])
		}
		candidates = append(candidates, a.cfg.Set.GLB(vals...))
	}
	u, ok := a.cfg.Set.LUB(candidates...)
	if !ok {
		a.promote(a.cfg.Scheme.Next(r, r.ID))
		return
	}

	var newv cstruct.CStruct
	if a.vrnd.Equal(r) {
		if !a.cfg.Set.Compatible(a.vval, u) {
			// The coordquorum's agreed value contradicts what we already
			// accepted this round: an in-round collision.
			a.promote(a.cfg.Scheme.Next(r, r.ID))
			return
		}
		merged, _ := a.cfg.Set.LUB(a.vval, u)
		newv = merged
	} else {
		newv = u
	}
	if a.vrnd.Equal(r) && a.cfg.Set.Equal(newv, a.vval) {
		// Nothing new to vote for: this is a (possibly retransmitted)
		// duplicate 2a. Re-announce the vote so lost 2b messages are
		// eventually replaced — the acceptor's "last message" resend.
		node.Broadcast(a.env, a.cfg.Learners, msg.P2b{Rnd: r, Acc: a.env.ID(), Val: a.vval})
		return
	}
	a.accept(r, newv)
}

// onPropose is action Phase2bFast: extend the accepted value directly when
// the current round is fast and we already voted in it.
func (a *Acceptor) onPropose(mm msg.Propose) {
	if a.proposed[mm.Cmd.ID] {
		return
	}
	a.proposed[mm.Cmd.ID] = true
	a.proposals = append(a.proposals, mm.Cmd)
	a.tryFastAppend()
}

func (a *Acceptor) tryFastAppend() {
	if !a.cfg.Scheme.IsFast(a.rnd) || !a.rnd.Equal(a.vrnd) {
		return
	}
	v := a.vval
	for _, c := range a.proposals {
		if !v.Contains(c) {
			v = v.Append(c)
		}
	}
	// Appending to a single value is a no-op: accept only what grew.
	if !a.cfg.Set.Equal(v, a.vval) {
		a.accept(a.rnd, v)
	}
}

// accept persists and announces the vote.
func (a *Acceptor) accept(r ballot.Ballot, v cstruct.CStruct) {
	a.inc.Observe(r)
	a.rnd = ballot.Max(a.rnd, r)
	a.vrnd = r
	a.vval = v
	// The accepted c-struct is flattened to its representative command
	// sequence (⊥ • σ) so the record serializes backend-independently;
	// restore rebuilds it with the deployment's c-struct set.
	a.disk.Put(storage.KeyVote, storage.VoteRec{VRnd: r, Cmds: v.Commands()})
	out := msg.P2b{Rnd: r, Acc: a.env.ID(), Val: v}
	node.Broadcast(a.env, a.cfg.Learners, out)
	switch {
	case a.cfg.Recovery == AtAcceptors:
		for _, p := range a.cfg.Acceptors {
			if p != a.env.ID() {
				a.env.Send(p, out)
			}
		}
		a.onPeer2b(out)
	case a.cfg.Recovery != 0 && a.cfg.Scheme.IsFast(r):
		// Restart and Coordinated: the round's coordinators watch its votes.
		node.Broadcast(a.env, a.cfg.RoundCoords(r), out)
	}
	// After accepting in a fast round, drain any buffered proposals.
	if a.cfg.Scheme.IsFast(r) {
		a.tryFastAppend()
	}
}

// onPeer2b is collision detection at the acceptors (Recovery AtAcceptors,
// Section 4.2), fed every acceptor's 2bs of the current round, its own
// included. Before a classic successor round, an acceptor whose vote a peer's
// contradicts joins that round as if its 1a had arrived. Before a fast one, it
// waits for a quorum of 2bs that collide, reads them as the successor's 1bs,
// and accepts there at once: uncoordinated recovery.
func (a *Acceptor) onPeer2b(mm msg.P2b) {
	if a.cfg.Recovery != AtAcceptors || !mm.Rnd.Equal(a.rnd) || mm.Val == nil {
		return
	}
	next := a.cfg.Scheme.Next(a.rnd, a.rnd.ID)
	if !a.cfg.Scheme.IsFast(next) {
		if a.vrnd.Equal(a.rnd) && !a.cfg.Set.Compatible(a.vval, mm.Val) {
			a.promote(next)
		}
		return
	}
	// As at the coordinator, the ⊥ 2bs answering the round's 2a are not read
	// as 1bs: the sender's first proposal follows them.
	if mm.Val.Len() == 0 || a.promotions >= MaxUncoordRecoveries {
		return
	}
	a.peer2bs.add(a.cfg.Set, mm.Rnd, mm.Acc, mm.Val)
	if !a.cfg.Quorums.IsQuorum(len(a.peer2bs.vals), true) || !a.peer2bs.collide(a.cfg.Set) {
		return
	}
	if v, ok := a.cfg.safeValue(a.peer2bs.as1bs(next, a.cfg.Acceptors)); ok {
		a.promotions++
		a.accept(next, v)
	}
}

// promote acts as if a 1a for round j had been received (Section 4.2's
// collision escape): join j and send the 1b to j's coordinators.
func (a *Acceptor) promote(j ballot.Ballot) {
	if !a.rnd.Less(j) {
		return
	}
	a.promotions++
	a.joinRound(j)
}
