package fast

import (
	"mcpaxos/internal/ballot"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/node"
	"mcpaxos/internal/storage"
)

// Acceptor is a Fast Paxos acceptor. In fast rounds it may accept proposals
// received directly from proposers once the coordinator has sent Any for the
// round. Every accept is persisted before the 2b message is sent.
//
// When the deployment uses uncoordinated recovery, acceptors also receive
// each other's 2b messages, detect collisions, and jump to the next (fast)
// round by reinterpreting those 2b messages as 1b messages (Section 2.2).
type Acceptor struct {
	env  node.Env
	cfg  Config
	disk storage.Stable
	inc  storage.Incarnation

	rnd    ballot.Ballot
	vrnd   ballot.Ballot
	vval   cstruct.Cmd
	hasVal bool

	// anyRnd is the highest fast round for which an Any 2a arrived.
	anyRnd ballot.Ballot
	hasAny bool
	// proposals buffered for fast acceptance, in arrival order.
	proposals []cstruct.Cmd

	// seen2b collects peer votes for the current round (uncoordinated
	// recovery only).
	seen2b map[msg.NodeID]msg.P2b
	// recoveries caps successive uncoordinated recoveries to avoid
	// livelock; the leader's classic round is the liveness fallback.
	recoveries int
}

// MaxUncoordRecoveries bounds acceptor-driven recovery attempts.
const MaxUncoordRecoveries = 8

var _ node.Handler = (*Acceptor)(nil)

// NewAcceptor builds an acceptor bound to env, in the state disk (the
// simulated Disk or the on-disk WAL) dictates. Over a store an earlier acceptor
// wrote to, this is that acceptor's recovery: the vote comes back, and the
// round starts where storage.LoadIncarnation says — at Zero on a first start,
// above any round the previous life can have joined otherwise (one disk write,
// Section 4.4).
func NewAcceptor(env node.Env, cfg Config, disk storage.Stable) *Acceptor {
	a := &Acceptor{env: env, cfg: cfg, disk: disk, seen2b: make(map[msg.NodeID]msg.P2b)}
	if rec, ok := disk.Get(storage.KeyVote); ok {
		if v := rec.(storage.VoteRec); len(v.Cmds) > 0 {
			a.vrnd, a.vval, a.hasVal = v.VRnd, v.Cmds[0], true
		}
	}
	a.inc, a.rnd = storage.LoadIncarnation(disk, a.vrnd)
	return a
}

// Rnd exposes the current round, for tests.
func (a *Acceptor) Rnd() ballot.Ballot { return a.rnd }

// Vote exposes the latest accepted value, for tests.
func (a *Acceptor) Vote() (ballot.Ballot, cstruct.Cmd, bool) { return a.vrnd, a.vval, a.hasVal }

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

func (a *Acceptor) onP1a(mm msg.P1a) {
	if !a.rnd.Less(mm.Rnd) {
		a.env.Send(mm.Coord, msg.Stale{Acc: a.env.ID(), Rnd: a.rnd, Got: mm.Rnd})
		return
	}
	a.join(mm.Rnd)
	a.seen2b = make(map[msg.NodeID]msg.P2b)
	p1b := msg.P1b{Rnd: mm.Rnd, Acc: a.env.ID(), VRnd: a.vrnd}
	if a.hasVal {
		p1b.VVal = wrap(a.vval)
	} else {
		p1b.VVal = svSet.Bottom()
	}
	a.env.Send(mm.Coord, p1b)
}

func (a *Acceptor) onP2a(from msg.NodeID, mm msg.P2a) {
	if mm.Rnd.Less(a.rnd) {
		a.env.Send(from, msg.Stale{Acc: a.env.ID(), Rnd: a.rnd, Got: mm.Rnd})
		return
	}
	if mm.Any {
		if a.rnd.Less(mm.Rnd) || !a.hasAny || a.anyRnd.Less(mm.Rnd) {
			a.join(mm.Rnd)
			a.anyRnd = mm.Rnd
			a.hasAny = true
			a.seen2b = make(map[msg.NodeID]msg.P2b)
			// Behave as if a buffered proposal had just arrived.
			a.tryFastAccept()
		}
		return
	}
	cmd, ok := unwrap(mm.Val)
	if !ok {
		return
	}
	if a.vrnd.Equal(mm.Rnd) && a.hasVal {
		return // one value per round
	}
	a.accept(mm.Rnd, cmd)
}

func (a *Acceptor) onPropose(mm msg.Propose) {
	for _, p := range a.proposals {
		if p.Equal(mm.Cmd) {
			return
		}
	}
	a.proposals = append(a.proposals, mm.Cmd)
	a.tryFastAccept()
}

// tryFastAccept performs Phase2b for a fast round: if Any was received for
// the current round and no value was accepted in it yet, accept the first
// buffered proposal.
func (a *Acceptor) tryFastAccept() {
	if !a.hasAny || !a.anyRnd.Equal(a.rnd) || len(a.proposals) == 0 {
		return
	}
	if a.vrnd.Equal(a.rnd) && a.hasVal {
		return // already voted in this round
	}
	a.accept(a.rnd, a.proposals[0])
}

// join advances the current round, volatile but for its MCount, which is
// made stable first when it is news (Section 4.4).
func (a *Acceptor) join(r ballot.Ballot) {
	if a.rnd.Less(r) {
		a.inc.Observe(r)
		a.rnd = r
	}
}

// accept persists and announces the vote.
func (a *Acceptor) accept(r ballot.Ballot, cmd cstruct.Cmd) {
	a.join(r)
	a.vrnd = r
	a.vval = cmd
	a.hasVal = true
	a.disk.Put(storage.KeyVote, storage.VoteRec{VRnd: r, Cmds: []cstruct.Cmd{cmd}})
	out := msg.P2b{Rnd: r, Acc: a.env.ID(), Val: wrap(cmd)}
	for _, l := range a.cfg.Learners {
		a.env.Send(l, out)
	}
	// Coordinators monitor votes for collision detection.
	for _, co := range a.cfg.Coords {
		a.env.Send(co, out)
	}
	if a.cfg.Strategy == RecoveryUncoordinated {
		for _, p := range a.cfg.Acceptors {
			if p != a.env.ID() {
				a.env.Send(p, out)
			}
		}
		a.seen2b[a.env.ID()] = out
		a.maybeUncoordRecover()
	}
}

// onPeer2b drives uncoordinated recovery: collect the current round's votes
// and, on a collision backed by a quorum of 2b messages, jump to the next
// fast round using those messages as phase 1b evidence.
func (a *Acceptor) onPeer2b(mm msg.P2b) {
	if a.cfg.Strategy != RecoveryUncoordinated || !mm.Rnd.Equal(a.rnd) {
		return
	}
	a.seen2b[mm.Acc] = mm
	a.maybeUncoordRecover()
}

func (a *Acceptor) maybeUncoordRecover() {
	if a.recoveries >= MaxUncoordRecoveries {
		return
	}
	if !a.cfg.Quorums.IsQuorum(len(a.seen2b), false) {
		return
	}
	// Collision: at least two distinct values among this round's votes.
	distinct := make(map[uint64]struct{})
	reps := make([]report, 0, len(a.seen2b))
	for _, b := range a.seen2b {
		cmd, ok := unwrap(b.Val)
		if ok {
			distinct[cmd.ID] = struct{}{}
		}
		reps = append(reps, report{vrnd: b.Rnd, vval: cmd, has: ok})
	}
	if len(distinct) < 2 {
		return
	}
	// NextRound(i) keeps the round's owner (Section 4.4's record layout):
	// all acceptors must jump to the same successor round.
	next := a.cfg.Scheme.Next(a.rnd, a.rnd.ID)
	if !a.cfg.Scheme.IsFast(next) {
		return // uncoordinated recovery requires a fast successor round
	}
	out := pickConverging(reps, a.cfg.Quorums, a.cfg.Scheme)
	a.recoveries++
	a.join(next)
	a.seen2b = make(map[msg.NodeID]msg.P2b)
	a.hasAny = true // next fast round implicitly authorizes acceptance
	a.anyRnd = next
	switch {
	case !out.free:
		a.accept(next, out.val)
	case len(a.proposals) > 0:
		a.accept(next, a.proposals[0])
	}
}
