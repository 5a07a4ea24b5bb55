package core

import (
	"maps"
	"slices"

	"mcpaxos/internal/ballot"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/node"
)

// Coordinator is a Multicoordinated Paxos coordinator. Several coordinators
// serve the same multicoordinated round concurrently: each independently
// completes Phase2Start from an acceptor quorum's 1b messages and then
// appends proposals to its cval with Phase2aClassic. Acceptors only accept
// what a whole coordinator quorum agrees on.
//
// Coordinators keep no stable state (Section 4.4): a restarted coordinator
// is a new Coordinator — it has lost everything, and the round scheme's
// MCount headroom lets it start dominating rounds all the same.
type Coordinator struct {
	env node.Env
	cfg Config

	crnd    ballot.Ballot
	started bool // Phase2Start executed for crnd
	cval    cstruct.CStruct
	// attempt is the highest round this coordinator sent a 1a for; it damps
	// the stale-chase so one rejection wave yields one new round.
	attempt ballot.Ballot

	// p1bs buffers phase 1b messages per candidate round.
	p1bs map[ballot.Ballot]map[msg.NodeID]msg.P1b

	// fast2bs holds the 2bs of crnd when it is a fast round, which Restart
	// and Coordinated recovery watch for a collision.
	fast2bs roundVals

	// proposals are commands seen (and their chosen acceptor quorums, for
	// load-balanced deployments).
	proposals []msg.Propose
	seen      map[uint64]bool

	// ChaseStale, when true, makes the coordinator start the successor
	// round upon learning its round is stale (leader behaviour,
	// Section 4.3).
	ChaseStale bool

	// RetryEvery > 0 re-broadcasts the current 2a while commands it
	// forwarded remain unlearned — the paper's answer to message loss
	// ("processes keep on re-sending their last message", Section 4.3).
	RetryEvery int64
	learned    map[uint64]bool
	retryArmed bool
}

// Timer tags used by the coordinator.
const timerRetry2a = 1

var _ node.Handler = (*Coordinator)(nil)
var _ node.TimerHandler = (*Coordinator)(nil)

// NewCoordinator builds a coordinator bound to env.
func NewCoordinator(env node.Env, cfg Config) *Coordinator {
	return &Coordinator{
		env:     env,
		cfg:     cfg,
		cval:    cfg.Set.Bottom(),
		p1bs:    make(map[ballot.Ballot]map[msg.NodeID]msg.P1b),
		seen:    make(map[uint64]bool),
		learned: make(map[uint64]bool),
	}
}

// MarkLearned records that a command was learned, quiescing retransmission
// for it. Hosts wire a learner's callback here.
func (c *Coordinator) MarkLearned(cmdID uint64) { c.learned[cmdID] = true }

func (c *Coordinator) armRetry() {
	if c.RetryEvery > 0 && !c.retryArmed {
		c.retryArmed = true
		c.env.SetTimer(c.RetryEvery, timerRetry2a)
	}
}

// OnTimer implements node.TimerHandler: while any forwarded command is
// unlearned, re-broadcast the current cval.
func (c *Coordinator) OnTimer(tag int) {
	if tag != timerRetry2a {
		return
	}
	c.retryArmed = false
	if !c.started || c.cfg.Scheme.IsFast(c.crnd) {
		return
	}
	outstanding := false
	for _, cmd := range c.cval.Commands() {
		if !c.learned[cmd.ID] {
			outstanding = true
			break
		}
	}
	if outstanding {
		c.send2a(nil)
		c.armRetry()
	}
}

// Rnd returns the coordinator's current round.
func (c *Coordinator) Rnd() ballot.Ballot { return c.crnd }

// CVal returns the latest c-struct sent in a 2a for the current round.
func (c *Coordinator) CVal() cstruct.CStruct { return c.cval }

// Started reports whether Phase2Start has run for the current round.
func (c *Coordinator) Started() bool { return c.started }

// StartRound executes Phase1a for round r. Enabled iff this coordinator
// belongs to an r-coordquorum and crnd < r.
func (c *Coordinator) StartRound(r ballot.Ballot) {
	if !c.crnd.Less(r) || !c.attempt.Less(r) || !c.cfg.IsCoordOf(c.env.ID(), r) {
		return
	}
	c.attempt = r
	node.Broadcast(c.env, c.cfg.Acceptors, msg.P1a{Rnd: r, Coord: c.env.ID()})
}

// OnMessage implements node.Handler.
func (c *Coordinator) OnMessage(_ msg.NodeID, m msg.Message) {
	switch mm := m.(type) {
	case msg.Propose:
		c.onPropose(mm)
	case msg.P1b:
		c.onP1b(mm)
	case msg.P2b:
		c.onP2b(mm)
	case msg.Stale:
		c.onStale(mm)
	}
}

// onPropose is action Phase2aClassic: append the command to cval and
// forward. Only meaningful once Phase2Start ran and only for classic
// (single- or multi-coordinated) rounds: in fast rounds acceptors hear
// proposers directly.
func (c *Coordinator) onPropose(mm msg.Propose) {
	if c.seen[mm.Cmd.ID] {
		return
	}
	c.seen[mm.Cmd.ID] = true
	c.proposals = append(c.proposals, mm)
	if !c.started || c.cfg.Scheme.IsFast(c.crnd) {
		return
	}
	if c.cval.Contains(mm.Cmd) {
		return
	}
	c.cval = c.cval.Append(mm.Cmd)
	c.send2a(mm.AccQuorum)
	c.armRetry()
}

// send2a broadcasts the current cval; to restricts the acceptor set when
// the proposer chose a quorum (Section 4.1 load balancing).
func (c *Coordinator) send2a(to []msg.NodeID) {
	targets := to
	if len(targets) == 0 {
		targets = c.cfg.Acceptors
	}
	node.Broadcast(c.env, targets, msg.P2a{
		Rnd: c.crnd, Coord: c.env.ID(), Val: c.cval,
	})
}

// onP1b collects promises for rounds above crnd and, once an i-quorum has
// answered, executes Phase2Start: pick a ProvedSafe value, extend it with
// pending proposals, and send the first 2a.
func (c *Coordinator) onP1b(mm msg.P1b) {
	if !c.crnd.Less(mm.Rnd) || !c.cfg.IsCoordOf(c.env.ID(), mm.Rnd) {
		return
	}
	byAcc, ok := c.p1bs[mm.Rnd]
	if !ok {
		byAcc = make(map[msg.NodeID]msg.P1b)
		c.p1bs[mm.Rnd] = byAcc
	}
	byAcc[mm.Acc] = mm
	if !c.cfg.Quorums.IsQuorum(len(byAcc), c.cfg.Scheme.IsFast(mm.Rnd)) {
		return
	}

	val, ok := c.cfg.safeValue(slices.Collect(maps.Values(byAcc)))
	if !ok {
		// Broken quorum configuration; refuse to make progress unsafely.
		return
	}

	c.crnd = mm.Rnd
	c.attempt = ballot.Max(c.attempt, mm.Rnd)
	c.started = true
	delete(c.p1bs, mm.Rnd)
	for r := range c.p1bs {
		if r.LessEq(c.crnd) {
			delete(c.p1bs, r)
		}
	}
	// Extend the picked value with every proposal seen (the σ of
	// Phase2Start), unless the round is fast — there the acceptors append.
	if !c.cfg.Scheme.IsFast(c.crnd) {
		for _, p := range c.proposals {
			if !val.Contains(p.Cmd) {
				val = val.Append(p.Cmd)
			}
		}
	}
	c.cval = val
	c.send2a(nil)
	c.armRetry()
}

// onP2b watches the fast round this coordinator started (Recovery Restart or
// Coordinated, Section 4.2). Once its 2bs collide, Restart starts the
// successor round from phase 1, and Coordinated reads them as the
// successor's 1bs: Phase2Start runs as soon as they form a quorum. The ⊥ 2bs
// that answer the round's own 2a are not read: a 1b must report the sender's
// last vote in the round, and a ⊥ vote is followed by the first proposal.
func (c *Coordinator) onP2b(mm msg.P2b) {
	if !c.started || !mm.Rnd.Equal(c.crnd) || !c.cfg.Scheme.IsFast(c.crnd) ||
		mm.Val == nil || mm.Val.Len() == 0 {
		return
	}
	c.fast2bs.add(c.cfg.Set, mm.Rnd, mm.Acc, mm.Val)
	if !c.fast2bs.collide(c.cfg.Set) {
		return
	}
	next := c.cfg.Scheme.Next(c.crnd, uint32(c.env.ID()))
	switch c.cfg.Recovery {
	case Restart:
		c.StartRound(next)
	case Coordinated:
		for _, p := range c.fast2bs.as1bs(next, c.cfg.Acceptors) {
			c.onP1b(p)
		}
	}
}

// onStale reacts to acceptors that outran this coordinator's round.
func (c *Coordinator) onStale(mm msg.Stale) {
	if !c.ChaseStale {
		return
	}
	cur := ballot.Max(c.attempt, c.crnd)
	if mm.Rnd.Less(cur) {
		return // rejection of an attempt we already superseded
	}
	c.StartRound(NextAbove(c.cfg.Scheme, ballot.Max(cur, mm.Rnd), uint32(c.env.ID())))
}

// NextAbove returns the first round in the scheme's succession, re-keyed to
// coordinator id, that is strictly greater than b. Plain Next can order
// below b when id is smaller than b's owner.
func NextAbove(s ballot.Scheme, b ballot.Ballot, id uint32) ballot.Ballot {
	n := s.Next(b, id)
	for !b.Less(n) {
		n = s.Next(n, id)
	}
	return n
}
