package classic

import (
	"maps"
	"slices"

	"mcpaxos/internal/ballot"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/node"
)

// BecomeLeader starts phase 1 of a round higher than any this coordinator
// has seen (action Phase1a). The round is served by its whole group — this
// coordinator alone at c = 1, which is how a standby takes a shard over.
func (c *Coordinator) BecomeLeader() {
	c.startRound(ballot.SingleScheme{}.Next(c.crnd, uint32(c.env.ID())))
}

// StepDown makes the coordinator stop forwarding: it keeps recording the
// proposal stream but sends no 2a until a round is established again.
func (c *Coordinator) StepDown() { c.leading = false }

// Repair reconstructs a restarted coordinator's volatile round state from
// the acceptors (the Section 4.4 recovery applied to coordinators): a fresh
// 1a at the member's current (restarted: zero) round never outbids the
// shard's live round — acceptors either re-send their promise (round
// already joined) or answer Stale with the live round, which the repairing
// member adopts *exactly* instead of outbidding. The promises carry every
// past vote of the shard, so establishment re-forwards the unlearned
// history under the live round: abandoned slots decide instead of
// retransmitting forever, and a successful repair costs zero round changes.
// A live round this coordinator does not serve (a standby took the shard
// over at c = 1) is outbid instead. Standbys outside the shard's first group
// stay passive.
func (c *Coordinator) Repair() {
	if c.leading || !c.cfg.InRoundGroup(c.shard, c.crnd, c.env.ID()) {
		return
	}
	c.repairing = true
	// Whoever stamped while this member was down still does, and its next
	// share may arrive after the first client does: guess the next member of
	// the group rather than stamp beside it. A wrong guess costs one relay
	// hop; the stamper's share or takeOver's triggers correct it.
	if g := c.cfg.RoundGroup(c.shard, c.crnd); len(g) > 1 {
		c.stamper = g[(slices.Index(g, c.env.ID())+1)%len(g)]
	}
	c.send1a()
	c.armRetry()
}

// send1a sends the 1a of the round this member is after: its own, or while
// repairing the best-known live round.
func (c *Coordinator) send1a() {
	r := c.crnd
	if c.repairing && !c.repairTarget.IsZero() {
		r = c.repairTarget
	}
	node.Broadcast(c.env, c.cfg.Acceptors, msg.P1a{
		Rnd: r, Coord: c.env.ID(), Shard: uint32(c.shard),
	})
}

func (c *Coordinator) startRound(r ballot.Ballot) {
	if !c.crnd.Less(r) {
		return
	}
	c.enter(r)
	c.leading = false
	c.send1a()
	c.armRetry()
}

// enter makes r the member's round, started or established.
func (c *Coordinator) enter(r ballot.Ballot) {
	c.crnd = r
	// Promise buffers at or below the new round are dead — onP1b drops
	// their remaining 1bs against the advanced crnd — so abandoned rounds
	// must not retain their partial vote lists. Higher rounds (a peer's
	// concurrent start) stay collectable.
	for past := range c.p1bs {
		if past.LessEq(r) {
			delete(c.p1bs, past)
		}
	}
	// Nothing is re-queued: every assignment is bound to its instance by the
	// proposal's sequence number, so the round re-forwards the same
	// (instance, value) pairs once established.
	c.sent = make(map[uint64]bool)
	c.unsent = nil
}

// onP1b collects promises; once a classic quorum has joined a round the
// coordinator adopts the constrained values (highest vrnd per instance,
// Section 2.1.2's picking rule) and opens the floor for new proposals.
// Promises for rounds started by a group peer (or by an acceptor's collision
// promotion) count too: acceptors send each promise to the round's whole
// group, so every member establishes the round independently — the group
// analogue of Phase2Start.
func (c *Coordinator) onP1b(mm msg.P1bMulti) {
	if int(mm.Shard) != c.shard {
		return
	}
	if mm.Rnd.Less(c.crnd) || (mm.Rnd.Equal(c.crnd) && c.leading) {
		return
	}
	ps := c.p1bs[mm.Rnd]
	if i := slices.IndexFunc(ps, func(p msg.P1bMulti) bool { return p.Acc == mm.Acc }); i >= 0 {
		ps[i] = mm
	} else {
		if ps == nil {
			ps = make([]msg.P1bMulti, 0, len(c.cfg.Acceptors))
		}
		ps = append(ps, mm)
		c.p1bs[mm.Rnd] = ps
	}
	if !c.cfg.Quorums.IsQuorum(len(ps), false) {
		return
	}
	c.establish(mm.Rnd, ps)
}

// establish completes phase 1 for round r from the collected promises:
// adopt the picked values, re-forward everything unlearned, and open the
// floor for new proposals.
func (c *Coordinator) establish(r ballot.Ballot, promises []msg.P1bMulti) {
	c.enter(r)
	c.leading = true
	c.repairing = false
	if !c.cfg.InRoundGroup(c.shard, r, c.stamper) {
		c.stamper = 0 // the believed stamper does not serve this round
	}
	if c.everLed {
		c.roundChanges++
	} else {
		c.everLed = true
	}
	// Pick, per instance, the vval of the highest vrnd reported. A picked
	// value overrides the local assignment: it may already be chosen.
	picks := make(map[uint64]vote)
	for _, p1b := range promises {
		for _, v := range p1b.Votes {
			// Acceptors scope their promises to the claimed shard, but a
			// pre-sharding log or a misrouted reply may report foreign
			// instances: those belong to another shard's group.
			if !c.owns(v.Inst) || c.isLearned(v.Inst) {
				continue
			}
			cmd, ok := unwrap(v.VVal)
			if !ok {
				continue
			}
			if cur, seen := picks[v.Inst]; !seen || cur.vrnd.Less(v.VRnd) {
				picks[v.Inst] = vote{vrnd: v.VRnd, vval: cmd}
			}
		}
	}
	for inst, p := range picks {
		c.bind(inst, p.vval)
	}
	// Every unlearned assignment is re-forwarded under the new round,
	// respecting the window. Instance order, not map order — here and in
	// every loop that sends: the sequence must be deterministic or a
	// probabilistic dropper's dice land on different messages run to run,
	// breaking seed reproducibility.
	for _, inst := range slices.Sorted(maps.Keys(c.proposals)) {
		c.trySend(inst)
	}
}

// onStale reacts to an acceptor whose round outruns ours: start a higher
// round to regain the ability to get values accepted (Section 4.3). Every
// coordinator that sent a 1a or 2a may chase, damped by crnd so one
// rejection wave yields one new round per member.
func (c *Coordinator) onStale(mm msg.Stale) {
	if c.repairing && !c.leading {
		if c.cfg.InRoundGroup(c.shard, mm.Rnd, c.env.ID()) {
			// Repair adopts the live round exactly: outbidding it here would
			// force the round change the whole exercise exists to avoid.
			if c.repairTarget.Less(mm.Rnd) {
				c.repairTarget = mm.Rnd
				c.send1a()
				c.armRetry()
			}
			return
		}
		// The live round is served without this coordinator: there is no
		// group to rejoin, only a round to outbid.
		c.repairing = false
	}
	if mm.Rnd.LessEq(c.crnd) {
		// Rejection of an attempt already superseded. That includes a round
		// this coordinator itself started or serves (ballots carry their
		// owner, so equality means exactly that): the acceptor is not ahead,
		// it answered an older message — a repairing member's zero-round
		// probe draws one such Stale per acceptor, and those still in flight
		// when the first promises establish the live round must not outbid
		// the round the repair just rejoined.
		return
	}
	c.startRound(ballot.SingleScheme{}.Next(mm.Rnd, uint32(c.env.ID())))
}

func (c *Coordinator) armRetry() {
	if c.RetryEvery > 0 && !c.retryArmed {
		c.retryArmed = true
		c.env.SetTimer(c.RetryEvery, timerRetry)
	}
}
