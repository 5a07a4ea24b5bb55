package classic

import (
	"bytes"
	"cmp"
	"maps"
	"slices"
	"strings"

	"mcpaxos/internal/ballot"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/node"
)

// onPropose records a sequence-numbered proposal at its fixed instance and
// forwards it within the window. A proposal without a sequence number is an
// unsequenced client submission: it is stamped at this member's ingress (one
// whose command ID names no client cannot be placed deterministically across
// a group, nor deduplicated on retry, and is dropped).
func (c *Coordinator) onPropose(from msg.NodeID, mm msg.Propose) {
	if !mm.HasSeq {
		if client, _ := SplitCmdID(mm.Cmd.ID); client != 0 {
			c.onIngress(mm.Cmd)
		}
		return
	}
	// Every observed stamp advances the ingress counter, so this member can
	// take over stamping without colliding with slots already claimed. A
	// stamp that does advance it is fresh — the re-shares of converge and
	// onFill never are — and says who is stamping now.
	if c.claim(mm.Seq) {
		c.follow(from)
	}
	inst := c.seqInst(mm.Seq)
	switch cur, have := c.proposals[inst]; {
	case c.isLearned(inst):
		// Decided before this copy arrived: only its request keys still
		// matter — a late client retry must map to the decided slot instead
		// of being stamped a second time. (A value known to have lost the
		// slot keeps its requests unmapped: they must restamp.)
		if have && !cur.Equal(mm.Cmd) {
			return
		}
		c.indexValue(inst, mm.Cmd)
	case !have:
		c.bind(inst, mm.Cmd)
		c.trySend(inst)
	case cur.Equal(mm.Cmd):
		// Retransmitted proposal: refresh the in-flight 2a so a lost one is
		// eventually replaced.
		if c.leading && c.sent[inst] {
			c.send2a(inst, cur)
			c.armRetry()
		}
	default:
		c.converge(inst, mm.Cmd, cur)
	}
}

// bind makes cmd this member's value for an instance and indexes the client
// command IDs its constituents carry.
func (c *Coordinator) bind(inst uint64, cmd cstruct.Cmd) {
	c.place(inst, cmd)
	c.indexValue(inst, cmd)
}

// place is bind without the request index, for the stamping path that
// already holds the commands. Requests stamped into a displaced value lost their
// slot — to a concurrent failover stamper, a gap fill, or the acceptors' pick
// — and are forgotten, so their clients' retries are restamped at a fresh
// slot.
func (c *Coordinator) place(inst uint64, cmd cstruct.Cmd) {
	if old, ok := c.proposals[inst]; ok && !old.Equal(cmd) {
		for k, at := range c.byReq {
			if at == inst {
				delete(c.byReq, k)
				c.restamped++
			}
		}
	}
	c.proposals[inst] = cmd
	if inst >= c.nextInst {
		c.nextInst = inst + c.stride()
	}
}

// converge resolves a divergence between this member's value and a peer's
// for one unlearned instance. Divergence arises when overlapping failover
// stampers claim the same slot for different commands, or when a gap fill
// races the real stamp — and it must not persist: members forwarding
// different values collide at the acceptors forever (each promotion
// re-establishes a round in which they re-forward the same split). Every
// member applies the same total preference, so the group converges without
// coordination: the real value beats the canonical fill no-op, ties break
// toward the lower command ID, then toward the lower content (two batches
// headed by one command share an ID).
//
// An acceptor's collision detection assumes a member forwards at most one
// value per (instance, round) — two same-round accepts of different values
// would otherwise become possible, breaking the pick rule's safety. So a
// member that already forwarded the losing value in the current round adopts
// the winner but converges through a fresh round instead of re-sending
// within this one.
func (c *Coordinator) converge(inst uint64, incoming, existing cstruct.Cmd) {
	if !prefer(incoming, existing) {
		// Our value wins: re-share it so the peer adopts — it may have filled
		// a no-op (or stamped a loser) because it never saw our stamp share.
		c.shareStamp(inst, existing)
		return
	}
	c.bind(inst, incoming)
	if c.sent[inst] {
		c.startRound(ballot.SingleScheme{}.Next(c.crnd, uint32(c.env.ID())))
	} else {
		c.trySend(inst)
	}
}

// prefer reports whether value a beats value b under the group's fixed
// preference order: a total order over values, so exactly one of two values
// that are not Equal beats the other.
func prefer(a, b cstruct.Cmd) bool {
	if an, bn := IsNoop(a), IsNoop(b); an != bn {
		return bn // the real value beats the fill no-op
	}
	return cmp.Or(cmp.Compare(a.ID, b.ID), strings.Compare(a.Key, b.Key), cmp.Compare(a.Op, b.Op),
		bytes.Compare(a.Payload, b.Payload)) < 0
}

// noteLearned stops retransmission for a learned instance and frees its
// pipeline slot.
func (c *Coordinator) noteLearned(inst uint64) {
	// Another shard's instance never matters here: no pipeline slot or
	// retransmission of ours depends on it.
	if !c.owns(inst) || c.isLearned(inst) {
		return
	}
	c.learned[inst] = true
	delete(c.sent, inst)
	delete(c.widths, inst)
	c.advance()
}

// advance moves the contiguous learned frontier over the instances learned
// at it. Everything below the frontier is forgotten: state stays bounded by
// the open window instead of growing with the run.
func (c *Coordinator) advance() {
	for at := c.seqInst(c.lo); c.learned[at]; at = c.seqInst(c.lo) {
		delete(c.learned, at)
		delete(c.proposals, at)
		c.lo++
	}
	c.drainUnsent()
}

// onFloor catches the member up to an acceptor's compaction floor: every
// instance below it was decided, and acceptors refuse 2as there, so the
// learned frontier and the ingress counter jump past it. Whatever this member
// still holds below the floor is dropped — a restarted member stamps from
// slot 0 — and the requests stamped there and not known learned are
// forgotten like a displaced value's (place), so their clients' retries
// restamp at fresh slots.
func (c *Coordinator) onFloor(floor uint64) {
	lo := (floor + c.stride() - 1 - uint64(c.shard)) / c.stride() // first seq at or above floor
	if lo <= c.lo {
		return
	}
	for k, at := range c.byReq {
		if at < floor && !c.isLearned(at) {
			delete(c.byReq, k)
			c.restamped++
		}
	}
	maps.DeleteFunc(c.learned, func(inst uint64, _ bool) bool { return inst < floor })
	maps.DeleteFunc(c.sent, func(inst uint64, _ bool) bool { return inst < floor })
	maps.DeleteFunc(c.proposals, func(inst uint64, _ cstruct.Cmd) bool { return inst < floor })
	maps.DeleteFunc(c.widths, func(inst uint64, _ int) bool { return inst < floor })
	c.unsent = slices.DeleteFunc(c.unsent, func(inst uint64) bool { return inst < floor })
	c.lo = lo
	c.ingressNext = max(c.ingressNext, lo)
	c.advance()
}

// isLearned reports whether an owned instance is known decided.
func (c *Coordinator) isLearned(inst uint64) bool {
	return inst/c.stride() < c.lo || c.learned[inst]
}

// forward puts an assigned instance's 2a on the wire: a retransmission if it
// is already in flight in this round, a first send within the window
// otherwise.
func (c *Coordinator) forward(inst uint64) {
	if c.leading && c.sent[inst] {
		c.send2a(inst, c.proposals[inst])
		c.armRetry()
		return
	}
	c.trySend(inst)
}

// trySend forwards an assigned instance's 2a if the member is leading and
// the window has room; otherwise the instance queues until a learn frees a
// slot (or until the next round establishment sweeps it).
func (c *Coordinator) trySend(inst uint64) {
	if !c.leading || c.sent[inst] || c.isLearned(inst) {
		return
	}
	if c.windowFull() {
		c.unsent = append(c.unsent, inst)
		return
	}
	c.sent[inst] = true
	c.send2a(inst, c.proposals[inst])
	c.armRetry()
}

// windowFull reports whether the pipeline window has no free slot.
func (c *Coordinator) windowFull() bool {
	return c.MaxInflight > 0 && len(c.sent) >= c.MaxInflight
}

// drainUnsent forwards queued assignments while the window has room.
func (c *Coordinator) drainUnsent() {
	for len(c.unsent) > 0 && !c.windowFull() {
		inst := c.unsent[0]
		c.unsent = c.unsent[1:]
		c.trySend(inst)
	}
}

func (c *Coordinator) send2a(inst uint64, cmd cstruct.Cmd) {
	node.Broadcast(c.env, c.cfg.Acceptors, msg.P2a{
		Inst: inst, Rnd: c.crnd, Coord: c.env.ID(), Val: wrap(cmd),
	})
}
