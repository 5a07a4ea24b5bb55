package classic

import (
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/storage"
)

// outbound is one message an acceptor sent during a burst, held until the
// burst's votes are durable.
type outbound struct {
	to msg.NodeID
	m  msg.Message
}

// accept casts the vote, stages its record for the burst's write and
// announces it to every learner — marked Again when it replaces an earlier
// round's vote: the instance may have been learned back then, and the
// coordinators re-forwarding it now are waiting for an ack no unmarked 2b
// would draw.
func (a *Acceptor) accept(inst uint64, v vote, again bool) {
	a.votes[inst] = v
	// The completed tally's job is done. Dropping it bounds acceptor memory
	// at the in-flight instances instead of every instance ever decided.
	delete(a.tallies, inst)
	a.maxInst = max(a.maxInst, inst)
	a.staged[voteKey(inst)] = storage.VoteRec{Inst: inst, VRnd: v.vrnd, Cmds: []cstruct.Cmd{v.vval}}
	// The high-water mark rides along in the same write for recovery scans.
	a.staged[storage.KeyMaxInst] = a.maxInst
	a.announce(inst, v, again)
}

// announce sends the vote's 2b to every learner; again marks it as drawn by a
// 2a for an instance this acceptor had already voted in (msg.P2b.Again).
func (a *Acceptor) announce(inst uint64, v vote, again bool) {
	for _, l := range a.cfg.Learners {
		a.send(l, msg.P2b{Inst: inst, Rnd: v.vrnd, Acc: a.env.ID(), Val: wrap(v.vval), Again: again})
	}
}

// send is how the acceptor sends anything: m waits for the end of the burst.
func (a *Acceptor) send(to msg.NodeID, m msg.Message) {
	a.held = append(a.held, outbound{to, m})
}

// OnIdle implements node.IdleHandler: the burst's votes hit stable storage in
// one synchronous write, and only once it returns does anything the burst sent
// leave. A message that reports a vote — its 2b, a 1b, a catch-up
// re-announcement — so never precedes the vote's record (Section 4.4), and a
// burst of k accepts costs one write instead of k.
func (a *Acceptor) OnIdle() {
	if len(a.staged) > 0 {
		a.disk.PutAll(a.staged)
		clear(a.staged)
	}
	for i, o := range a.held {
		a.env.Send(o.to, o.m)
		a.held[i] = outbound{}
	}
	a.held = a.held[:0]
}
