package classic

import (
	"cmp"
	"maps"
	"slices"

	"mcpaxos/internal/batch"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
)

// reqTrackMax bounds the ingress idempotency map: past this size, entries
// whose instance is already learned are swept out. A learned entry only
// served to suppress late duplicate stamps; once evicted, a very late client
// retry restamps the command at a fresh instance, which replicas dedup by
// command ID at apply time — wasteful but safe.
const reqTrackMax = 4096

// relayMax bounds the submissions a member remembers having relayed to the
// shard's stamper. Each is dropped the moment its stamp is seen, so the set
// only fills when the stamper has stopped confirming — and a member that
// fills it takes the stamping over instead of relaying blind.
const relayMax = 1024

// skipMax bounds the slots one burst's skip may claim: the high-water mark
// comes off the wire, and a shard that fell further behind than this catches
// up over several bursts instead of stamping an unbounded run in one step.
const skipMax = 1024

// relayedReq is one submission passed on to the shard's stamper, kept with
// its body until somebody's stamp for it is seen: if none is, this member
// stamps it itself.
type relayedReq struct {
	cmd cstruct.Cmd
	n   uint64 // arrival order, the order a takeover stamps in
	at  int64  // env time it was relayed
}

// onIngress handles an unsequenced client submission: the server side of
// sequence assignment. Its command ID (CmdID) is the request's idempotency
// key. A request seen before maps to its recorded slot (the 2a is refreshed
// and the stamp re-shared, covering lost messages); a fresh request buffers
// in the ingress batch and is stamped on flush.
func (c *Coordinator) onIngress(cmd cstruct.Cmd) {
	if IsNoop(cmd) || cmd.Key == batch.Key {
		// The reserved keys are the protocol's own vocabulary, and a
		// submission comes from outside the process: stamping one would let
		// a client forge a fill, or pack commands under other clients' IDs.
		return
	}
	if inst, ok := c.byReq[cmd.ID]; ok {
		// Learned instances need nothing from the ingress: the client's
		// replay probes re-elicit the reply from the learners' caches.
		if !c.isLearned(inst) {
			c.forward(inst)
			// Re-share the stamp: the retry may mean the original share was
			// lost, leaving peers without the assignment.
			c.shareStamp(inst, c.proposals[inst])
		}
		return
	}
	if c.bufd[cmd.ID] {
		// A retry of a command still buffered: the client has waited out its
		// retry interval, so the batch has sat too long — flush it now. This
		// is the liveness backstop when no flush timer runs (IngressBatchWait
		// = 0 with a partial tail, or a lost timer tick).
		c.ing.Flush()
		return
	}
	if _, again := c.relayed[cmd.ID]; again {
		// Relayed before and here again: the client retried, or the relay came
		// back round a cycle of members each believing another is the stamper
		// (a cycle passes through at most c members, so it ends at the first
		// one it reaches twice). Either way nobody stamped it.
		c.takeOver()
		return
	}
	if c.stamper != 0 && c.stamper != c.env.ID() {
		if len(c.relayed) < relayMax {
			c.relay(cmd)
			return
		}
		c.takeOver()
	}
	c.buffer(cmd)
}

// buffer adds one fresh submission to the open ingress batch.
func (c *Coordinator) buffer(cmd cstruct.Cmd) {
	c.bufd[cmd.ID] = true
	if c.ing == nil {
		c.ing = batch.NewBatcher(c.IngressBatchMax, c.IngressBatchWait, c.env.Now, c.stampFlush)
	}
	c.ing.Add(cmd)
}

// OnIdle implements node.IdleHandler: the end of a delivery burst is the
// batch boundary. Slots the merge already waits on are claimed first, then
// whatever the burst buffered is stamped now if that is due, and whatever
// stays buffered has its flush timer armed.
func (c *Coordinator) OnIdle() {
	c.skipBelowHi()
	c.stampIfDue()
	c.armIngress()
}

// skipBelowHi is the Mencius skip. The merged order cannot deliver past this
// shard's first unclaimed slot, so a stamper whose free slot lies below hi —
// the other shards have learned that far — claims every slot of its own up
// to it now: its buffered submissions first, one a slot, then the canonical
// no-op. Each slot is an ordinary stamp, shared with the group, so a skip
// cannot collide with a concurrent real one. Only the stamper skips (the
// round's first member while nobody has stamped), and only into room in its
// window: a claim queued behind the window would hold stampIfDue up, and the
// learn that frees a slot ends a burst that resumes the claim. It starts at
// freeSlot, never below the ingress counter (a dead stamper's orphans stay
// onFill's job), and takes at most skipMax slots a burst. With one shard hi
// never passes the free slot, and nothing is claimed.
func (c *Coordinator) skipBelowHi() {
	if !c.leading || len(c.unsent) > 0 || !c.stamps() {
		return
	}
	for n := 0; n < skipMax && !c.windowFull(); n++ {
		at := c.freeSlot()
		if at >= c.hi {
			return
		}
		if c.ing != nil && c.ing.Pending() > 0 {
			cmd := c.ing.Pop()
			delete(c.bufd, cmd.ID)
			c.stampAt(at, cmd, []cstruct.Cmd{cmd})
			continue
		}
		c.stampAt(at, Noop(at), nil)
		c.filled++
	}
}

// stampIfDue stamps whatever the ingress batcher holds when batching cannot
// pay for itself: this member leads with nothing queued behind the window, and
// either nothing is in flight, or the window has room and fewer than
// IngressBatchMax commands are outstanding here. Below a batch's worth of
// demand a command goes at once; from a batch's worth up the pipeline is the
// batch clock — commands batch while instances are in flight, and a partial
// batch waits for size, the learn that empties the pipeline or the
// IngressBatchWait timer, whichever comes first.
func (c *Coordinator) stampIfDue() {
	if c.ing == nil || c.ing.Pending() == 0 || !c.leading || len(c.unsent) > 0 {
		return
	}
	if len(c.sent) == 0 || (!c.windowFull() && c.outstanding() < c.IngressBatchMax) {
		c.ing.Flush()
	}
}

// outstanding counts the commands this member holds unlearned, up to
// IngressBatchMax: those buffered, and those in flight — an instance it
// stamped counts its commands, one known from a peer's share counts one.
func (c *Coordinator) outstanding() int {
	n := c.ing.Pending()
	for inst := range c.sent {
		if n >= c.IngressBatchMax {
			break
		}
		n += max(c.widths[inst], 1)
	}
	return n
}

// stampFlush binds one flushed ingress batch (or lone command) to the next
// free sequence slot; cmds are the submissions it carries.
func (c *Coordinator) stampFlush(cmd cstruct.Cmd, cmds []cstruct.Cmd) {
	for _, cc := range cmds {
		delete(c.bufd, cc.ID)
	}
	c.stampAt(c.freeSlot(), cmd, cmds)
}

// claim advances the ingress counter past sequence number seq, which some
// stamp has taken, and reports whether seq was fresh: at or above the counter.
func (c *Coordinator) claim(seq uint64) bool {
	if seq < c.ingressNext {
		return false
	}
	c.ingressNext = seq + 1
	return true
}

// freeSlot advances the ingress counter past slots another stamper already
// claimed (observed via stamp shares or 2as after a failover overlap) and
// returns the instance of the first free one, still unclaimed.
func (c *Coordinator) freeSlot() uint64 {
	for {
		inst := c.seqInst(c.ingressNext)
		if _, occ := c.proposals[inst]; !occ && !c.isLearned(inst) {
			return inst
		}
		c.ingressNext++
	}
}

// stampAt claims the free slot freeSlot returned for cmd and launches it:
// record the assignment, forward the 2a within the window, and share the
// stamped proposal with the group so every member keeps assigning identical
// instances. cmds are the submissions cmd carries (none for a skip's no-op).
func (c *Coordinator) stampAt(inst uint64, cmd cstruct.Cmd, cmds []cstruct.Cmd) {
	c.claim(inst / c.stride())
	c.stamped++
	c.stamper = c.env.ID()
	if len(cmds) > 1 {
		c.widths[inst] = len(cmds)
	}
	// The submissions are in hand: indexing through bind would decode the
	// batch packed a line ago to recover the same command IDs.
	c.place(inst, cmd)
	for _, cc := range cmds {
		c.recordReq(cc.ID, inst)
	}
	c.trySend(inst)
	c.shareStamp(inst, cmd)
}

// shareStamp replicates a stamped proposal to the other members of the
// current round's group (nobody at c = 1). A peer indexes the command IDs the
// value carries as it binds it (indexValue), so a client failing over to it
// maps to the same slot.
func (c *Coordinator) shareStamp(inst uint64, cmd cstruct.Cmd) {
	m := msg.Propose{Cmd: cmd, Seq: inst / c.stride(), HasSeq: true}
	for _, id := range c.cfg.RoundGroup(c.shard, c.crnd) {
		if id != c.env.ID() {
			c.env.Send(id, m)
		}
	}
}

// recordReq remembers the slot the request with command ID id was stamped
// into, sweeping learned entries once the map outgrows reqTrackMax.
func (c *Coordinator) recordReq(id, inst uint64) {
	if len(c.byReq) >= reqTrackMax {
		for k, at := range c.byReq {
			if c.isLearned(at) {
				delete(c.byReq, k)
			}
		}
	}
	c.byReq[id] = inst
	delete(c.relayed, id)
}

// indexValue records the client command IDs (CmdID) a value's constituents
// (batch or lone command) carry, so retried submissions map to the slot no
// matter which group member they reach: without this a client retry after a
// failover would be restamped at a wasted second slot.
func (c *Coordinator) indexValue(inst uint64, val cstruct.Cmd) {
	inner, isBatch := batch.UnpackMeta(val)
	if !isBatch {
		inner = []cstruct.Cmd{val}
	}
	for _, cc := range inner {
		if client, _ := SplitCmdID(cc.ID); client != 0 {
			c.recordReq(cc.ID, inst)
		}
	}
}

// armIngress schedules the time-triggered flush of a partial ingress batch
// for the batch's own deadline: a timer left pending by a batch that flushed
// early (by size, or by stampIfDue) fires on a younger batch, and
// re-arming a full IngressBatchWait from then would hold that batch up to
// twice the bound.
func (c *Coordinator) armIngress() {
	if c.ingArmed || c.ing == nil {
		return
	}
	if at, ok := c.ing.Deadline(); ok {
		c.ingArmed = true
		c.env.SetTimer(at-c.env.Now(), timerIngress)
	}
}

// relay passes a fresh submission's command on, unchanged, to the member
// believed to be stamping, and remembers it until that member's stamp share
// (or anybody's) shows it stamped.
func (c *Coordinator) relay(cmd cstruct.Cmd) {
	c.relayN++
	c.relayed[cmd.ID] = relayedReq{cmd: cmd, n: c.relayN, at: c.env.Now()}
	c.env.Send(c.stamper, msg.Propose{Cmd: cmd})
	c.armRelay()
}

// follow notes a fresh stamp share from a group peer: that peer is stamping,
// so this member is not — whatever it has buffered unstamped goes to the peer
// too. Stamping it here would make this member's next share the fresh one and
// the two would trade places for as long as both receive submissions.
func (c *Coordinator) follow(from msg.NodeID) {
	if from == c.stamper || from == c.env.ID() || !c.cfg.InRoundGroup(c.shard, c.crnd, from) {
		return // includes a proposer's pre-stamped stream, which names no stamper
	}
	c.stamper = from
	if c.ing == nil {
		return
	}
	for _, cmd := range c.ing.Drain() {
		delete(c.bufd, cmd.ID)
		c.relay(cmd)
	}
}

// takeOver makes this member the shard's stamper and stamps everything it
// relayed that nobody has stamped since, in the order it arrived.
func (c *Coordinator) takeOver() {
	c.stamper = c.env.ID()
	for _, id := range slices.SortedFunc(maps.Keys(c.relayed), func(a, b uint64) int {
		return cmp.Compare(c.relayed[a].n, c.relayed[b].n)
	}) {
		c.buffer(c.relayed[id].cmd)
	}
	clear(c.relayed)
}

// relayWait is how long a relayed submission may go unstamped before this
// member stamps it itself: half its own retransmission interval, which hosts
// set well above a round trip. It is what keeps relaying live when the
// stamper dies with no evidence (a partition, a silent host): the outage then
// costs this one wait, not a client retry interval per command.
func (c *Coordinator) relayWait() int64 { return max(c.RetryEvery/2, 1) }

// armRelay schedules the relay check for the oldest remembered relay's
// deadline. Without retransmission (RetryEvery = 0) there are no timers, and
// evidence or a second receipt are the takeover triggers left.
func (c *Coordinator) armRelay() {
	if c.relayArmed || c.RetryEvery <= 0 || len(c.relayed) == 0 {
		return
	}
	c.relayArmed = true
	c.env.SetTimer(c.oldestRelay()+c.relayWait()-c.env.Now(), timerRelay)
}

// oldestRelay is the env time of the longest-waiting remembered relay.
func (c *Coordinator) oldestRelay() int64 {
	oldest := c.env.Now()
	for _, r := range c.relayed {
		oldest = min(oldest, r.at)
	}
	return oldest
}

// stamps reports whether this member is the shard's stamper: by its own
// belief, or as the first member of the round's group while it has seen
// nobody stamp.
func (c *Coordinator) stamps() bool {
	if c.stamper != 0 {
		return c.stamper == c.env.ID()
	}
	return c.cfg.RoundGroup(c.shard, c.crnd)[0] == c.env.ID()
}

// onFill makes a stalled instance decidable on a learner's request: a known
// proposal is retransmitted (covering a stamp whose 2as were all lost), an
// unknown one is taken by the canonical no-op so a sequence slot orphaned by
// a crashed stamper — or never reached because the shard went idle while
// its peers advanced — cannot stall the merged order. Members that disagree
// (one holds the real proposal, another fills no-op) converge on one value:
// the holder re-shares the assignment on every Fill, and converge() prefers
// the real value over the no-op, so the split cannot outlive a watch period.
// A client command that loses its slot to a fill is restamped on retry.
func (c *Coordinator) onFill(mm msg.Fill) {
	if mm.Idle {
		// The skip hint is a high-water mark like an ack's: skipBelowHi
		// answers it at the end of the burst.
		c.hi = max(c.hi, mm.Inst+1)
		return
	}
	if !c.owns(mm.Inst) || c.isLearned(mm.Inst) {
		return
	}
	if cmd, ok := c.proposals[mm.Inst]; ok {
		// Re-share the assignment first: a peer that missed the original
		// stamp share would otherwise answer this same Fill with a no-op and
		// the two values would collide at the acceptors.
		c.shareStamp(mm.Inst, cmd)
		c.forward(mm.Inst)
		return
	}
	// Fill every local hole from the stalled instance through this member's
	// frontier, not just the one: a crashed stamper may have orphaned many
	// slots — or an idle shard never claimed the slots its peers' progress
	// made the merged order wait on — and draining them one learner watch
	// period at a time would crawl.
	end := max(c.nextInst, mm.Inst+c.stride())
	for inst := mm.Inst; inst < end; inst += c.stride() {
		if _, ok := c.proposals[inst]; ok || c.isLearned(inst) {
			continue
		}
		c.claim(inst / c.stride())
		c.bind(inst, Noop(inst))
		c.filled++
		c.trySend(inst)
	}
}
