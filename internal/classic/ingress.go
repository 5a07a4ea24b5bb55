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

// skipMax bounds the slots one skip hint may claim: the trip count comes off
// the wire, and a shard that fell further behind than this catches up over
// several hints instead of stamping an unbounded run of no-ops in one step.
const skipMax = 1024

// reqKey is the ingress idempotency key: the issuing client and its
// per-client request counter, carried by unsequenced proposals.
type reqKey struct {
	client msg.NodeID
	req    uint64
}

// relayedReq is one submission passed on to the shard's stamper, kept with
// its body until somebody's stamp for it is seen: if none is, this member
// stamps it itself.
type relayedReq struct {
	cmd cstruct.Cmd
	n   uint64 // arrival order, the order a takeover stamps in
	at  int64  // env time it was relayed
}

// onIngress handles an unsequenced client submission: the server side of
// sequence assignment. A request seen before maps to its recorded slot (the
// 2a is refreshed and the stamp re-shared, covering lost messages); a fresh
// request buffers in the ingress batch and is stamped on flush.
func (c *Coordinator) onIngress(mm msg.Propose) {
	k := reqKey{mm.Client, mm.Req}
	if inst, ok := c.byReq[k]; ok {
		// Learned instances need nothing from the ingress: the client's
		// replay probes re-elicit the reply from the learners' caches.
		if !c.isLearned(inst) {
			c.forward(inst)
			// Re-share the stamp: the retry may mean the original share was
			// lost, leaving peers without the assignment.
			c.shareStamp(inst, c.proposals[inst], mm.Client, mm.Req)
		}
		return
	}
	if c.bufd[k] {
		// A retry of a command still buffered: the client has waited out its
		// retry interval, so the batch has sat too long — flush it now. This
		// is the liveness backstop when no flush timer runs (size-only
		// batching with a partial tail, or a lost timer tick).
		c.ing.Flush()
		return
	}
	if _, again := c.relayed[k]; again {
		// Relayed before and here again: the client retried, or the relay came
		// back round a cycle of members each believing another is the stamper
		// (a cycle passes through at most c members, so it ends at the first
		// one it reaches twice). Either way nobody stamped it.
		c.takeOver()
		return
	}
	if c.stamper != 0 && c.stamper != c.env.ID() {
		if len(c.relayed) < relayMax {
			c.relay(k, mm)
			return
		}
		c.takeOver()
	}
	c.buffer(k, mm.Cmd)
}

// buffer adds one fresh submission to the open ingress batch.
func (c *Coordinator) buffer(k reqKey, cmd cstruct.Cmd) {
	c.bufd[k] = true
	c.bufKeys = append(c.bufKeys, k)
	if c.ing == nil {
		c.ing = batch.NewBatcher(c.IngressBatchMax, c.IngressBatchWait, c.env.Now, c.stampFlush)
	}
	c.ing.Add(cmd)
}

// OnIdle implements node.IdleHandler: the end of a delivery burst is the
// batch boundary. Whatever the burst buffered is stamped now if that is due,
// and whatever stays buffered has its flush timer armed.
func (c *Coordinator) OnIdle() {
	c.stampIfDue()
	c.armIngress()
}

// stampIfDue stamps whatever the ingress batcher holds when batching cannot
// pay for itself: this member leads with nothing queued behind the window, and
// either nothing is in flight, or the window has room and fewer than
// IngressBatchMax commands are outstanding here. Below a batch's worth of
// demand a command goes at once; from a batch's worth up the pipeline is the
// batch clock — commands batch while instances are in flight, and a partial
// batch waits for size, the learn that empties the pipeline or the
// IngressBatchWait timer, whichever comes first. Size-only batching
// (IngressBatchWait = 0) is never cut short: hosts choose it for
// deterministic batch boundaries.
func (c *Coordinator) stampIfDue() {
	if c.ing == nil || c.ing.Pending() == 0 || !c.leading || len(c.unsent) > 0 || c.IngressBatchWait <= 0 {
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
// free sequence slot.
func (c *Coordinator) stampFlush(cmd cstruct.Cmd) {
	keys := c.bufKeys
	c.bufKeys = nil
	for _, k := range keys {
		delete(c.bufd, k)
	}
	c.stampAt(c.freeSlot(), cmd, keys)
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
// instances. keys are the requests cmd carries (none for a skip's no-op).
func (c *Coordinator) stampAt(inst uint64, cmd cstruct.Cmd, keys []reqKey) {
	c.claim(inst / c.stride())
	c.stamped++
	c.stamper = c.env.ID()
	if len(keys) > 1 {
		c.widths[inst] = len(keys)
	}
	// The keys are in hand: indexing through bind would decode the batch
	// packed a line ago to recover the same (client, req) pairs.
	c.place(inst, cmd)
	for _, k := range keys {
		c.recordReq(k, inst)
	}
	c.trySend(inst)
	var client msg.NodeID
	var req uint64
	if len(keys) == 1 {
		// A lone command keeps its request key on the share, so peers learn
		// the idempotent mapping too. Batch shares go untagged: peers absorb
		// failover retries of their constituents by restamping (replicas
		// dedup by command ID at apply time).
		client, req = keys[0].client, keys[0].req
	}
	c.shareStamp(inst, cmd, client, req)
}

// shareStamp replicates a stamped proposal to the other members of the
// current round's group (nobody at c = 1).
func (c *Coordinator) shareStamp(inst uint64, cmd cstruct.Cmd, client msg.NodeID, req uint64) {
	m := msg.Propose{Cmd: cmd, Seq: inst / c.stride(), HasSeq: true, Client: client, Req: req}
	for _, id := range c.cfg.RoundGroup(c.shard, c.crnd) {
		if id != c.env.ID() {
			c.env.Send(id, m)
		}
	}
}

// recordReq remembers the slot a request key was stamped into, sweeping
// learned entries once the map outgrows reqTrackMax.
func (c *Coordinator) recordReq(k reqKey, inst uint64) {
	if len(c.byReq) >= reqTrackMax {
		for kk, at := range c.byReq {
			if c.isLearned(at) {
				delete(c.byReq, kk)
			}
		}
	}
	c.byReq[k] = inst
	delete(c.relayed, k)
}

// indexValue records the ingress idempotency keys a stamped value's
// constituents (batch or lone command) carry in their command IDs (CmdID),
// so retried submissions map to the slot no matter which group member they
// reach — a peer's batch share goes untagged on the wire, and without this a
// client retry after a failover would be restamped at a wasted second slot.
func (c *Coordinator) indexValue(inst uint64, val cstruct.Cmd) {
	inner, isBatch := batch.UnpackMeta(val)
	if !isBatch {
		inner = []cstruct.Cmd{val}
	}
	for _, cc := range inner {
		if client, req := SplitCmdID(cc.ID); client != 0 {
			c.recordReq(reqKey{client, req}, inst)
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

// relay passes a fresh submission on, unchanged, to the member believed to be
// stamping, and remembers it until that member's stamp share (or anybody's)
// shows it stamped.
func (c *Coordinator) relay(k reqKey, mm msg.Propose) {
	c.relayN++
	c.relayed[k] = relayedReq{cmd: mm.Cmd, n: c.relayN, at: c.env.Now()}
	c.env.Send(c.stamper, mm)
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
	keys := c.bufKeys
	c.bufKeys = nil
	for i, cmd := range c.ing.Drain() {
		delete(c.bufd, keys[i])
		c.relay(keys[i], msg.Propose{Cmd: cmd, Client: keys[i].client, Req: keys[i].req})
	}
}

// takeOver makes this member the shard's stamper and stamps everything it
// relayed that nobody has stamped since, in the order it arrived.
func (c *Coordinator) takeOver() {
	c.stamper = c.env.ID()
	for _, k := range slices.SortedFunc(maps.Keys(c.relayed), func(a, b reqKey) int {
		return cmp.Compare(c.relayed[a].n, c.relayed[b].n)
	}) {
		c.buffer(k, c.relayed[k].cmd)
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
		c.skipThrough(mm.Inst)
		return
	}
	if !c.owns(mm.Inst) || c.isLearned(mm.Inst) {
		return
	}
	if cmd, ok := c.proposals[mm.Inst]; ok {
		// Re-share the assignment first: a peer that missed the original
		// stamp share would otherwise answer this same Fill with a no-op and
		// the two values would collide at the acceptors.
		c.shareStamp(mm.Inst, cmd, 0, 0)
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

// skipThrough answers a learner's skip hint (msg.Fill with Idle set): the
// shard has consumed fewer slots than its peers and the merged order waits on
// slots nobody has claimed. Only the shard's stamper answers — the round's
// first member while nobody has stamped — by flushing what it has buffered
// and then stamping every still-unclaimed slot through inst with the
// canonical no-op. A skip is a stamp, shared with the group like any other,
// so it cannot collide with a concurrent real one; it never touches a slot
// below the ingress counter (a dead stamper's orphans stay onFill's job), and
// a second learner's hint finds nothing left to do.
func (c *Coordinator) skipThrough(inst uint64) {
	if !c.leading || !c.owns(inst) || !c.stamps() {
		return
	}
	if c.ing != nil {
		c.ing.Flush()
	}
	for n := 0; n < skipMax; n++ {
		at := c.freeSlot()
		if at > inst {
			return
		}
		c.stampAt(at, Noop(at), nil)
		c.filled++
	}
}
