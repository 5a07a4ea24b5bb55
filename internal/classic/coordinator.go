package classic

import (
	"cmp"
	"maps"
	"slices"

	"mcpaxos/internal/ballot"
	"mcpaxos/internal/batch"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/node"
)

// Timer tags used by the coordinator.
const (
	timerRetry = 1
	// timerIngress drives the time-triggered flush of the ingress batcher.
	timerIngress = 2
	// timerRelay bounds how long a relayed submission waits for its stamp.
	timerRelay = 3
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

// Coordinator is one member of the coordinator groups serving its shard's
// rounds (Section 4.1 applied per shard; the group of a round is
// Config.RoundGroup). Every member independently forwards the shard's
// sequence-numbered proposal stream as 2a messages for deterministically
// identical instances (instance = Seq·N + shard), and acceptors accept only
// on a coordinator quorum of matching 2as — so ⌊c/2⌋ member crashes mask
// without a round change. Any coordinator of the shard may start a round
// (1a); acceptors send their promise to the round's whole group and each
// member completes phase 1 independently, the group analogue of Phase2Start.
// At c = 1 the group is the round's owner alone — the Classic Paxos leader:
// at most one coordinator should start rounds at a time for liveness; safety
// holds regardless (Section 2.1.2).
//
// Coordinators keep no stable state: a recovered coordinator repairs its
// round state from the acceptors or starts a fresh, higher round (Section
// 4.4). State is bounded by the open window: everything about an instance is
// dropped once the shard's contiguous learned frontier passes it.
type Coordinator struct {
	env node.Env
	cfg Config

	crnd    ballot.Ballot
	leading bool // phase 1 completed for crnd
	// p1bs buffers promises per candidate round: the own round's, and those
	// started by group peers (or by an acceptor's collision promotion).
	p1bs map[ballot.Ballot]map[msg.NodeID]msg.P1bMulti

	// nextInst is one past the highest instance assigned so far.
	nextInst uint64
	// proposals holds the value bound to every assigned instance at or above
	// the learned frontier: what this member forwards (or will forward) as 2a.
	proposals map[uint64]cstruct.Cmd

	// MaxInflight > 0 bounds how many forwarded instances may be unlearned at
	// once (the pipeline window, Paxos' alpha): assignments beyond it queue in
	// unsent and drain as instances are learned. 0 leaves the pipeline
	// unbounded.
	MaxInflight int

	// Shard is the residue class this coordinator sequences in a sharded
	// deployment (cfg.Shards > 1): it only forwards instances ≡ Shard (mod
	// cfg.NShards()) and its phase 1 claims only those instances. Set it
	// before the first round; unsharded deployments leave it 0.
	Shard int

	// RetryEvery > 0 enables periodic retransmission of unlearned 2a
	// messages and of the current 1a while phase 1 is incomplete.
	RetryEvery int64

	// lo is the shard's contiguous learned frontier as a sequence number:
	// every owned instance below seqInst(lo) is learned and forgotten.
	// learned holds the instances learned out of order above it.
	lo      uint64
	learned map[uint64]bool
	// sent is the open window: instances whose 2a went out in crnd and that
	// are not yet learned — exactly what retransmission re-sends.
	sent   map[uint64]bool
	unsent []uint64 // assigned instances awaiting a window slot
	// attempt is the highest round this member sent a 1a for; it damps the
	// stale-chase so one rejection wave yields one new round.
	attempt ballot.Ballot

	// everLed marks that some round has been established; roundChanges then
	// counts every later establishment — the currency of the crash-masking
	// claim (a masked coordinator crash costs zero round changes).
	everLed      bool
	roundChanges int

	// repairing marks a restarted group member probing the acceptors for the
	// shard's live round (Repair): Stale rejections are adopted exactly
	// instead of outbid, so rejoining costs zero round changes.
	repairing bool
	// repairTarget is the highest live round learned from Stale rejections
	// while repairing.
	repairTarget ballot.Ballot

	// --- server-side ingress sequencing ---
	// Clients submit unsequenced proposals tagged (Client, Req); whichever
	// group member they reach stamps the next free per-shard Seq and shares
	// the stamped proposal with its peers, so the group keeps assigning
	// identical instances without the client owning the sequence stream.

	// IngressBatchMax/IngressBatchWait configure the per-shard ingress
	// batcher: client submissions buffer at the stamping member and are
	// packed into one batch command per sequence slot, so stamping does not
	// serialize the hot path. Max < 2 stamps every submission individually.
	// Wait is the upper bound a buffered command waits for company, not a
	// fixed price: the pipeline is the batch clock, and a member with nothing
	// in flight stamps what it holds at once (see stampIfQuiet). 0 flushes on
	// size only, with no early stamp either.
	IngressBatchMax  int
	IngressBatchWait int64
	// FillCmd, when set, constructs the canonical no-op for an instance the
	// group is asked to fill (msg.Fill): every member derives the identical
	// command, so a fill cannot collide with a concurrent fill. Nil
	// disables filling.
	FillCmd func(inst uint64) cstruct.Cmd
	// ReqOf, when set, derives the ingress idempotency key a command's ID
	// carries implicitly (hosts with a structured command-ID scheme). It
	// lets a member index the constituents of a peer's batch stamp share —
	// which goes untagged on the wire — so a client retry arriving after a
	// failover maps to the already-stamped slot instead of restamping the
	// command at a wasted second instance.
	ReqOf func(cmd cstruct.Cmd) (client msg.NodeID, req uint64, ok bool)

	// stamper is the member this one believes is stamping the shard's ingress:
	// itself after a stamp of its own, otherwise the peer whose fresh stamp
	// share it saw last; zero while it has seen neither, when it stamps what
	// it is sent (a restarted member starts from a guess instead, see Repair).
	// One stamper at a time is what keeps concurrent submissions
	// from colliding over sequence slots, and clients do not agree on a member
	// — each prefers whichever answered it last — so a member that is not the
	// stamper relays a fresh submission there instead of stamping it (relay).
	// The belief is only a hint, like the evidence that moves it: wrong, it
	// costs a collision or a wait, never safety.
	stamper msg.NodeID
	// relayed holds what this member passed on and has not yet seen stamped
	// (recordReq drops an entry). It is what makes relaying live: everything
	// in it is stamped here once the stamper is reported down, once an entry
	// has waited relayWait, or once a request arrives a second time.
	relayed    map[reqKey]relayedReq
	relayN     uint64
	relayArmed bool
	// retryArmed marks a pending timerRetry: one timer serves the whole open
	// window, however many sends arm it.
	retryArmed bool

	// ingressNext is the next unassigned per-shard sequence number; every
	// observed stamp (local or shared by a peer) advances it, so a failover
	// stamper resumes the counter instead of colliding with past slots.
	ingressNext uint64
	// byReq maps a client request to the instance its command was stamped
	// into. An entry always names the slot's current value: a stamp displaced
	// by a collision or a gap fill forgets its requests (bind), so the
	// client's retry is restamped at a fresh slot.
	byReq    map[reqKey]uint64
	ing      *batch.Batcher
	ingArmed bool
	// bufKeys/bufd track the (client, req) keys buffered in the open
	// ingress batch, in arrival order, so the flush can bind them all to
	// the stamped instance (and retries of buffered commands are absorbed).
	bufKeys []reqKey
	bufd    map[reqKey]bool

	stamped   uint64 // sequence slots stamped at this member's ingress
	restamped uint64 // client requests that lost their stamped slot
	filled    uint64 // no-op fills adopted for stalled instances
}

var _ node.Handler = (*Coordinator)(nil)
var _ node.TimerHandler = (*Coordinator)(nil)

// NewCoordinator builds a coordinator bound to env.
func NewCoordinator(env node.Env, cfg Config) *Coordinator {
	return &Coordinator{
		env:       env,
		cfg:       cfg,
		p1bs:      make(map[ballot.Ballot]map[msg.NodeID]msg.P1bMulti),
		proposals: make(map[uint64]cstruct.Cmd),
		learned:   make(map[uint64]bool),
		sent:      make(map[uint64]bool),
		byReq:     make(map[reqKey]uint64),
		bufd:      make(map[reqKey]bool),
		relayed:   make(map[reqKey]relayedReq),
	}
}

// Leading reports whether phase 1 has completed for the current round.
func (c *Coordinator) Leading() bool { return c.leading }

// Rnd returns the coordinator's current round.
func (c *Coordinator) Rnd() ballot.Ballot { return c.crnd }

// RoundChanges counts round establishments after the first: a crash-free
// drain reports 0 even when a member of a c ≥ 3 group died.
func (c *Coordinator) RoundChanges() int { return c.roundChanges }

// BecomeLeader starts phase 1 of a round higher than any this coordinator
// has seen (action Phase1a). The round is served by its whole group — this
// coordinator alone at c = 1, which is how a standby takes a shard over.
func (c *Coordinator) BecomeLeader() {
	c.startRound(ballot.SingleScheme{}.Next(ballot.Max(c.crnd, c.attempt), uint32(c.env.ID())))
}

// StepDown makes the coordinator stop forwarding: it keeps recording the
// proposal stream but sends no 2a until a round is established again.
func (c *Coordinator) StepDown() { c.leading = false }

// BecomeLeaderAt starts phase 1 at the given incarnation; used after
// recovery to dominate pre-crash rounds.
func (c *Coordinator) BecomeLeaderAt(mcount uint32) {
	c.startRound(ballot.SingleScheme{}.First(mcount, uint32(c.env.ID())))
}

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
	if c.leading || !c.cfg.InRoundGroup(c.Shard, c.crnd, c.env.ID()) {
		return
	}
	c.repairing = true
	// Whoever stamped while this member was down still does, and its next
	// share may arrive after the first client does: guess the next member of
	// the group rather than stamp beside it. A wrong guess costs one relay
	// hop; the stamper's share or takeOver's triggers correct it.
	if g := c.cfg.RoundGroup(c.Shard, c.crnd); len(g) > 1 {
		c.stamper = g[(slices.Index(g, c.env.ID())+1)%len(g)]
	}
	c.probe()
	c.armRetry()
}

// probe re-sends the repair 1a at the best-known live round.
func (c *Coordinator) probe() {
	r := c.repairTarget
	if r.IsZero() {
		r = ballot.Max(c.crnd, c.attempt)
	}
	node.Broadcast(c.env, c.cfg.Acceptors, msg.P1a{
		Rnd: r, Coord: c.env.ID(), Shard: uint32(c.Shard),
	})
}

func (c *Coordinator) startRound(r ballot.Ballot) {
	if !c.crnd.Less(r) {
		return
	}
	c.crnd = r
	c.leading = false
	c.attempt = ballot.Max(c.attempt, r)
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
	// proposal's sequence number, so the new round re-forwards the same
	// (instance, value) pairs once established.
	c.sent = make(map[uint64]bool)
	c.unsent = nil
	c.send1a()
	c.armRetry()
}

func (c *Coordinator) send1a() {
	node.Broadcast(c.env, c.cfg.Acceptors, msg.P1a{
		Rnd: c.crnd, Coord: c.env.ID(), Shard: uint32(c.Shard),
	})
}

// stride is the instance-number distance between consecutive owned
// instances: the deployment's shard count.
func (c *Coordinator) stride() uint64 { return uint64(c.cfg.NShards()) }

// owns reports whether inst belongs to this coordinator's residue class.
func (c *Coordinator) owns(inst uint64) bool { return c.cfg.ShardOf(inst) == c.Shard }

// seqInst maps a per-shard sequence number to its instance: the fixed,
// coordination-free assignment every group member agrees on.
func (c *Coordinator) seqInst(seq uint64) uint64 { return seq*c.stride() + uint64(c.Shard) }

// OnMessage implements node.Handler.
func (c *Coordinator) OnMessage(from msg.NodeID, m msg.Message) {
	switch mm := m.(type) {
	case msg.Propose:
		c.onPropose(from, mm)
	case msg.P1bMulti:
		c.onP1b(mm)
	case msg.Stale:
		c.onStale(mm)
	case msg.P2b:
		// Learners acknowledge decided instances so retransmission stops.
		c.noteLearned(mm.Inst)
	case msg.Fill:
		c.onFill(mm)
	case msg.PeerDown:
		if mm.Node == c.stamper {
			c.takeOver()
		}
	}
}

// MarkLearned stops retransmission for an instance (driven by a colocated
// learner in hosts that wire one) and frees its pipeline slot.
func (c *Coordinator) MarkLearned(inst uint64) { c.noteLearned(inst) }

// Pending reports how many assigned instances wait for a window slot.
func (c *Coordinator) Pending() int { return len(c.unsent) }

// Inflight reports how many forwarded instances are not yet learned.
func (c *Coordinator) Inflight() int { return len(c.sent) }

// Retained reports how many instances the coordinator holds state for
// (assigned values plus out-of-order learns), for memory-bound tests.
func (c *Coordinator) Retained() int { return len(c.proposals) + len(c.learned) }

// isLearned reports whether an owned instance is known decided.
func (c *Coordinator) isLearned(inst uint64) bool {
	return inst/c.stride() < c.lo || c.learned[inst]
}

func (c *Coordinator) noteLearned(inst uint64) {
	// Another shard's instance never matters here: no pipeline slot or
	// retransmission of ours depends on it.
	if !c.owns(inst) || c.isLearned(inst) {
		return
	}
	c.learned[inst] = true
	delete(c.sent, inst)
	// Everything below the contiguous frontier is forgotten: state stays
	// bounded by the open window instead of growing with the run.
	for at := c.seqInst(c.lo); c.learned[at]; at = c.seqInst(c.lo) {
		delete(c.learned, at)
		delete(c.proposals, at)
		c.lo++
	}
	c.drainUnsent()
	// This learn may have emptied the pipeline under buffered submissions.
	c.stampIfQuiet()
}

// onPropose records a sequence-numbered proposal at its fixed instance and
// forwards it within the window. A proposal without a sequence number is an
// unsequenced client submission: it is stamped at this member's ingress
// (untagged unsequenced proposals cannot be placed deterministically across
// a group and are dropped).
func (c *Coordinator) onPropose(from msg.NodeID, mm msg.Propose) {
	if !mm.HasSeq {
		if mm.Client != 0 {
			c.onIngress(mm)
		}
		return
	}
	// Every observed stamp advances the ingress counter, so this member can
	// take over stamping without colliding with slots already claimed. A
	// stamp that does advance it is fresh — the re-shares of converge and
	// onFill never are — and says who is stamping now.
	if mm.Seq >= c.ingressNext {
		c.ingressNext = mm.Seq + 1
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
		if !c.converge(inst, mm.Cmd, cur) {
			return
		}
	}
	if mm.Client != 0 {
		// A peer's stamp share carries the request key: record it so a
		// client failing over to this member maps to the same slot.
		c.recordReq(reqKey{mm.Client, mm.Req}, inst)
	}
}

// bind makes cmd this member's value for an instance and indexes the request
// keys its constituents imply.
func (c *Coordinator) bind(inst uint64, cmd cstruct.Cmd) {
	c.place(inst, cmd)
	c.indexValue(inst, cmd)
}

// place is bind without the request index, for the stamping path that
// already holds the keys. Requests stamped into a displaced value lost their
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
// toward the lower command ID.
//
// An acceptor's collision detection assumes a member forwards at most one
// value per (instance, round) — two same-round accepts of different values
// would otherwise become possible, breaking the pick rule's safety. So a
// member that already forwarded the losing value in the current round adopts
// the winner but converges through a fresh round instead of re-sending
// within this one. It reports whether the incoming value was adopted.
func (c *Coordinator) converge(inst uint64, incoming, existing cstruct.Cmd) (adopted bool) {
	if !c.prefer(inst, incoming, existing) {
		// Our value wins: re-share it so the peer adopts — it may have filled
		// a no-op (or stamped a loser) because it never saw our stamp share.
		c.shareStamp(inst, existing, 0, 0)
		return false
	}
	c.bind(inst, incoming)
	if c.sent[inst] {
		c.startRound(ballot.SingleScheme{}.Next(ballot.Max(c.attempt, c.crnd), uint32(c.env.ID())))
	} else {
		c.trySend(inst)
	}
	return true
}

// prefer reports whether value a beats value b for an instance under the
// group's fixed preference order.
func (c *Coordinator) prefer(inst uint64, a, b cstruct.Cmd) bool {
	if c.FillCmd != nil {
		noop := c.FillCmd(inst)
		if an, bn := a.Equal(noop), b.Equal(noop); an != bn {
			return bn // the real value beats the fill no-op
		}
	}
	return a.ID < b.ID
}

// indexValue records the ingress idempotency keys implied by a stamped
// value's constituents (batch or lone command), so retried submissions map
// to the slot no matter which group member they reach.
func (c *Coordinator) indexValue(inst uint64, val cstruct.Cmd) {
	if c.ReqOf == nil {
		return
	}
	inner, isBatch := batch.UnpackMeta(val)
	if !isBatch {
		inner = []cstruct.Cmd{val}
	}
	for _, cc := range inner {
		if client, req, ok := c.ReqOf(cc); ok {
			c.recordReq(reqKey{client, req}, inst)
		}
	}
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
	c.stampIfQuiet()
	c.armIngress()
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
	if from == c.stamper || from == c.env.ID() || !c.cfg.InRoundGroup(c.Shard, c.crnd, from) {
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
	c.stampIfQuiet()
	c.armIngress()
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

// stampIfQuiet stamps whatever the ingress batcher holds at once when this
// member leads and has nothing in flight or queued. It runs on every arrival
// and on the learn that empties the pipeline, so the pipeline is the batch
// clock: commands batch exactly while an instance is in flight, and a
// closed-loop caller pays a round trip, not the timer. IngressBatchMax and
// the IngressBatchWait timer remain as bounds — a full batch flushes into the
// window by size, and no command leaves the batcher later than the timer
// would release it. Size-only batching (IngressBatchWait = 0) is never cut
// short: hosts choose it for deterministic batch boundaries.
func (c *Coordinator) stampIfQuiet() {
	if c.ing != nil && c.leading && len(c.sent) == 0 && len(c.unsent) == 0 && c.IngressBatchWait > 0 {
		c.ing.Flush()
	}
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
	c.ingressNext = inst/c.stride() + 1
	c.stamped++
	c.stamper = c.env.ID()
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
	for _, id := range c.cfg.RoundGroup(c.Shard, c.crnd) {
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

// armIngress schedules the time-triggered flush of a partial ingress batch
// for the batch's own deadline: a timer left pending by a batch that flushed
// early (by size, or at once on a quiet shard) fires on a younger batch, and
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

// IngressCounts reports the ingress stamping activity: sequence slots
// stamped at this member, client requests that lost their stamped slot to a
// collision (restamped on retry), and no-op fills adopted for stalled
// instances.
func (c *Coordinator) IngressCounts() (stamped, restamped, filled uint64) {
	return c.stamped, c.restamped, c.filled
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
	if c.FillCmd == nil {
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
		if seq := inst / c.stride(); seq >= c.ingressNext {
			c.ingressNext = seq + 1
		}
		c.bind(inst, c.FillCmd(inst))
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
	if c.FillCmd == nil || !c.leading || !c.owns(inst) || !c.stamps() {
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
		c.stampAt(at, c.FillCmd(at), nil)
		c.filled++
	}
}

// stamps reports whether this member is the shard's stamper: by its own
// belief, or as the first member of the round's group while it has seen
// nobody stamp.
func (c *Coordinator) stamps() bool {
	if c.stamper != 0 {
		return c.stamper == c.env.ID()
	}
	return c.cfg.RoundGroup(c.Shard, c.crnd)[0] == c.env.ID()
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
	if c.launch(inst) {
		c.armRetry()
	}
}

// windowFull reports whether the pipeline window has no free slot.
func (c *Coordinator) windowFull() bool {
	return c.MaxInflight > 0 && len(c.sent) >= c.MaxInflight
}

// launch is trySend without arming the retry timer; it reports whether a 2a
// went out.
func (c *Coordinator) launch(inst uint64) bool {
	if !c.leading || c.sent[inst] || c.isLearned(inst) {
		return false
	}
	if c.windowFull() {
		c.unsent = append(c.unsent, inst)
		return false
	}
	c.sent[inst] = true
	c.send2a(inst, c.proposals[inst])
	return true
}

// drainUnsent forwards queued assignments while the window has room.
func (c *Coordinator) drainUnsent() {
	sent := false
	for len(c.unsent) > 0 && !c.windowFull() {
		inst := c.unsent[0]
		c.unsent = c.unsent[1:]
		sent = c.launch(inst) || sent
	}
	if sent {
		c.armRetry()
	}
}

func (c *Coordinator) send2a(inst uint64, cmd cstruct.Cmd) {
	node.Broadcast(c.env, c.cfg.Acceptors, msg.P2a{
		Inst: inst, Rnd: c.crnd, Coord: c.env.ID(), Val: wrap(cmd),
	})
}

// onP1b collects promises; once a classic quorum has joined a round the
// coordinator adopts the constrained values (highest vrnd per instance,
// Section 2.1.2's picking rule) and opens the floor for new proposals.
// Promises for rounds started by a group peer (or by an acceptor's collision
// promotion) count too: acceptors send each promise to the round's whole
// group, so every member establishes the round independently — the group
// analogue of Phase2Start.
func (c *Coordinator) onP1b(mm msg.P1bMulti) {
	if int(mm.Shard) != c.Shard {
		return
	}
	if mm.Rnd.Less(c.crnd) || (mm.Rnd.Equal(c.crnd) && c.leading) {
		return
	}
	byAcc, ok := c.p1bs[mm.Rnd]
	if !ok {
		byAcc = make(map[msg.NodeID]msg.P1bMulti)
		c.p1bs[mm.Rnd] = byAcc
	}
	byAcc[mm.Acc] = mm
	if !c.cfg.Quorums.IsQuorum(len(byAcc), false) {
		return
	}
	c.establish(mm.Rnd, byAcc)
}

// establish completes phase 1 for round r from the collected promises:
// adopt the picked values, re-forward everything unlearned, and open the
// floor for new proposals.
func (c *Coordinator) establish(r ballot.Ballot, byAcc map[msg.NodeID]msg.P1bMulti) {
	c.crnd = r
	c.attempt = ballot.Max(c.attempt, r)
	c.leading = true
	c.repairing = false
	for past := range c.p1bs {
		if past.LessEq(r) {
			delete(c.p1bs, past)
		}
	}
	if !c.cfg.InRoundGroup(c.Shard, r, c.stamper) {
		c.stamper = 0 // the believed stamper does not serve this round
	}
	if c.everLed {
		c.roundChanges++
	} else {
		c.everLed = true
	}
	// Pick, per instance, the vval of the highest vrnd reported. A picked
	// value overrides the local assignment: it may already be chosen.
	type pick struct {
		vrnd ballot.Ballot
		cmd  cstruct.Cmd
	}
	picks := make(map[uint64]pick)
	for _, p1b := range byAcc {
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
				picks[v.Inst] = pick{vrnd: v.VRnd, cmd: cmd}
			}
		}
	}
	for inst, p := range picks {
		c.bind(inst, p.cmd)
	}
	// Every unlearned assignment is re-forwarded under the new round,
	// respecting the window. Instance order, not map order — here and in
	// every loop that sends: the sequence must be deterministic or a
	// probabilistic dropper's dice land on different messages run to run,
	// breaking seed reproducibility.
	c.sent = make(map[uint64]bool)
	c.unsent = nil
	for _, inst := range slices.Sorted(maps.Keys(c.proposals)) {
		c.trySend(inst)
	}
}

// onStale reacts to an acceptor whose round outruns ours: start a higher
// round to regain the ability to get values accepted (Section 4.3). Every
// coordinator that sent a 1a or 2a may chase, damped by attempt so one
// rejection wave yields one new round per member.
func (c *Coordinator) onStale(mm msg.Stale) {
	if c.repairing && !c.leading {
		if c.cfg.InRoundGroup(c.Shard, mm.Rnd, c.env.ID()) {
			// Repair adopts the live round exactly: outbidding it here would
			// force the round change the whole exercise exists to avoid.
			if c.repairTarget.Less(mm.Rnd) {
				c.repairTarget = mm.Rnd
				c.probe()
				c.armRetry()
			}
			return
		}
		// The live round is served without this coordinator: there is no
		// group to rejoin, only a round to outbid.
		c.repairing = false
	}
	cur := ballot.Max(c.attempt, c.crnd)
	if mm.Rnd.LessEq(cur) {
		// Rejection of an attempt already superseded. That includes a round
		// this coordinator itself started or serves (ballots carry their
		// owner, so equality means exactly that): the acceptor is not ahead,
		// it answered an older message — a repairing member's zero-round
		// probe draws one such Stale per acceptor, and those still in flight
		// when the first promises establish the live round must not outbid
		// the round the repair just rejoined.
		return
	}
	c.startRound(ballot.SingleScheme{}.Next(ballot.Max(cur, mm.Rnd), uint32(c.env.ID())))
}

func (c *Coordinator) armRetry() {
	if c.RetryEvery > 0 && !c.retryArmed {
		c.retryArmed = true
		c.env.SetTimer(c.RetryEvery, timerRetry)
	}
}

// OnTimer implements node.TimerHandler: retransmit the in-flight stage, the
// paper's answer to message loss (processes re-send their last message).
// The timer quiesces once nothing is outstanding.
func (c *Coordinator) OnTimer(tag int) {
	if tag == timerIngress {
		c.ingArmed = false
		if c.ing != nil {
			c.ing.Tick()
			c.armIngress()
		}
		return
	}
	if tag == timerRelay {
		c.relayArmed = false
		if c.oldestRelay()+c.relayWait() <= c.env.Now() {
			c.takeOver()
		}
		c.armRelay()
		return
	}
	if tag != timerRetry || c.RetryEvery <= 0 {
		return
	}
	c.retryArmed = false
	outstanding := false
	switch {
	case c.leading:
		for _, inst := range slices.Sorted(maps.Keys(c.sent)) {
			c.send2a(inst, c.proposals[inst])
			outstanding = true
		}
	case c.repairing:
		c.probe()
		outstanding = true
	case !c.crnd.IsZero():
		c.send1a()
		outstanding = true
	}
	if outstanding {
		c.armRetry()
	}
}
