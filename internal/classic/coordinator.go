package classic

import (
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

	// shard is the residue class this coordinator sequences in a sharded
	// deployment (cfg.Shards > 1): it only forwards instances ≡ shard (mod
	// cfg.NShards()) and its phase 1 claims only those instances.
	shard int

	// crnd is the round this member started or established last; it also
	// damps the stale-chase (onStale).
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
	// fixed price: at the end of every delivery burst a leading member stamps
	// what it holds while fewer than Max commands are outstanding or nothing
	// is in flight, and batches beyond that only while instances are in
	// flight (see stampIfDue). 0 flushes on size only, with no early stamp
	// either.
	IngressBatchMax  int
	IngressBatchWait int64

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
	// widths holds the command count of every unlearned multi-command batch
	// this member stamped: what outstanding counts for it.
	widths map[uint64]int

	stamped   uint64 // sequence slots stamped at this member's ingress
	restamped uint64 // client requests that lost their stamped slot
	filled    uint64 // no-op fills adopted for stalled instances
}

var _ node.Handler = (*Coordinator)(nil)
var _ node.TimerHandler = (*Coordinator)(nil)
var _ node.IdleHandler = (*Coordinator)(nil)

// NewCoordinator builds a coordinator bound to env. By the convention of
// Config.ShardCoords, cfg.Coords[i] serves shard i mod cfg.NShards(); an ID
// missing from cfg.Coords serves shard 0.
func NewCoordinator(env node.Env, cfg Config) *Coordinator {
	return &Coordinator{
		env:       env,
		cfg:       cfg,
		shard:     max(slices.Index(cfg.Coords, env.ID()), 0) % cfg.NShards(),
		p1bs:      make(map[ballot.Ballot]map[msg.NodeID]msg.P1bMulti),
		proposals: make(map[uint64]cstruct.Cmd),
		learned:   make(map[uint64]bool),
		sent:      make(map[uint64]bool),
		byReq:     make(map[reqKey]uint64),
		bufd:      make(map[reqKey]bool),
		widths:    make(map[uint64]int),
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

// Pending reports how many assigned instances wait for a window slot.
func (c *Coordinator) Pending() int { return len(c.unsent) }

// Inflight reports how many forwarded instances are not yet learned.
func (c *Coordinator) Inflight() int { return len(c.sent) }

// Retained reports how many instances the coordinator holds state for
// (assigned values plus out-of-order learns), for memory-bound tests.
func (c *Coordinator) Retained() int { return len(c.proposals) + len(c.learned) }

// IngressCounts reports the ingress stamping activity: sequence slots
// stamped at this member, client requests that lost their stamped slot to a
// collision (restamped on retry), and no-op fills adopted for stalled
// instances.
func (c *Coordinator) IngressCounts() (stamped, restamped, filled uint64) {
	return c.stamped, c.restamped, c.filled
}

// stride is the instance-number distance between consecutive owned
// instances: the deployment's shard count.
func (c *Coordinator) stride() uint64 { return uint64(c.cfg.NShards()) }

// owns reports whether inst belongs to this coordinator's residue class.
func (c *Coordinator) owns(inst uint64) bool { return c.cfg.ShardOf(inst) == c.shard }

// seqInst maps a per-shard sequence number to its instance: the fixed,
// coordination-free assignment every group member agrees on.
func (c *Coordinator) seqInst(seq uint64) uint64 { return seq*c.stride() + uint64(c.shard) }

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

// OnTimer implements node.TimerHandler: retransmit the in-flight stage, the
// paper's answer to message loss (processes re-send their last message).
// The timer quiesces once nothing is outstanding.
func (c *Coordinator) OnTimer(tag int) {
	switch {
	case tag == timerIngress:
		c.ingArmed = false
		if c.ing != nil {
			c.ing.Tick()
		}
	case tag == timerRelay:
		c.relayArmed = false
		if c.oldestRelay()+c.relayWait() <= c.env.Now() {
			c.takeOver()
		}
		c.armRelay()
	case tag == timerRetry && c.RetryEvery > 0:
		c.retryArmed = false
		switch {
		case c.leading:
			for _, inst := range slices.Sorted(maps.Keys(c.sent)) {
				c.send2a(inst, c.proposals[inst])
			}
			if len(c.sent) > 0 {
				c.armRetry()
			}
		case c.repairing || !c.crnd.IsZero():
			c.send1a()
			c.armRetry()
		}
	}
}
