package classic

import (
	"fmt"
	"maps"
	"slices"

	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/node"
)

// routed is an unlearned proposal plus where it was sent: the shard whose
// coordinators it is pinned to and its per-shard sequence number, which the
// coordinators map to a fixed instance — retransmissions carry the same seq
// so every coordinator keeps the same placement.
type routed struct {
	cmd   cstruct.Cmd
	shard int
	seq   uint64
}

// Proposer submits shard-pinned, sequence-numbered proposals to a shard's
// coordinators — retransmissions follow the same route, so a command never
// occupies instances in two shards. Each shard's proposal stream is numbered
// 0, 1, 2, … (ProposeSeq takes the caller's numbering, e.g. the batch
// router's; ProposeTo stamps from the proposer's own per-shard counter):
// coordinators derive the instance from the sequence number, so every member
// of a round's group forwards the same proposal for the same instance with
// no coordination, and a standby that takes the shard over already holds the
// stream.
type Proposer struct {
	env node.Env
	cfg Config

	// RetryEvery > 0 enables retransmission of unlearned proposals.
	RetryEvery int64
	// retryArmed marks a pending timerRetry: one timer retransmits everything
	// in flight, however many submissions arm it.
	retryArmed bool
	inflight   map[uint64]routed
	nextSeq    []uint64 // per-shard sequence counter for ProposeTo
}

var _ node.Handler = (*Proposer)(nil)
var _ node.TimerHandler = (*Proposer)(nil)

// NewProposer builds a proposer bound to env.
func NewProposer(env node.Env, cfg Config) *Proposer {
	return &Proposer{
		env: env, cfg: cfg,
		inflight: make(map[uint64]routed),
		nextSeq:  make([]uint64, cfg.NShards()),
	}
}

// Propose submits a command to the shard its ID hashes to (action Propose).
func (p *Proposer) Propose(cmd cstruct.Cmd) {
	p.ProposeTo(int(cmd.ID%uint64(p.cfg.NShards())), cmd)
}

// ProposeTo submits a command to one shard's coordinators — the group
// serving its round plus any standbys, so the shard keeps deciding across a
// failover. The command is stamped with the shard's next sequence number
// from the proposer's own counter; callers that already number the stream
// (the batch router) use ProposeSeq.
func (p *Proposer) ProposeTo(shard int, cmd cstruct.Cmd) {
	p.checkShard(shard)
	seq := p.nextSeq[shard]
	p.nextSeq[shard]++
	p.submit(shard, seq, cmd)
}

// ProposeSeq submits a command to one shard's coordinators under the
// caller's per-shard sequence number (the batch router numbers each shard's
// flushed batches 0, 1, 2, …). The proposer's own counter advances past it,
// so ProposeTo may safely follow ProposeSeq traffic; the reverse mix would
// reuse a sequence number the counter already consumed — that maps two
// commands to one instance and silently strands the second, so it panics
// instead (attach the router before any ProposeTo traffic, or route
// everything through it).
func (p *Proposer) ProposeSeq(shard int, seq uint64, cmd cstruct.Cmd) {
	p.checkShard(shard)
	if seq < p.nextSeq[shard] {
		panic(fmt.Sprintf("classic: ProposeSeq reuses shard %d seq %d (next unused: %d)",
			shard, seq, p.nextSeq[shard]))
	}
	p.nextSeq[shard] = seq + 1
	p.submit(shard, seq, cmd)
}

func (p *Proposer) checkShard(shard int) {
	if shard < 0 || shard >= p.cfg.NShards() {
		// A router configured for more shards than the deployment would
		// otherwise broadcast to an empty group and retransmit into the
		// void: fail loudly on the misconfiguration instead of silently
		// losing commands.
		panic(fmt.Sprintf("classic: ProposeTo shard %d of a %d-shard deployment",
			shard, p.cfg.NShards()))
	}
}

func (p *Proposer) submit(shard int, seq uint64, cmd cstruct.Cmd) {
	r := routed{cmd: cmd, shard: shard, seq: seq}
	p.inflight[cmd.ID] = r
	p.send(r)
	p.armRetry()
}

func (p *Proposer) send(r routed) {
	node.Broadcast(p.env, p.cfg.ShardCoords(r.shard), msg.Propose{Cmd: r.cmd, Seq: r.seq, HasSeq: true})
}

func (p *Proposer) armRetry() {
	if p.RetryEvery > 0 && !p.retryArmed {
		p.retryArmed = true
		p.env.SetTimer(p.RetryEvery, timerRetry)
	}
}

// MarkLearned stops retransmission of a command.
func (p *Proposer) MarkLearned(cmdID uint64) { delete(p.inflight, cmdID) }

// OnMessage implements node.Handler; proposers consume nothing.
func (p *Proposer) OnMessage(msg.NodeID, msg.Message) {}

// OnTimer implements node.TimerHandler.
func (p *Proposer) OnTimer(tag int) {
	if tag != timerRetry {
		return
	}
	p.retryArmed = false
	if len(p.inflight) == 0 {
		return
	}
	// Command-ID order, not map order: a deterministic retransmission
	// sequence keeps seeded nemesis runs reproducible under lossy networks.
	for _, id := range slices.Sorted(maps.Keys(p.inflight)) {
		p.send(p.inflight[id])
	}
	p.armRetry()
}
