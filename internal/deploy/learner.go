package deploy

import (
	"mcpaxos/internal/batch"
	"mcpaxos/internal/catchup"
	"mcpaxos/internal/classic"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/node"
	"mcpaxos/internal/smr"
	"mcpaxos/internal/snapshot"
)

// learner is one learner node of a deployment: the protocol learner counting
// 2b quorums, the merger restoring the total order across shards, the replica
// state machine, and the recovery concerns around them — replaying cached
// replies for retransmitted proposals, serving peer catch-up pulls from the
// retained decided prefix, driving its own catch-up fetcher, and
// snapshotting, watermark gossip and truncation. The replica is the one owner
// of the merged apply order (command IDs, batches unpacked); the learner's own
// copy of decided commands is the retained log, which truncation bounds. It
// knows only its node.Env, so any host (the TCP endpoint, a test's fake) can
// run it.
//
// Like every handler it is single-threaded and takes no lock: OnMessage and
// OnTimer run on the host's mailbox goroutine, and everything else — the
// host's start, Replica's inspectors — reaches it there through Agent.Do.
type learner struct {
	env    node.Env
	cfg    classic.Config
	peers  []msg.NodeID // the other learners: catch-up sources and Done gossip targets
	every  int          // ClusterSpec.SnapshotEvery
	retain uint64       // log instances kept below the watermark
	l      *classic.Learner
	fetch  *catchup.Fetcher
	// snaps holds this learner's snapshots (durable under Spec.SnapshotDir,
	// else memory-only); the store synchronises itself.
	snaps *snapshot.Store
	// The skip-hint clock (timerIdle): armed while instances sit buffered
	// above the merge frontier, it fires every idleEvery ticks — one BatchWait;
	// 0, never, with a single shard or size-only batching — and a frontier
	// still at idleNext when it does has sat frozen for a full period, which
	// earns the lagging shards one hint (idleHinted).
	idleEvery  int64
	idleArmed  bool
	idleNext   uint64
	idleHinted bool

	rep    *smr.Replica
	merger *smr.Merger
	// log retains the raw delivered command of every instance (log[i] is
	// instance logBase+i, noop padding and packed batches included): the
	// decided prefix peers pull during learner catch-up.
	log []cstruct.Cmd
	// replay caches recent apply results per client so a retransmitted
	// proposal for an already-applied command re-elicits its reply.
	replay *smr.ReplyCache
	// catchup suppresses reply sends while the learner is replaying a pulled
	// prefix: the results land in replay (a client probe re-elicits any it
	// still needs) without an O(history) reply storm on rejoin.
	catchup bool
	// replayed counts replies re-elicited from the replay cache.
	replayed uint64

	// Compaction state (Spec.SnapshotEvery > 0). logBase is the instance
	// log[0] holds: the retained prefix is [logBase, logBase+len(log)), and a
	// peer pull below logBase is refused with the floor attached so the
	// requester escalates to snapshot transfer. snapFrontier is the frontier
	// of the newest snapshot — the Done frontier this learner gossips.
	// peerDone records each peer's last gossiped frontier, and watermark is
	// the monotone cluster minimum over all of them: the truncation gate.
	logBase      uint64
	snapFrontier uint64
	snapSaves    uint64
	peerDone     map[msg.NodeID]uint64
	watermark    uint64
}

var _ node.Handler = (*learner)(nil)
var _ node.TimerHandler = (*learner)(nil)

// timerIdle is the learner's own timer tag, beside the fetcher's
// catchup.TagFetch and TagWatch.
const timerIdle = 103

// newLearner builds a learner over env from the shared protocol config, the
// spec's tuning and its already-opened snapshot store. It sends nothing:
// the catch-up fetcher's first probe goes out when the host starts it, once
// the node has a route to its peers.
func newLearner(env node.Env, cfg classic.Config, spec ClusterSpec, snaps *snapshot.Store) *learner {
	l := &learner{
		env: env, cfg: cfg, every: spec.SnapshotEvery, retain: spec.retain(), snaps: snaps,
		rep:      smr.NewReplica(smr.NewKVStore()),
		replay:   smr.NewReplyCache(replyCacheSize, classic.ClientShift),
		peerDone: make(map[msg.NodeID]uint64),
	}
	for _, p := range cfg.Learners {
		if p != env.ID() {
			l.peers = append(l.peers, p)
		}
	}
	if cfg.NShards() > 1 {
		l.idleEvery = spec.batchWaitTicks()
	}
	l.merger = smr.NewMerger(l.deliver)
	l.l = classic.NewLearner(env, cfg, l.onLearn)
	// A coordinator still forwarding a learned instance — it missed the ack,
	// or it is a repaired member re-forwarding its shard's whole history —
	// draws re-announcements from the acceptors, and those land here.
	// Re-acknowledge them so its pipeline window drains instead of wedging on
	// decided slots.
	l.l.OnDuplicate = l.ack
	l.merger.OnRelease = l.l.Release
	// A restarted learner reloads its newest durable snapshot before
	// anything else: the merger jumps to the snapshot frontier, so the
	// catch-up fetcher pulls only the log suffix above it.
	if blob, fr, ok := snaps.Latest(); ok {
		l.installBlob(fr, blob)
	}
	// Peer learners serve the decided prefix a rejoining learner missed;
	// until the fetcher reaches a peer's frontier, replies for replayed
	// history stay suppressed.
	l.catchup = len(l.peers) > 0
	// The acceptors are the durable-tier fallback: if no peer learner retains
	// the prefix this learner is missing, they re-announce their votes and the
	// ordinary quorum counting relearns it.
	l.fetch = catchup.New(env, l.peers, cfg.Acceptors, catchupChunk, spec.retryTicks(), spec.fillTicks(),
		l.merger.Next, l.merger.Buffered, l.feed, l.onStall, l.installBlob)
	if l.every > 0 {
		l.fetch.OnWatch = l.gossip
	}
	return l
}

// deliver is the merger's callback: instance inst left the merge in total
// order. It retains the raw command for peer pulls, applies the inner
// commands and answers their clients.
func (l *learner) deliver(inst uint64, cmd cstruct.Cmd) {
	l.log = append(l.log, cmd)
	inner, isBatch := batch.Unpack(cmd)
	if !isBatch {
		inner = []cstruct.Cmd{cmd}
	}
	for _, c := range inner {
		res, dup := "noop", false
		if !classic.IsNoop(c) {
			// Fill skips occupy an instance but never reach the state
			// machine or the apply order. A command seen before — its first
			// stamp decided after all and the client's retry was restamped
			// at a second instance — re-elicits its cached result without
			// re-applying or re-entering the merged order.
			_, dup = l.rep.Result(c.ID)
			res = l.rep.ApplyOnce(c)
		}
		if to, _ := classic.SplitCmdID(c.ID); to != 0 {
			if !dup {
				l.replay.Put(c.ID, inst, res)
			}
			if !l.catchup {
				l.env.Send(to, msg.Reply{CmdID: c.ID, From: l.env.ID(), Inst: inst, Result: res})
			}
		}
	}
}

// feed hands one decided instance to the merger and cuts a snapshot once the
// merge frontier is a full interval past the last one. The fetcher feeds
// pulled instances through it; onLearn feeds the live ones.
func (l *learner) feed(inst uint64, cmd cstruct.Cmd) {
	l.merger.Add(inst, cmd)
	fr := l.merger.Next()
	if l.every > 0 && fr >= l.snapFrontier+uint64(l.every) {
		l.cutSnapshot(fr)
	}
	if l.merger.Buffered() > 0 && l.idleEvery > 0 && !l.idleArmed {
		l.idleNext, l.idleHinted = fr, false
		l.armIdle()
	}
}

func (l *learner) armIdle() {
	l.idleArmed = true
	l.env.SetTimer(l.idleEvery, timerIdle)
}

// onIdle is the skip-hint clock's tick. A merge frontier that has not moved
// for a full period while learned instances sit buffered above it is waiting
// on shards that consumed fewer sequence slots than their peers: each is sent
// one skip hint (msg.Fill with Idle set) naming its last hole, so its stamper
// claims every slot through it — with what it has buffered, then no-ops — long
// before the FillAfter watch would. The hint is not repeated at the same
// frontier: a lost one leaves the stall to that watch, as before.
func (l *learner) onIdle() {
	l.idleArmed = false
	fr, held := l.merger.Next(), l.merger.Buffered() > 0
	if fr != l.idleNext {
		l.idleNext, l.idleHinted = fr, false
	} else if held && !l.idleHinted {
		l.idleHinted = true
		for _, inst := range l.merger.Lagging(l.cfg.NShards()) {
			node.Broadcast(l.env, l.cfg.ShardCoords(l.cfg.ShardOf(inst)),
				msg.Fill{Inst: inst, Learner: l.env.ID(), Idle: true})
		}
	}
	if held {
		l.armIdle()
	}
}

// onLearn is the protocol learner's callback: a quorum of 2bs decided inst.
func (l *learner) onLearn(inst uint64, cmd cstruct.Cmd) {
	l.feed(inst, cmd)
	l.ack(inst)
}

// ack quiesces the owning group's retransmission of a learned instance
// (classic.Cluster delivers the same ack on the simulator).
func (l *learner) ack(inst uint64) {
	node.Broadcast(l.env, l.cfg.ShardCoords(l.cfg.ShardOf(inst)), msg.P2b{Inst: inst})
}

// onStall is the fetcher's report of a frozen frontier that no catch-up pull
// can move: the stalled instance was never decided — its sequence slot died
// with a crashed ingress stamper, or its shard idled while the others
// advanced. Nudge the owning group to fill it.
func (l *learner) onStall(frontier uint64) {
	node.Broadcast(l.env, l.cfg.ShardCoords(l.cfg.ShardOf(frontier)),
		msg.Fill{Inst: frontier, Learner: l.env.ID()})
}

// gossip runs the compaction watermark protocol on the gap-watch cadence:
// each tick recomputes the cluster minimum over the gossiped snapshot
// frontiers, ratchets the local watermark, truncates the retained log down
// to the retention floor, and re-gossips Done to the peer learners (their
// minimum) and the acceptors (their vote-history truncation gate). A peer
// that has never reported holds the minimum at zero, so truncation starts
// only once every learner has a snapshot.
func (l *learner) gossip() {
	fr := l.snapFrontier
	wm := fr
	for _, p := range l.peers {
		if pf := l.peerDone[p]; pf < wm {
			wm = pf
		}
	}
	if wm > l.watermark {
		l.watermark = wm
	}
	wm = l.watermark
	if wm > l.retain {
		l.truncate(wm - l.retain)
	}
	done := msg.Done{From: l.env.ID(), Frontier: fr, Watermark: wm}
	node.Broadcast(l.env, l.peers, done)
	node.Broadcast(l.env, l.cfg.Acceptors, done)
}

// cutSnapshot encodes and saves a snapshot of the applied state at frontier
// fr.
func (l *learner) cutSnapshot(fr uint64) {
	dm, ok := l.rep.Machine().(smr.DurableMachine)
	if !ok {
		return
	}
	blob := snapshot.Encode(snapshot.Snapshot{
		Frontier: fr,
		State:    dm.MarshalState(),
		Order:    l.rep.Order(),
		Replies:  l.replay.Export(),
	})
	if l.snaps.Save(fr, blob) != nil {
		return // save failed: keep gossiping the old frontier, retention stays safe
	}
	l.snapFrontier = fr
	l.snapSaves++
}

// installBlob replaces the learner's applied state with an encoded snapshot
// — its own newest one at build, or a peer's shipped by the fetcher after a
// log pull was refused below the peer's retention floor: machine state,
// apply order, dedup floor and reply cache all jump to the snapshot's
// frontier, the retained log resets to empty at that base, and the merger
// skips there so only the suffix replays. It reports false — nothing
// installed — for a blob that does not decode to the announced frontier, a
// snapshot at or behind the current frontier, or a machine that cannot
// restore.
func (l *learner) installBlob(frontier uint64, blob []byte) bool {
	s, err := snapshot.Decode(blob)
	if err != nil || s.Frontier != frontier {
		return false
	}
	// The replica takes state, order and dedup floor at once, each command
	// with its original result: one applied below the frontier and later
	// restamped (its client retried into a second instance) must re-elicit
	// the result of its first application, not a recomputed one.
	if s.Frontier <= l.merger.Next() || l.rep.Install(s) != nil {
		return false
	}
	l.replay.Restore(s.Replies)
	l.log = nil
	l.logBase = s.Frontier
	if s.Frontier > l.snapFrontier {
		l.snapFrontier = s.Frontier
	}
	// SkipTo flushes any buffered suffix through deliver, which appends to
	// the (now empty) log relative to the new base.
	l.merger.SkipTo(s.Frontier)
	// The installed blob becomes this learner's own newest snapshot, so it
	// can serve transfers (and survive restarts, if durable) without waiting
	// for its next cut.
	l.snaps.Save(s.Frontier, blob)
	return true
}

// truncate drops the retained log and reply-cache records below floor.
func (l *learner) truncate(floor uint64) {
	if floor <= l.logBase {
		return
	}
	drop := min(floor-l.logBase, uint64(len(l.log)))
	l.log = append([]cstruct.Cmd(nil), l.log[drop:]...)
	l.logBase += drop
	l.replay.EvictBelow(l.logBase)
}

// OnMessage implements node.Handler.
func (l *learner) OnMessage(from msg.NodeID, m msg.Message) {
	switch mm := m.(type) {
	case msg.Propose:
		l.onReplayProbe(mm)
	case msg.CatchupReq:
		l.serve(mm)
	case msg.CatchupResp:
		l.fetch.OnResp(mm)
		if l.fetch.Synced() {
			l.catchup = false
		}
	case msg.Done:
		// No ratchet on a peer's gossiped snapshot frontier: a peer that
		// restarted with volatile snapshots honestly reports a lower one, and
		// holding the cluster minimum down until it re-covers is exactly the
		// conservative behaviour the watermark needs (the watermark itself
		// never regresses — it only stops advancing).
		l.peerDone[mm.From] = mm.Frontier
	case msg.SnapReq:
		l.serveSnap(mm)
	case msg.SnapResp:
		l.fetch.OnSnapResp(mm)
	default:
		l.l.OnMessage(from, m)
	}
}

// OnTimer implements node.TimerHandler: the skip-hint clock is the learner's,
// every other timer the fetcher's.
func (l *learner) OnTimer(tag int) {
	if tag == timerIdle {
		l.onIdle()
		return
	}
	l.fetch.OnTimer(tag)
}

// onReplayProbe answers a client's retransmitted proposal from the replay
// cache: an already-applied command whose replies were all lost can never
// be re-elicited by the consensus path (the learners deduplicate it), so
// the cached result is re-sent instead. Commands not yet applied draw no
// answer here — the ordinary apply-time reply covers them.
func (l *learner) onReplayProbe(mm msg.Propose) {
	inner, isBatch := batch.Unpack(mm.Cmd)
	if !isBatch {
		inner = []cstruct.Cmd{mm.Cmd}
	}
	for _, c := range inner {
		to, _ := classic.SplitCmdID(c.ID)
		if to == 0 {
			continue
		}
		if rec, ok := l.replay.Get(c.ID); ok {
			l.replayed++
			l.env.Send(to, msg.Reply{CmdID: c.ID, From: l.env.ID(), Inst: rec.Inst, Result: rec.Result})
		}
	}
}

// serve answers a peer learner's catch-up request with one chunk of the
// retained decided prefix (bounded by catchupChunk and by the requester's
// own bound).
func (l *learner) serve(mm msg.CatchupReq) {
	max := uint32(catchupChunk)
	if mm.Max > 0 && mm.Max < max {
		max = mm.Max
	}
	resp := msg.CatchupResp{Learner: l.env.ID(), From: mm.From, Frontier: l.merger.Next()}
	if mm.From < l.logBase {
		// The requested prefix was compacted away: refuse with the floor so
		// the requester escalates to snapshot transfer.
		resp.Floor = l.logBase
	} else if rel := mm.From - l.logBase; rel < uint64(len(l.log)) {
		end := min(rel+uint64(max), uint64(len(l.log)))
		resp.Cmds = append([]cstruct.Cmd(nil), l.log[rel:end]...)
	}
	l.env.Send(mm.Learner, resp)
}

// serveSnap streams this learner's newest snapshot to a peer whose log pull
// was refused. No snapshot (or only one at or below the requester's own
// frontier) answers Total 0 — a no-op the requester's retry rotates past.
func (l *learner) serveSnap(mm msg.SnapReq) {
	blob, fr, ok := l.snaps.Latest()
	if !ok || fr <= mm.From {
		l.env.Send(mm.Learner, msg.SnapResp{Learner: l.env.ID()})
		return
	}
	crc := snapshot.Crc(blob)
	total := uint32((len(blob) + catchup.SnapChunkBytes - 1) / catchup.SnapChunkBytes)
	for seq := uint32(0); seq < total; seq++ {
		lo := int(seq) * catchup.SnapChunkBytes
		l.env.Send(mm.Learner, msg.SnapResp{
			Learner: l.env.ID(), Frontier: fr, Crc: crc,
			Seq: seq, Total: total, Chunk: blob[lo:min(lo+catchup.SnapChunkBytes, len(blob))],
		})
	}
}
