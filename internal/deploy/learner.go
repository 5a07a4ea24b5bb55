package deploy

import (
	"mcpaxos/internal/batch"
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
// replies for retransmitted proposals, both halves of the catch-up pull
// (catchup.go: serving peers from the retained decided prefix and pulling its
// own), and snapshotting, watermark gossip and truncation. The replica is the
// one owner of the merged apply order (command IDs, batches unpacked); the
// learner's own copy of decided commands is the retained log, which
// truncation bounds. It knows only its node.Env, so any host (the TCP
// endpoint, a test's fake) can run it.
//
// Like every handler it is single-threaded and takes no lock: OnMessage and
// OnTimer run on the host's mailbox goroutine, and everything else — the
// host's start, Replica's inspectors — reaches it there through Agent.Do.
type learner struct {
	env    node.Env
	cfg    classic.Config
	peers  []msg.NodeID // the other learners: catch-up sources and Done gossip targets
	every  uint64       // snapshot interval in merged instances
	retain uint64       // log instances kept below the watermark
	l      *classic.Learner
	// fetch is this learner's own catch-up pull (catchup.go), retried every
	// retryEvery ticks and watched every watchEvery — RetryEvery and
	// FillAfter.
	fetch                  fetchState
	retryEvery, watchEvery int64
	// snaps holds this learner's snapshots (durable under Spec.SnapshotDir
	// or WALDir, else memory-only); the store synchronises itself.
	snaps *snapshot.Store
	// coords is ShardCoords(shard) per shard, built once: the targets of the
	// ack every learned instance draws, and of fills and skip hints.
	coords [][]msg.NodeID
	// hi is one past the highest instance learned live, in any shard: the
	// high-water mark every ack carries (msg.P2b.Hi), so a shard's stamper
	// claims the slots the merge would otherwise wait on.
	hi uint64
	// The skip-hint clock (timerIdle): armed while instances sit buffered
	// above the merge frontier, it fires every idleEvery ticks — one BatchWait;
	// 0, never, with a single shard — and a frontier still at idleNext when it
	// does has sat frozen for a full period, which earns the lagging shards one
	// hint (idleHinted).
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
	// pulling suppresses reply sends while the catch-up pull feeds a pulled
	// instance, and the buffered ones that instance releases: their results
	// land in replay (a client probe re-elicits any it still needs) without an
	// O(history) reply storm on rejoin. What live quorum counting delivers is
	// answered, synced or not.
	pulling bool
	// replayed counts replies re-elicited from the replay cache.
	replayed uint64
	// batched counts the commands applied out of instances that carried more
	// than one command.
	batched int

	// Compaction state. logBase is the instance log[0] holds: the retained
	// prefix is [logBase, logBase+len(log)), and a peer pull below logBase is
	// refused with the floor attached so the requester escalates to snapshot
	// transfer. snapFrontier is the frontier of the newest snapshot — the
	// Done frontier this learner gossips. peerDone records each peer's last
	// gossiped frontier, and watermark is the monotone cluster minimum over
	// all of them: the truncation gate.
	logBase      uint64
	snapFrontier uint64
	snapSaves    uint64
	peerDone     map[msg.NodeID]uint64
	watermark    uint64
}

var _ node.Handler = (*learner)(nil)
var _ node.TimerHandler = (*learner)(nil)

// The learner's timer tags: the skip-hint clock, the fetch retry and the gap
// watch.
const (
	timerIdle = iota
	timerFetch
	timerWatch
)

// newLearner builds a learner over env from the shared protocol config, the
// spec's tuning and its already-opened snapshot store. It sends nothing:
// the catch-up pull's first probe goes out when the host starts it, once
// the node has a route to its peers.
func newLearner(env node.Env, cfg classic.Config, spec ClusterSpec, snaps *snapshot.Store) *learner {
	l := &learner{
		env: env, cfg: cfg, snaps: snaps,
		rep:      smr.NewReplica(smr.NewKVStore()),
		replay:   smr.NewReplyCache(replyCacheSize, classic.ClientShift),
		peerDone: make(map[msg.NodeID]uint64),
	}
	l.every, l.retain = spec.compaction()
	l.retryEvery, l.watchEvery = spec.retryTicks(), spec.fillTicks()
	for _, p := range cfg.Learners {
		if p != env.ID() {
			l.peers = append(l.peers, p)
		}
	}
	l.fetch.synced = len(l.peers) == 0
	for shard := range cfg.NShards() {
		l.coords = append(l.coords, cfg.ShardCoords(shard))
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
	// catch-up pull fetches only the log suffix above it.
	if blob, fr, ok := snaps.Latest(); ok {
		l.installBlob(fr, blob)
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
			if len(inner) > 1 && !dup {
				l.batched++
			}
		}
		if to, _ := classic.SplitCmdID(c.ID); to != 0 {
			if !dup {
				l.replay.Put(c.ID, inst, res)
			}
			if !l.pulling {
				l.env.Send(to, msg.Reply{CmdID: c.ID, From: l.env.ID(), Inst: inst, Result: res})
			}
		}
	}
}

// pulled feeds one instance of a peer's decided prefix with its replies
// withheld.
func (l *learner) pulled(inst uint64, cmd cstruct.Cmd) {
	l.pulling = true
	l.feed(inst, cmd)
	l.pulling = false
}

// feed hands one decided instance to the merger and cuts a snapshot once the
// merge frontier is a full interval past the last one. The catch-up pull
// feeds pulled instances through it (pulled); onLearn feeds the live ones.
func (l *learner) feed(inst uint64, cmd cstruct.Cmd) {
	l.merger.Add(inst, cmd)
	fr := l.merger.Next()
	if fr >= l.snapFrontier+l.every {
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
// before the FillAfter watch would. The acks' high-water mark (ack) asks the
// same of a shard with instances in flight; the hint is the backstop for a
// shard with none, which draws no acks. It is not repeated at the same
// frontier: a lost one leaves the stall to that watch, as before.
func (l *learner) onIdle() {
	l.idleArmed = false
	fr, held := l.merger.Next(), l.merger.Buffered() > 0
	if fr != l.idleNext {
		l.idleNext, l.idleHinted = fr, false
	} else if held && !l.idleHinted {
		l.idleHinted = true
		for _, inst := range l.merger.Lagging(l.cfg.NShards()) {
			node.Broadcast(l.env, l.group(inst), msg.Fill{Inst: inst, Idle: true})
		}
	}
	if held {
		l.armIdle()
	}
}

// onLearn is the protocol learner's callback: a quorum of 2bs decided inst.
func (l *learner) onLearn(inst uint64, cmd cstruct.Cmd) {
	l.hi = max(l.hi, inst+1)
	l.feed(inst, cmd)
	l.ack(inst)
}

// ack quiesces the owning group's retransmission of a learned instance and
// tells it the learned high-water mark (classic.Cluster delivers the same ack
// on the simulator, without the mark).
func (l *learner) ack(inst uint64) {
	node.Broadcast(l.env, l.group(inst), msg.P2b{Inst: inst, Hi: l.hi})
}

// group returns the coordinators of the shard owning inst.
func (l *learner) group(inst uint64) []msg.NodeID { return l.coords[l.cfg.ShardOf(inst)] }

// onStall answers a gap-watch resync of a frozen frontier that no catch-up
// pull can move: the stalled instance was never decided — its sequence slot
// died with a crashed ingress stamper, or its shard idled while the others
// advanced. Nudge the owning group to fill it.
func (l *learner) onStall(frontier uint64) {
	node.Broadcast(l.env, l.group(frontier), msg.Fill{Inst: frontier})
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
// — its own newest one at build, or a peer's shipped after a catch-up log
// pull was refused below the peer's retention floor: machine state,
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
	// SkipTo flushes any buffered suffix through deliver, which appends to
	// the (now empty) log relative to the new base.
	l.merger.SkipTo(s.Frontier)
	// The installed blob becomes this learner's own newest snapshot, so it
	// can serve transfers (and survive restarts, if durable) without waiting
	// for its next cut. Like cutSnapshot, a failed save keeps gossiping the
	// old frontier: no snapshot of this learner's own covers the new one.
	if l.snaps.Save(s.Frontier, blob) == nil {
		l.snapFrontier = max(l.snapFrontier, s.Frontier)
	}
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
		l.onCatchupResp(mm)
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
		l.onSnapResp(mm)
	default:
		l.l.OnMessage(from, m)
	}
}

// OnTimer implements node.TimerHandler.
func (l *learner) OnTimer(tag int) {
	switch tag {
	case timerIdle:
		l.onIdle()
	case timerFetch:
		l.onRetry()
	case timerWatch:
		l.onWatch()
	}
}

// onReplayProbe answers a client's retransmitted proposal from the replay
// cache: an already-applied command whose replies were all lost can never
// be re-elicited by the consensus path (the learners deduplicate it), so
// the cached result is re-sent instead. Commands not yet applied draw no
// answer here — the ordinary apply-time reply covers them. A probe is one
// client command, never a batch: clients do not send batches, so the probe's
// command is looked up as it stands and a batch finds nothing.
func (l *learner) onReplayProbe(mm msg.Propose) {
	id := mm.Cmd.ID
	to, _ := classic.SplitCmdID(id)
	if to == 0 {
		return
	}
	if rec, ok := l.replay.Get(id); ok {
		l.replayed++
		l.env.Send(to, msg.Reply{CmdID: id, From: l.env.ID(), Inst: rec.Inst, Result: rec.Result})
	}
}
