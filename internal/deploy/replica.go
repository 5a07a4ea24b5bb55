package deploy

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"mcpaxos/internal/ballot"
	"mcpaxos/internal/batch"
	"mcpaxos/internal/catchup"
	"mcpaxos/internal/classic"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/node"
	"mcpaxos/internal/runtime"
	"mcpaxos/internal/smr"
	"mcpaxos/internal/snapshot"
	"mcpaxos/internal/storage"
	"mcpaxos/internal/transport"
	"mcpaxos/internal/wal"
)

// hosted is one protocol node run by this process: its own mailbox runtime,
// its own TCP endpoint, and (for acceptors) its own WAL.
type hosted struct {
	id    msg.NodeID
	net   *runtime.Network
	agent *runtime.Agent
	tcp   *transport.TCP
	wal   *wal.WAL
}

func (h *hosted) stop() {
	if h.tcp != nil {
		h.tcp.Close()
	}
	h.net.Stop()
	if h.wal != nil {
		h.wal.Close()
	}
}

// learnerState is the SMR side of one hosted learner: the merger restoring
// the total order across shards, the replica state machine, and the merged
// apply order (inner command IDs, batches unpacked).
type learnerState struct {
	mu     sync.Mutex
	rep    *smr.Replica
	merger *smr.Merger
	order  []uint64
	// log retains the raw delivered command of every instance (log[i] is
	// instance i, noop padding and packed batches included): the decided
	// prefix peers pull during learner catch-up.
	log []cstruct.Cmd
	// replay caches recent apply results per client so a retransmitted
	// proposal for an already-applied command re-elicits its reply.
	replay *smr.ReplyCache
	// catchup suppresses reply sends and quiesce broadcasts while the
	// learner is replaying a pulled prefix: the results land in replay (a
	// client probe re-elicits any it still needs) without an O(history)
	// reply storm on rejoin.
	catchup bool
	// replayed counts replies re-elicited from the replay cache.
	replayed uint64

	// Compaction state (Spec.SnapshotEvery > 0). logBase is the instance
	// log[0] holds: the retained prefix is [logBase, logBase+len(log)), and a
	// peer pull below logBase is refused with the floor attached so the
	// requester escalates to snapshot transfer. snaps holds this learner's
	// snapshots (durable under Spec.SnapshotDir, else memory-only);
	// snapFrontier is the frontier of the newest one — the Done frontier this
	// learner gossips. peerDone records each peer's last gossiped frontier,
	// and watermark is the monotone cluster minimum over all of them: the
	// truncation gate.
	logBase      uint64
	snaps        *snapshot.Store
	snapFrontier uint64
	snapSaves    uint64
	peerDone     map[msg.NodeID]uint64
	watermark    uint64
}

// cutSnapshot encodes and saves a snapshot of the applied state at frontier
// fr. Caller holds st.mu.
func (st *learnerState) cutSnapshot(fr uint64) {
	dm, ok := st.rep.Machine().(smr.DurableMachine)
	if !ok {
		return
	}
	ex := st.replay.Export()
	replies := make([]snapshot.Reply, len(ex))
	for i, e := range ex {
		replies[i] = snapshot.Reply{CmdID: e.CmdID, Inst: e.Inst, Result: e.Result}
	}
	blob := snapshot.Encode(snapshot.Snapshot{
		Frontier: fr,
		State:    dm.MarshalState(),
		Order:    append([]uint64(nil), st.order...),
		Replies:  replies,
	})
	if st.snaps.Save(fr, blob) != nil {
		return // save failed: keep gossiping the old frontier, retention stays safe
	}
	st.snapFrontier = fr
	st.snapSaves++
}

// maybeSnapshot cuts a snapshot once the merge frontier is a full interval
// past the last cut. Caller holds st.mu.
func (st *learnerState) maybeSnapshot(every int) {
	if every <= 0 || st.snaps == nil {
		return
	}
	if fr := st.merger.Next(); fr >= st.snapFrontier+uint64(every) {
		st.cutSnapshot(fr)
	}
}

// install replaces the learner's applied state with a decoded snapshot:
// machine state, apply order, dedup floor and reply cache all jump to the
// snapshot's frontier, the retained log resets to empty at that base, and
// the merger skips there so only the suffix replays. It reports false —
// nothing installed — for a snapshot at or behind the current frontier or a
// machine that cannot restore. Caller holds st.mu.
func (st *learnerState) install(s snapshot.Snapshot, blob []byte) bool {
	dm, ok := st.rep.Machine().(smr.DurableMachine)
	if !ok || s.Frontier <= st.merger.Next() {
		return false
	}
	if err := dm.RestoreState(s.State); err != nil {
		return false
	}
	// Seed duplicate suppression with the snapshot's original results: a
	// command applied below the frontier and later restamped (its client
	// retried into a second instance) must re-elicit the result of its
	// first application, not a recomputed one.
	results := make(map[uint64]string, len(s.Replies))
	exported := make([]smr.ExportedReply, len(s.Replies))
	for i, rp := range s.Replies {
		results[rp.CmdID] = rp.Result
		exported[i] = smr.ExportedReply{CmdID: rp.CmdID, Inst: rp.Inst, Result: rp.Result}
	}
	for _, id := range s.Order {
		st.rep.Seed(id, results[id])
	}
	st.order = append([]uint64(nil), s.Order...)
	st.replay.Restore(exported)
	st.log = nil
	st.logBase = s.Frontier
	if s.Frontier > st.snapFrontier {
		st.snapFrontier = s.Frontier
	}
	// SkipTo flushes any buffered suffix through the deliver hook, which
	// appends to the (now empty) log relative to the new base.
	st.merger.SkipTo(s.Frontier)
	if st.snaps != nil {
		// The installed blob becomes this learner's own newest snapshot, so
		// it can serve transfers (and survive restarts, if durable) without
		// waiting for its next cut.
		st.snaps.Save(s.Frontier, blob)
	}
	return true
}

// truncate drops the retained log and reply-cache records below floor.
// Caller holds st.mu.
func (st *learnerState) truncate(floor uint64) {
	if floor <= st.logBase {
		return
	}
	drop := floor - st.logBase
	if drop > uint64(len(st.log)) {
		drop = uint64(len(st.log))
	}
	st.log = append([]cstruct.Cmd(nil), st.log[drop:]...)
	st.logBase += drop
	st.replay.EvictBelow(st.logBase)
}

// Replica runs one process's share of a deployment: any subset of the
// spec's coordinator, acceptor and learner nodes, each hosted on its own
// mailbox goroutine behind its own TCP endpoint. All protocol traffic —
// even between two nodes of the same Replica — crosses the TCP transport,
// so one process per node and all nodes in one process behave identically.
type Replica struct {
	spec ClusterSpec
	cfg  classic.Config

	mu       sync.Mutex
	nodes    map[msg.NodeID]*hosted
	learners map[msg.NodeID]*learnerState
}

// Open starts the given nodes of the spec in this process; with no IDs it
// opens every coordinator, acceptor and learner (a single-process
// deployment). Coordinators that are shard primaries start their shard's
// round immediately; the stack's retransmission makes bring-up robust to
// ordering as long as the acceptors are reachable.
func Open(spec ClusterSpec, ids ...uint32) (*Replica, error) {
	cfg, err := spec.config()
	if err != nil {
		return nil, err
	}
	if len(ids) == 0 {
		for _, group := range [][]NodeSpec{spec.Coords, spec.Acceptors, spec.Learners} {
			for _, n := range group {
				ids = append(ids, n.ID)
			}
		}
	}
	r := &Replica{
		spec:     spec,
		cfg:      cfg,
		nodes:    make(map[msg.NodeID]*hosted),
		learners: make(map[msg.NodeID]*learnerState),
	}
	for _, raw := range ids {
		if err := r.openNode(msg.NodeID(raw)); err != nil {
			r.Close()
			return nil, err
		}
	}
	// Leadership last, once every locally hosted node is reachable: each
	// shard's primary (coordinator k of shard k) starts the round; acceptors
	// broadcast their promises to the whole group, so one 1a establishes the
	// round at every member.
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, co := range cfg.Coords {
		if i >= cfg.NShards() {
			break
		}
		if h, ok := r.nodes[co]; ok {
			h.agent.Do(func(hd node.Handler) { hd.(*classic.Coordinator).BecomeLeader() })
		}
	}
	return r, nil
}

// roleOf locates id in the spec and returns its role and index.
func (r *Replica) roleOf(id msg.NodeID) (role string, idx int) {
	for i, n := range r.spec.Coords {
		if msg.NodeID(n.ID) == id {
			return "coordinator", i
		}
	}
	for i, n := range r.spec.Acceptors {
		if msg.NodeID(n.ID) == id {
			return "acceptor", i
		}
	}
	for i, n := range r.spec.Learners {
		if msg.NodeID(n.ID) == id {
			return "learner", i
		}
	}
	return "", -1
}

// openNode builds and wires one hosted node.
func (r *Replica) openNode(id msg.NodeID) error {
	role, idx := r.roleOf(id)
	if role == "" {
		return fmt.Errorf("deploy: node %v is not a coordinator, acceptor or learner of the spec", id)
	}
	r.mu.Lock()
	if _, dup := r.nodes[id]; dup {
		r.mu.Unlock()
		return fmt.Errorf("deploy: node %v already hosted", id)
	}
	r.mu.Unlock()

	h := &hosted{id: id, net: runtime.NewNetwork()}
	h.net.Tick = r.spec.tick()
	var buildErr error
	build := func(env node.Env) node.Handler {
		switch role {
		case "coordinator":
			c := classic.NewCoordinator(env, r.cfg)
			c.Shard = idx % r.cfg.NShards()
			c.MaxInflight = r.spec.Window
			// Coordinator 2a retransmission backstops lost accepts only; the
			// client already retries lost proposals at the base interval, so
			// the coordinators run much cooler — under a drain burst a hot
			// retransmitter amplifies itself (every duplicate 2a draws
			// re-announcements from the acceptors).
			c.RetryEvery = 4 * r.spec.retryTicks()
			// Server-side ingress: unsequenced client submissions batch and
			// stamp at whichever group member they reach. The fill no-op's ID
			// is the instance itself — below the client bits, so replyTo is 0
			// and no reply is ever owed for a fill.
			c.IngressBatchMax = r.spec.batchMax()
			c.IngressBatchWait = r.spec.batchWaitTicks()
			c.FillCmd = func(inst uint64) cstruct.Cmd {
				return cstruct.Cmd{ID: inst, Key: noopKey, Op: cstruct.OpWrite}
			}
			c.ReqOf = func(cc cstruct.Cmd) (msg.NodeID, uint64, bool) {
				if to := replyTo(cc.ID); to != 0 {
					return to, cc.ID & (1<<clientShift - 1), true
				}
				return 0, 0, false
			}
			return c
		case "acceptor":
			var disk storage.Stable = &storage.Disk{}
			if r.spec.WALDir != "" {
				w, err := wal.Open(filepath.Join(r.spec.WALDir, fmt.Sprintf("acc-%d", uint32(id))), wal.Options{})
				if err != nil {
					buildErr = fmt.Errorf("deploy: acceptor %v wal: %w", id, err)
					return nopHandler{}
				}
				h.wal = w
				disk = w
			}
			return classic.NewAcceptor(env, r.cfg, disk)
		default: // learner
			st := &learnerState{
				rep:      smr.NewReplica(smr.NewKVStore()),
				replay:   smr.NewReplyCache(r.spec.replyCacheSize(), clientShift),
				peerDone: make(map[msg.NodeID]uint64),
			}
			snapDir := ""
			if r.spec.SnapshotDir != "" {
				snapDir = filepath.Join(r.spec.SnapshotDir, fmt.Sprintf("learner-%d", uint32(id)))
			}
			snaps, err := snapshot.OpenStore(snapDir)
			if err != nil {
				buildErr = fmt.Errorf("deploy: learner %v snapshots: %w", id, err)
				return nopHandler{}
			}
			st.snaps = snaps
			every := r.spec.SnapshotEvery
			st.merger = smr.NewMerger(func(inst uint64, cmd cstruct.Cmd) {
				st.log = append(st.log, cmd)
				inner, isBatch := batch.Unpack(cmd)
				if !isBatch {
					inner = []cstruct.Cmd{cmd}
				}
				for _, c := range inner {
					res, dup := "noop", false
					if c.Key != noopKey {
						// Fill skips occupy an instance but never reach the
						// state machine or the apply order. A command seen
						// before — its first stamp decided after all and the
						// client's retry was restamped at a second instance —
						// re-elicits its cached result without re-applying or
						// re-entering the merged order.
						_, dup = st.rep.Result(c.ID)
						res = st.rep.ApplyOnce(c)
						if !dup {
							st.order = append(st.order, c.ID)
						}
					}
					if to := replyTo(c.ID); to != 0 {
						if !dup {
							st.replay.Put(c.ID, inst, res)
						}
						if !st.catchup {
							env.Send(to, msg.Reply{CmdID: c.ID, From: env.ID(), Inst: inst, Result: res})
						}
					}
				}
			})
			l := classic.NewLearner(env, r.cfg, func(inst uint64, cmd cstruct.Cmd) {
				st.mu.Lock()
				st.merger.Add(inst, cmd)
				st.maybeSnapshot(every)
				st.mu.Unlock()
				// Quiesce the owning group's retransmission of this instance
				// (the live counterpart of the simulator's MarkLearned hook).
				shard := r.cfg.ShardOf(inst)
				node.Broadcast(env, r.cfg.ShardCoords(shard), msg.P2b{Inst: inst})
			})
			// A repaired coordinator re-forwards its shard's whole history;
			// the acceptors' re-announcements of already-learned instances
			// land here. Re-acknowledge them so the repaired member's
			// pipeline window drains instead of wedging on decided slots.
			l.OnDuplicate = func(inst uint64) {
				shard := r.cfg.ShardOf(inst)
				node.Broadcast(env, r.cfg.ShardCoords(shard), msg.P2b{Inst: inst})
			}
			st.merger.OnRelease = l.Release
			// A restarted learner reloads its newest durable snapshot before
			// anything else: the merger jumps to the snapshot frontier, so
			// the catch-up fetcher pulls only the log suffix above it.
			if blob, fr, ok := snaps.Latest(); ok {
				if s, err := snapshot.Decode(blob); err == nil && s.Frontier == fr {
					st.mu.Lock()
					st.install(s, blob)
					st.mu.Unlock()
				}
			}
			// Peer learners serve the decided prefix a rejoining learner
			// missed; until the fetcher reaches a peer's frontier, replies
			// for replayed history stay suppressed (st.catchup).
			var peers []msg.NodeID
			for _, p := range r.cfg.Learners {
				if p != id {
					peers = append(peers, p)
				}
			}
			st.catchup = len(peers) > 0
			fetch := catchup.New(env, peers, r.spec.catchupChunk(),
				func() uint64 { st.mu.Lock(); defer st.mu.Unlock(); return st.merger.Next() },
				func() int { st.mu.Lock(); defer st.mu.Unlock(); return st.merger.Buffered() },
				func(inst uint64, cmd cstruct.Cmd) {
					st.mu.Lock()
					st.merger.Add(inst, cmd)
					st.maybeSnapshot(every)
					st.mu.Unlock()
				})
			fetch.RetryTicks = r.spec.retryTicks()
			fetch.WatchTicks = r.spec.fillTicks()
			// Durable-tier fallback: if no peer learner retains the prefix
			// this learner is missing, the acceptors re-announce their votes
			// and the ordinary quorum counting relearns it.
			fetch.Acceptors = r.cfg.Acceptors
			// A frozen frontier that no catch-up pull can move means the
			// stalled instance was never decided — its sequence slot died
			// with a crashed ingress stamper, or its shard idled while the
			// others advanced. Nudge the owning group to fill it.
			fetch.OnStall = func(frontier uint64) {
				shard := r.cfg.ShardOf(frontier)
				node.Broadcast(env, r.cfg.ShardCoords(shard), msg.Fill{Inst: frontier, Learner: id})
			}
			// Snapshot-shipping escalation: when a log pull is refused below
			// a peer's retention floor, the fetcher ships the peer's snapshot
			// and hands the verified blob here; installing it moves the merge
			// frontier so only the log suffix remains to pull.
			fetch.Install = func(frontier uint64, blob []byte) bool {
				s, err := snapshot.Decode(blob)
				if err != nil || s.Frontier != frontier {
					return false
				}
				st.mu.Lock()
				defer st.mu.Unlock()
				return st.install(s, blob)
			}
			if every > 0 {
				// The compaction watermark protocol rides the gap-watch
				// cadence: each tick recomputes the cluster minimum over the
				// gossiped snapshot frontiers, ratchets the local watermark,
				// truncates the retained log down to the retention floor, and
				// re-gossips Done to the peer learners (their minimum) and
				// the acceptors (their vote-history truncation gate). A peer
				// that has never reported holds the minimum at zero, so
				// truncation starts only once every learner has a snapshot.
				retain := r.spec.retain()
				accs := r.cfg.Acceptors
				fetch.OnWatch = func() {
					st.mu.Lock()
					fr := st.snapFrontier
					wm := fr
					for _, p := range peers {
						if pf := st.peerDone[p]; pf < wm {
							wm = pf
						}
					}
					if wm > st.watermark {
						st.watermark = wm
					}
					wm = st.watermark
					if wm > retain {
						st.truncate(wm - retain)
					}
					st.mu.Unlock()
					done := msg.Done{From: env.ID(), Frontier: fr, Watermark: wm}
					for _, p := range peers {
						env.Send(p, done)
					}
					for _, a := range accs {
						env.Send(a, done)
					}
				}
			}
			r.mu.Lock()
			r.learners[id] = st
			r.mu.Unlock()
			return &learnerHandler{env: env, r: r, st: st, l: l, fetch: fetch}
		}
	}
	h.agent = h.net.Spawn(id, build)
	if buildErr != nil {
		h.net.Stop()
		return buildErr
	}
	// Fault injection reaches this node's timers too (clock skew), not just
	// its message sends.
	h.net.SetFaults(r.spec.Faults)
	if role == "learner" {
		// The first catch-up probe goes out once the agent is registered: on
		// a fresh deployment the peers answer "nothing newer" and the
		// learner syncs immediately; after a restart it pulls the prefix.
		h.agent.Do(func(hd node.Handler) { hd.(*learnerHandler).fetch.Start() })
	}
	ln, err := r.spec.listen(r.spec.addrs()[id])
	if err != nil {
		h.net.Stop()
		if h.wal != nil {
			h.wal.Close()
		}
		return err
	}
	tcp := transport.NewTCPOnListener(id, ln, r.spec.addrs(), transport.Codec{Set: cstruct.SingleValueSet{}},
		func(from msg.NodeID, m msg.Message) { h.agent.Inject(from, m) })
	tcp.SetFaults(r.spec.Faults, r.spec.tick())
	h.tcp = tcp
	h.net.SetFallback(func(_, to msg.NodeID, m msg.Message) {
		_ = tcp.Send(to, m) // send failure is message loss, which the model allows
	})
	r.mu.Lock()
	r.nodes[id] = h
	r.mu.Unlock()
	return nil
}

// nopHandler stands in when a node failed to build (the error aborts Open).
type nopHandler struct{}

func (nopHandler) OnMessage(msg.NodeID, msg.Message) {}

// learnerHandler wraps a hosted learner's protocol handler with the deploy
// recovery concerns: replaying cached replies for retransmitted proposals,
// serving peer catch-up pulls from the retained decided prefix, and driving
// the learner's own catch-up fetcher.
type learnerHandler struct {
	env   node.Env
	r     *Replica
	st    *learnerState
	l     *classic.Learner
	fetch *catchup.Fetcher
}

var _ node.Handler = (*learnerHandler)(nil)
var _ node.TimerHandler = (*learnerHandler)(nil)

// OnMessage implements node.Handler.
func (h *learnerHandler) OnMessage(from msg.NodeID, m msg.Message) {
	switch mm := m.(type) {
	case msg.Propose:
		h.onReplayProbe(mm)
	case msg.CatchupReq:
		h.serve(mm)
	case msg.CatchupResp:
		h.fetch.OnResp(mm)
		if h.fetch.Synced() {
			h.st.mu.Lock()
			h.st.catchup = false
			h.st.mu.Unlock()
		}
	case msg.Done:
		h.onDone(mm)
	case msg.SnapReq:
		h.serveSnap(mm)
	case msg.SnapResp:
		h.fetch.OnSnapResp(mm)
	default:
		h.l.OnMessage(from, m)
	}
}

// OnTimer implements node.TimerHandler (the fetcher owns every learner
// timer).
func (h *learnerHandler) OnTimer(tag int) { h.fetch.OnTimer(tag) }

// onReplayProbe answers a client's retransmitted proposal from the replay
// cache: an already-applied command whose replies were all lost can never
// be re-elicited by the consensus path (the learners deduplicate it), so
// the cached result is re-sent instead. Commands not yet applied draw no
// answer here — the ordinary apply-time reply covers them.
func (h *learnerHandler) onReplayProbe(mm msg.Propose) {
	inner, isBatch := batch.Unpack(mm.Cmd)
	if !isBatch {
		inner = []cstruct.Cmd{mm.Cmd}
	}
	var hits []msg.Reply
	h.st.mu.Lock()
	for _, c := range inner {
		if replyTo(c.ID) == 0 {
			continue
		}
		if rec, ok := h.st.replay.Get(c.ID); ok {
			h.st.replayed++
			hits = append(hits, msg.Reply{CmdID: c.ID, From: h.env.ID(), Inst: rec.Inst, Result: rec.Result})
		}
	}
	h.st.mu.Unlock()
	for _, rep := range hits {
		h.env.Send(replyTo(rep.CmdID), rep)
	}
}

// serve answers a peer learner's catch-up request with one chunk of the
// retained decided prefix (bounded by the spec's chunk size and by the
// requester's own bound).
func (h *learnerHandler) serve(mm msg.CatchupReq) {
	max := h.r.spec.catchupChunk()
	if mm.Max > 0 && mm.Max < max {
		max = mm.Max
	}
	h.st.mu.Lock()
	frontier := h.st.merger.Next()
	base := h.st.logBase
	if mm.From < base {
		// The requested prefix was compacted away: refuse with the floor so
		// the requester escalates to snapshot transfer.
		h.st.mu.Unlock()
		h.env.Send(mm.Learner, msg.CatchupResp{
			Learner: h.env.ID(), From: mm.From, Frontier: frontier, Floor: base,
		})
		return
	}
	rel := mm.From - base
	var cmds []cstruct.Cmd
	if rel < uint64(len(h.st.log)) {
		end := rel + uint64(max)
		if end > uint64(len(h.st.log)) {
			end = uint64(len(h.st.log))
		}
		cmds = append([]cstruct.Cmd(nil), h.st.log[rel:end]...)
	}
	h.st.mu.Unlock()
	h.env.Send(mm.Learner, msg.CatchupResp{
		Learner: h.env.ID(), From: mm.From, Frontier: frontier, Cmds: cmds,
	})
}

// onDone records a peer learner's gossiped snapshot frontier. No ratchet: a
// peer that restarted with volatile snapshots honestly reports a lower
// frontier, and holding the cluster minimum down until it re-covers is
// exactly the conservative behaviour the watermark needs (the watermark
// itself never regresses — it only stops advancing).
func (h *learnerHandler) onDone(mm msg.Done) {
	h.st.mu.Lock()
	h.st.peerDone[mm.From] = mm.Frontier
	h.st.mu.Unlock()
}

// snapChunkBytes sizes SnapResp chunks: big enough to move a snapshot in a
// handful of messages, comfortably under the transport's frame cap.
const snapChunkBytes = 48 << 10

// serveSnap streams this learner's newest snapshot to a peer whose log pull
// was refused. No snapshot (or only one at or below the requester's own
// frontier) answers Total 0 — a no-op the requester's retry rotates past.
func (h *learnerHandler) serveSnap(mm msg.SnapReq) {
	blob, fr, ok := h.st.snaps.Latest()
	if !ok || fr <= mm.From {
		h.env.Send(mm.Learner, msg.SnapResp{Learner: h.env.ID()})
		return
	}
	crc := snapshot.Crc(blob)
	total := uint32((len(blob) + snapChunkBytes - 1) / snapChunkBytes)
	for seq := uint32(0); seq < total; seq++ {
		lo := int(seq) * snapChunkBytes
		hi := lo + snapChunkBytes
		if hi > len(blob) {
			hi = len(blob)
		}
		h.env.Send(mm.Learner, msg.SnapResp{
			Learner: h.env.ID(), Frontier: fr, Crc: crc,
			Seq: seq, Total: total, Chunk: blob[lo:hi],
		})
	}
}

// Hosted lists the node IDs this Replica runs (killed nodes excluded).
func (r *Replica) Hosted() []uint32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]uint32, 0, len(r.nodes))
	for id := range r.nodes {
		out = append(out, uint32(id))
	}
	return out
}

// Kill crash-stops one hosted node: its endpoint closes, its mailbox stops,
// and (for acceptors) its WAL closes as a process death would. Messages to
// it are lost from then on. It reports whether the node was hosted.
func (r *Replica) Kill(id uint32) bool {
	r.mu.Lock()
	h, ok := r.nodes[msg.NodeID(id)]
	delete(r.nodes, msg.NodeID(id))
	delete(r.learners, msg.NodeID(id))
	r.mu.Unlock()
	if !ok {
		return false
	}
	h.stop()
	return true
}

// Restart brings a previously killed (or never-opened) node of the spec
// back up, rebuilding its handler from scratch the way a process restart
// would: a WAL-backed acceptor reloads its votes from stable storage and
// its recovery hook runs; a restarted coordinator repairs its volatile
// round state by probing the acceptors (classic.Coordinator.Repair),
// rejoining the live round with zero round changes, so abandoned slots
// decide instead of retransmitting forever; a restarted learner rejoins
// through the catch-up protocol, pulling the decided prefix from its peers
// before resuming live quorum counting.
func (r *Replica) Restart(id uint32) error {
	if err := r.openNode(msg.NodeID(id)); err != nil {
		return err
	}
	r.mu.Lock()
	h := r.nodes[msg.NodeID(id)]
	r.mu.Unlock()
	h.agent.Do(func(hd node.Handler) {
		switch n := hd.(type) {
		case *classic.Coordinator:
			n.Repair()
		case node.Recoverable:
			n.OnRecover()
		}
	})
	return nil
}

// Close stops every hosted node.
func (r *Replica) Close() error {
	r.mu.Lock()
	nodes := make([]*hosted, 0, len(r.nodes))
	for _, h := range r.nodes {
		nodes = append(nodes, h)
	}
	r.nodes = make(map[msg.NodeID]*hosted)
	r.learners = make(map[msg.NodeID]*learnerState)
	r.mu.Unlock()
	for _, h := range nodes {
		h.stop()
	}
	return nil
}

// learner returns the SMR state of a hosted learner.
func (r *Replica) learner(id uint32) (*learnerState, error) {
	r.mu.Lock()
	st, ok := r.learners[msg.NodeID(id)]
	r.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("deploy: node %d is not a hosted learner", id)
	}
	return st, nil
}

// Applied reports how many distinct commands learner id's replica has
// applied.
func (r *Replica) Applied(id uint32) (int, error) {
	st, err := r.learner(id)
	if err != nil {
		return 0, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.rep.Applied(), nil
}

// Order returns the merged total order applied by learner id so far, as
// command IDs (batches unpacked).
func (r *Replica) Order(id uint32) ([]uint64, error) {
	st, err := r.learner(id)
	if err != nil {
		return nil, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]uint64(nil), st.order...), nil
}

// Snapshot renders learner id's state machine.
func (r *Replica) Snapshot(id uint32) (string, error) {
	st, err := r.learner(id)
	if err != nil {
		return "", err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.rep.Machine().Snapshot(), nil
}

// Get reads a key from learner id's KV state machine.
func (r *Replica) Get(id uint32, key string) (string, bool, error) {
	st, err := r.learner(id)
	if err != nil {
		return "", false, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	kv, ok := st.rep.Machine().(*smr.KVStore)
	if !ok {
		return "", false, fmt.Errorf("deploy: learner %d machine is not a KV store", id)
	}
	v, ok := kv.Get(key)
	return v, ok, nil
}

// Progress reports learner id's merge frontier (the next undelivered
// instance) and how many learned instances a gap is holding back: the
// convergence judgment of the nemesis harness ends a run stalled if any
// surviving learner still buffers behind a gap.
func (r *Replica) Progress(id uint32) (next uint64, buffered int, err error) {
	st, err := r.learner(id)
	if err != nil {
		return 0, 0, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.merger.Next(), st.merger.Buffered(), nil
}

// Replays sums, across the hosted learners, the replies re-elicited from
// the reply-replay caches (client retransmissions of already-applied
// commands).
func (r *Replica) Replays() uint64 {
	r.mu.Lock()
	sts := make([]*learnerState, 0, len(r.learners))
	for _, st := range r.learners {
		sts = append(sts, st)
	}
	r.mu.Unlock()
	var n uint64
	for _, st := range sts {
		st.mu.Lock()
		n += st.replayed
		st.mu.Unlock()
	}
	return n
}

// CatchupStats sums the catch-up fetcher activity across hosted learners.
func (r *Replica) CatchupStats() catchup.Stats {
	r.mu.Lock()
	var hosts []*hosted
	for _, n := range r.spec.Learners {
		if h, ok := r.nodes[msg.NodeID(n.ID)]; ok {
			hosts = append(hosts, h)
		}
	}
	r.mu.Unlock()
	var s catchup.Stats
	for _, h := range hosts {
		h.agent.Do(func(hd node.Handler) {
			fs := hd.(*learnerHandler).fetch.Stats()
			s.Reqs += fs.Reqs
			s.Chunks += fs.Chunks
			s.Cmds += fs.Cmds
			s.Resyncs += fs.Resyncs
			s.Probes += fs.Probes
			s.Fallbacks += fs.Fallbacks
			s.SnapReqs += fs.SnapReqs
			s.SnapChunks += fs.SnapChunks
			s.SnapInstalls += fs.SnapInstalls
			s.SnapAborts += fs.SnapAborts
		})
	}
	return s
}

// CompactionStats aggregates the snapshot/compaction state across the hosted
// learners: how many snapshots were cut, how far the watermark and the
// truncation base have advanced, the largest retained (resident) log, and
// the snapshot stores' footprint.
type CompactionStats struct {
	// Saves counts snapshots cut (not counting installed transfers).
	Saves uint64
	// Watermark is the highest compaction watermark any learner computed;
	// LogBase the highest truncation base (first retained log instance).
	Watermark, LogBase uint64
	// ResidentLog is the largest retained log (instances) on any learner —
	// the quantity compaction bounds.
	ResidentLog int
	// SnapFiles / SnapBytes sum the snapshot stores' footprint (on disk for
	// durable stores, resident blob for memory-only ones).
	SnapFiles int
	SnapBytes int64
}

// CompactionStats reports the hosted learners' compaction state.
func (r *Replica) CompactionStats() CompactionStats {
	r.mu.Lock()
	sts := make([]*learnerState, 0, len(r.learners))
	for _, st := range r.learners {
		sts = append(sts, st)
	}
	r.mu.Unlock()
	var cs CompactionStats
	for _, st := range sts {
		st.mu.Lock()
		cs.Saves += st.snapSaves
		if st.watermark > cs.Watermark {
			cs.Watermark = st.watermark
		}
		if st.logBase > cs.LogBase {
			cs.LogBase = st.logBase
		}
		if len(st.log) > cs.ResidentLog {
			cs.ResidentLog = len(st.log)
		}
		snaps := st.snaps
		st.mu.Unlock()
		if snaps != nil {
			files, bytes := snaps.DiskStats()
			cs.SnapFiles += files
			cs.SnapBytes += bytes
		}
	}
	return cs
}

// Compaction reports learner id's own compaction state: its newest snapshot
// frontier, the cluster watermark it has computed, and the first log
// instance it still retains.
func (r *Replica) Compaction(id uint32) (frontier, watermark, logBase uint64, err error) {
	st, err := r.learner(id)
	if err != nil {
		return 0, 0, 0, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.snapFrontier, st.watermark, st.logBase, nil
}

// AcceptorFloors reports each hosted acceptor's vote-history compaction
// floor (instances below it were truncated on a gossiped watermark).
func (r *Replica) AcceptorFloors() []uint64 {
	var out []uint64
	for _, h := range r.acceptorHosts() {
		h.agent.Do(func(hd node.Handler) {
			out = append(out, hd.(*classic.Acceptor).Floor())
		})
	}
	return out
}

// WALDiskStats sums the hosted acceptors' on-disk WAL footprint: live
// segments, index snapshots, and total bytes. All zeros without a WALDir.
func (r *Replica) WALDiskStats() (segs, snaps int, bytes int64) {
	for _, h := range r.acceptorHosts() {
		if h.wal != nil {
			s, n, b := h.wal.DiskStats()
			segs += s
			snaps += n
			bytes += b
		}
	}
	return
}

// CatchupSynced reports whether learner id's rejoin pull has reached a
// peer's frontier (true for a learner with no peers).
func (r *Replica) CatchupSynced(id uint32) (bool, error) {
	r.mu.Lock()
	h, ok := r.nodes[msg.NodeID(id)]
	r.mu.Unlock()
	if !ok {
		return false, fmt.Errorf("deploy: node %d is not hosted", id)
	}
	synced, err := false, fmt.Errorf("deploy: node %d is not a hosted learner", id)
	h.agent.Do(func(hd node.Handler) {
		if l, ok := hd.(*learnerHandler); ok {
			synced, err = l.fetch.Synced(), nil
		}
	})
	return synced, err
}

// WaitApplied blocks until learner id has applied n distinct commands or the
// timeout elapses.
func (r *Replica) WaitApplied(id uint32, n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		got, err := r.Applied(id)
		if err != nil {
			return err
		}
		if got >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("deploy: learner %d applied %d/%d after %v", id, got, n, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// NetStats sums the wire traffic counters across every hosted node's TCP
// endpoint (bytes/cmd and codec-time accounting for the live bench).
func (r *Replica) NetStats() transport.TCPStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	var s transport.TCPStats
	for _, h := range r.nodes {
		if h.tcp != nil {
			s = s.Plus(h.tcp.Stats())
		}
	}
	return s
}

// IngressCounts sums the server-side ingress activity across the hosted,
// live coordinators: sequence slots stamped, client requests that lost their
// stamped slot to a collision (restamped on retry), and no-op fills adopted
// for stalled instances.
func (r *Replica) IngressCounts() (stamped, restamped, filled uint64) {
	for _, h := range r.coordHosts() {
		h.agent.Do(func(hd node.Handler) {
			s, re, f := hd.(*classic.Coordinator).IngressCounts()
			stamped += s
			restamped += re
			filled += f
		})
	}
	return
}

// RoundChanges sums the post-establishment round changes across the hosted,
// live coordinators: the currency of the crash-masking claim (a masked
// coordinator crash costs zero).
func (r *Replica) RoundChanges() int {
	n := 0
	for _, h := range r.coordHosts() {
		h.agent.Do(func(hd node.Handler) { n += hd.(*classic.Coordinator).RoundChanges() })
	}
	return n
}

// ShardRounds reports, per shard, the highest round any hosted acceptor is
// serving: comparing snapshots before and after a drain detects round
// changes even when the crashed coordinator can no longer report.
func (r *Replica) ShardRounds() []ballot.Ballot {
	out := make([]ballot.Ballot, r.cfg.NShards())
	for _, h := range r.acceptorHosts() {
		h.agent.Do(func(hd node.Handler) {
			a := hd.(*classic.Acceptor)
			for k := range out {
				out[k] = ballot.Max(out[k], a.ShardRnd(k))
			}
		})
	}
	return out
}

func (r *Replica) coordHosts() []*hosted {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []*hosted
	for _, n := range r.spec.Coords {
		if h, ok := r.nodes[msg.NodeID(n.ID)]; ok {
			out = append(out, h)
		}
	}
	return out
}

func (r *Replica) acceptorHosts() []*hosted {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []*hosted
	for _, n := range r.spec.Acceptors {
		if h, ok := r.nodes[msg.NodeID(n.ID)]; ok {
			out = append(out, h)
		}
	}
	return out
}
