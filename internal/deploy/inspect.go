package deploy

import (
	"fmt"
	"maps"
	"slices"

	"mcpaxos/internal/ballot"
	"mcpaxos/internal/catchup"
	"mcpaxos/internal/classic"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/node"
	"mcpaxos/internal/smr"
	"mcpaxos/internal/snapshot"
	"mcpaxos/internal/transport"
)

// The read-only side of Replica. Every node is single-threaded, so every read
// of handler state runs on the node's mailbox goroutine (Agent.Do), through
// on and onEach; only the stores that synchronise themselves — the WALs, the
// snapshot stores' directories, the TCP counters — are read from here.

// hosts returns the endpoints of those of the given spec nodes this Replica
// runs, in spec order.
func (r *Replica) hosts(nodes []NodeSpec) []*endpoint {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []*endpoint
	for _, n := range nodes {
		if e, ok := r.nodes[msg.NodeID(n.ID)]; ok {
			out = append(out, e)
		}
	}
	return out
}

// on runs fn on hosted node id's mailbox goroutine. It runs nothing for a
// node this Replica does not host, nor for one killed before fn reached its
// mailbox.
func (r *Replica) on(id msg.NodeID, fn func(node.Handler)) {
	if e, ok := r.host(id); ok {
		e.agent.Do(fn)
	}
}

// onEach runs fn on the mailbox goroutine of each hosted node of the given
// role, in spec order; a node killed meanwhile is skipped.
func (r *Replica) onEach(nodes []NodeSpec, fn func(node.Handler)) {
	for _, e := range r.hosts(nodes) {
		e.agent.Do(fn)
	}
}

const errNotLearner = "deploy: node %d is not a hosted learner"

// read runs fn on hosted learner id's mailbox goroutine. A node that is not a
// learner, not hosted, or killed before fn ran reports errNotLearner, never
// a zero value.
func (r *Replica) read(id uint32, fn func(l *learner)) error {
	ran := false
	r.on(msg.NodeID(id), func(hd node.Handler) {
		if l, ok := hd.(*learner); ok {
			fn(l)
			ran = true
		}
	})
	if !ran {
		return fmt.Errorf(errNotLearner, id)
	}
	return nil
}

// Applied reports how many distinct commands learner id's replica has
// applied.
func (r *Replica) Applied(id uint32) (n int, err error) {
	err = r.read(id, func(l *learner) { n = l.rep.Applied() })
	return
}

// Order returns the merged total order applied by learner id so far, as
// command IDs (batches unpacked).
func (r *Replica) Order(id uint32) (order []uint64, err error) {
	err = r.read(id, func(l *learner) { order = append([]uint64(nil), l.rep.Order()...) })
	return
}

// Snapshot renders learner id's state machine.
func (r *Replica) Snapshot(id uint32) (state string, err error) {
	err = r.read(id, func(l *learner) { state = l.rep.Machine().Snapshot() })
	return
}

// Get reads a key from learner id's KV state machine.
func (r *Replica) Get(id uint32, key string) (value string, ok bool, err error) {
	err = r.read(id, func(l *learner) { value, ok = l.rep.Machine().(*smr.KVStore).Get(key) })
	return
}

// Progress reports learner id's merge frontier (the next undelivered
// instance) and how many learned instances a gap is holding back: the
// convergence judgment of the nemesis harness ends a run stalled if any
// surviving learner still buffers behind a gap.
func (r *Replica) Progress(id uint32) (next uint64, buffered int, err error) {
	err = r.read(id, func(l *learner) { next, buffered = l.merger.Next(), l.merger.Buffered() })
	return
}

// Compaction reports learner id's own compaction state: its newest snapshot
// frontier, the cluster watermark it has computed, and the first log
// instance it still retains.
func (r *Replica) Compaction(id uint32) (frontier, watermark, logBase uint64, err error) {
	err = r.read(id, func(l *learner) { frontier, watermark, logBase = l.snapFrontier, l.watermark, l.logBase })
	return
}

// CatchupSynced reports whether learner id's rejoin pull has reached a
// peer's frontier (true for a learner with no peers).
func (r *Replica) CatchupSynced(id uint32) (synced bool, err error) {
	err = r.read(id, func(l *learner) { synced = l.fetch.Synced() })
	return
}

// Replays sums, across the hosted learners, the replies re-elicited from
// the reply-replay caches (client retransmissions of already-applied
// commands).
func (r *Replica) Replays() uint64 {
	var n uint64
	r.onEach(r.spec.Learners, func(hd node.Handler) { n += hd.(*learner).replayed })
	return n
}

// CatchupStats sums the catch-up fetcher activity across hosted learners.
func (r *Replica) CatchupStats() catchup.Stats {
	var s catchup.Stats
	r.onEach(r.spec.Learners, func(hd node.Handler) { s = s.Plus(hd.(*learner).fetch.Stats()) })
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
	var cs CompactionStats
	var stores []*snapshot.Store
	r.onEach(r.spec.Learners, func(hd node.Handler) {
		l := hd.(*learner)
		cs.Saves += l.snapSaves
		cs.Watermark = max(cs.Watermark, l.watermark)
		cs.LogBase = max(cs.LogBase, l.logBase)
		cs.ResidentLog = max(cs.ResidentLog, len(l.log))
		stores = append(stores, l.snaps)
	})
	// Off the mailbox: a durable store stats its directory.
	for _, st := range stores {
		files, bytes := st.DiskStats()
		cs.SnapFiles += files
		cs.SnapBytes += bytes
	}
	return cs
}

// AcceptorFloors reports each hosted acceptor's vote-history compaction
// floor (instances below it were truncated on a gossiped watermark).
func (r *Replica) AcceptorFloors() []uint64 {
	var out []uint64
	r.onEach(r.spec.Acceptors, func(hd node.Handler) { out = append(out, hd.(*classic.Acceptor).Floor()) })
	return out
}

// ShardRounds reports, per shard, the highest round any hosted acceptor is
// serving: comparing snapshots before and after a drain detects round
// changes even when the crashed coordinator can no longer report.
func (r *Replica) ShardRounds() []ballot.Ballot {
	out := make([]ballot.Ballot, r.cfg.NShards())
	r.onEach(r.spec.Acceptors, func(hd node.Handler) {
		a := hd.(*classic.Acceptor)
		for k := range out {
			out[k] = ballot.Max(out[k], a.ShardRnd(k))
		}
	})
	return out
}

// WALDiskStats sums the hosted acceptors' on-disk WAL footprint: live
// segments, index snapshots, and total bytes. All zeros without a WALDir.
func (r *Replica) WALDiskStats() (segs, snaps int, bytes int64) {
	// Stat outside r.mu: DiskStats waits for the WAL's lock, which an Append
	// holds across its fsync.
	r.mu.Lock()
	wals := slices.Collect(maps.Values(r.wals))
	r.mu.Unlock()
	for _, w := range wals {
		s, n, b := w.DiskStats()
		segs += s
		snaps += n
		bytes += b
	}
	return
}

// IngressCounts sums the server-side ingress activity across the hosted,
// live coordinators: sequence slots stamped, client requests that lost their
// stamped slot to a collision (restamped on retry), and no-op fills adopted
// for stalled instances.
func (r *Replica) IngressCounts() (stamped, restamped, filled uint64) {
	r.onEach(r.spec.Coords, func(hd node.Handler) {
		s, re, f := hd.(*classic.Coordinator).IngressCounts()
		stamped += s
		restamped += re
		filled += f
	})
	return
}

// RoundChanges sums the post-establishment round changes across the hosted,
// live coordinators: the currency of the crash-masking claim (a masked
// coordinator crash costs zero).
func (r *Replica) RoundChanges() int {
	n := 0
	r.onEach(r.spec.Coords, func(hd node.Handler) { n += hd.(*classic.Coordinator).RoundChanges() })
	return n
}

// NetStats sums the wire traffic counters across every hosted node's TCP
// endpoint (bytes/cmd and codec-time accounting for the live bench).
func (r *Replica) NetStats() transport.TCPStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	var s transport.TCPStats
	for _, e := range r.nodes {
		s = s.Plus(e.tcp.Stats())
	}
	return s
}
