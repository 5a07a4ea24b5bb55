package deploy

import (
	"bytes"

	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/node"
	"mcpaxos/internal/snapshot"
)

// Learner catch-up, both halves of the pull. A restarted (or gap-stalled)
// learner pulls the decided prefix it is missing from its peer learners
// instead of waiting for 2b announcements nobody will re-send: acceptors
// quiesce an instance once the learners acknowledge it, so the live quorum
// traffic a fresh learner counts starts at the current frontier, not at
// instance 0. This is the learner half of the paper's Section 4.4 recovery
// story (recovered processes rebuild volatile state from their peers), with
// the chunked pull shape of the MIT paxos Min()/Done() catch-up contract.
//
// serve and serveSnap answer a peer's pull from the retained log and the
// newest snapshot. The fetch methods drive this learner's own pull: they ask
// one peer at a time for the next chunk above the merge frontier, chaining
// chunks until a peer reports nothing newer. A gap watch keeps running after
// the initial sync: if the merged order stalls on a gap while later instances
// sit buffered — the signature of a quiesced decided instance this learner
// missed — it re-probes the peers, asks the acceptors to re-announce the gap,
// and nudges the gap's coordinator group (onStall). Everything here runs on
// the learner's mailbox goroutine.
//
// The wire conventions both halves keep:
//   - a CatchupReq draws at most min(Max, catchupChunk) instances from From;
//   - a CatchupResp with Floor above the requester's frontier is a refusal:
//     the prefix was compacted below the responder's retention floor, and the
//     requester escalates to a snapshot pull;
//   - a SnapResp with Total 0 means "no snapshot newer than your From";
//   - a snapshot travels in at most maxSnapChunks chunks of at most
//     snapChunkBytes each, and installs only whole and CRC-verified.
const (
	// catchupChunk bounds how many instances one catch-up response carries.
	catchupChunk = 128
	// snapChunkBytes sizes SnapResp chunks: big enough to move a snapshot in
	// a handful of messages, comfortably under the transport's frame cap.
	snapChunkBytes = 48 << 10
	// maxSnapChunks is the chunk count of the longest blob snapshot.Decode
	// accepts: a SnapResp claiming more cannot be a snapshot, and its Total
	// must not size an allocation.
	maxSnapChunks = (snapshot.MaxBlob + snapChunkBytes - 1) / snapChunkBytes
)

// CatchupStats counts a learner's catch-up activity.
type CatchupStats struct {
	// Reqs counts chunk requests sent; Chunks counts responses consumed;
	// Cmds counts instances fed to the merger from responses.
	Reqs, Chunks, Cmds uint64
	// Resyncs counts gap-watch re-probes after the initial sync.
	Resyncs uint64
	// Probes counts steady-state anti-entropy frontier probes (watch ticks
	// with nothing buffered and nothing known missing).
	Probes uint64
	// Fallbacks counts acceptor re-announce rounds (one per resync).
	Fallbacks uint64
	// SnapReqs counts snapshot transfer requests (log pulls refused below a
	// peer's retention floor escalate here); SnapChunks the chunks consumed;
	// SnapInstalls completed installations; SnapAborts assemblies discarded
	// for a CRC mismatch or a rejected install.
	SnapReqs, SnapChunks, SnapInstalls, SnapAborts uint64
}

// Plus returns the component-wise sum (for aggregating learners).
func (s CatchupStats) Plus(o CatchupStats) CatchupStats {
	s.Reqs += o.Reqs
	s.Chunks += o.Chunks
	s.Cmds += o.Cmds
	s.Resyncs += o.Resyncs
	s.Probes += o.Probes
	s.Fallbacks += o.Fallbacks
	s.SnapReqs += o.SnapReqs
	s.SnapChunks += o.SnapChunks
	s.SnapInstalls += o.SnapInstalls
	s.SnapAborts += o.SnapAborts
	return s
}

// fetchState is the state of the learner's own pull.
type fetchState struct {
	// synced: caught up to a peer's frontier, and no gap watch has re-opened
	// the pull since. A learner with no peers is born synced.
	synced     bool
	rr         int // peer rotation cursor
	retryArmed bool
	// progressed: instances were fed or snapshot chunks assembled since the
	// retry timer was armed, so its tick leaves the pull to its peer.
	progressed bool
	// snap is the open snapshot pull (nil: none).
	snap *snapAssembly
	// watchNext is the frontier seen by the previous watch tick; a stall is
	// two consecutive ticks at the same frontier with something missing.
	watchNext    uint64
	watchStalled bool
	stats        CatchupStats
}

// snapAssembly reassembles one snapshot transfer in place, keyed by the
// responder's (peer, frontier, crc, total); a chunk of another key restarts
// it. chunks is nil until the first chunk arrives.
type snapAssembly struct {
	from     msg.NodeID
	frontier uint64
	crc      uint32
	chunks   [][]byte
	got      uint32
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
	total := uint32((len(blob) + snapChunkBytes - 1) / snapChunkBytes)
	for seq := uint32(0); seq < total; seq++ {
		lo := int(seq) * snapChunkBytes
		l.env.Send(mm.Learner, msg.SnapResp{
			Learner: l.env.ID(), Frontier: fr, Crc: crc,
			Seq: seq, Total: total, Chunk: blob[lo:min(lo+snapChunkBytes, len(blob))],
		})
	}
}

// startFetch issues the first probe and starts the gap watch. On a fresh
// deployment the peers answer "frontier 0, nothing newer" and the learner
// syncs at once; after a restart the probe begins the prefix pull.
func (l *learner) startFetch() {
	if !l.fetch.synced {
		l.request()
	}
	l.env.SetTimer(l.watchEvery, timerWatch)
}

// peer is the current pull source.
func (l *learner) peer() msg.NodeID { return l.peers[l.fetch.rr%len(l.peers)] }

// request asks the current peer for the next chunk and arms the retry.
func (l *learner) request() {
	l.env.Send(l.peer(), msg.CatchupReq{Learner: l.env.ID(), From: l.merger.Next(), Max: catchupChunk})
	l.fetch.stats.Reqs++
	l.armRetry()
}

// snapReq asks the current peer for its newest snapshot and arms the retry.
func (l *learner) snapReq() {
	l.env.Send(l.peer(), msg.SnapReq{Learner: l.env.ID(), From: l.merger.Next()})
	l.fetch.stats.SnapReqs++
	l.armRetry()
}

func (l *learner) armRetry() {
	if !l.fetch.retryArmed {
		l.fetch.retryArmed, l.fetch.progressed = true, false
		l.env.SetTimer(l.retryEvery, timerFetch)
	}
}

// resync re-opens the pull after the gap watch saw the frontier stall. It
// also asks the acceptors to re-announce the gap range: a resync means the
// peers already failed to fill the gap once, and if they lost the prefix too
// (every learner restarted in overlapping windows) only the acceptors still
// have it. Their 2bs flow through the ordinary quorum counting.
func (l *learner) resync() {
	node.Broadcast(l.env, l.cfg.Acceptors, msg.CatchupReq{Learner: l.env.ID(), From: l.merger.Next(), Max: catchupChunk})
	l.fetch.stats.Fallbacks++
	if len(l.peers) == 0 {
		return
	}
	l.fetch.synced = false
	l.request()
}

// onCatchupResp consumes one peer response. Stale responses — for a frontier
// the merger has already passed — are dropped; the in-flight request keyed by
// the current frontier eventually lands or is retried. A response arriving
// while synced is a frontier-probe answer: it is dropped unless the peer
// proves it holds something newer, in which case the pull re-opens.
func (l *learner) onCatchupResp(m msg.CatchupResp) {
	f := &l.fetch
	cur := l.merger.Next()
	if len(l.peers) == 0 || m.From > cur {
		// Nobody was asked, or this answers a frontier we have not reached
		// (reordered): the refetch covers it.
		return
	}
	if f.synced {
		if m.Frontier <= cur {
			return // steady-state probe answer: the peer has nothing newer
		}
		f.synced = false
	}
	if m.Floor > cur {
		// Refusal: only a snapshot covering our gap can make progress. Open
		// a snapshot pull unless one is in flight.
		if f.snap == nil {
			f.snap = &snapAssembly{}
			l.snapReq()
		}
		return
	}
	f.stats.Chunks++
	for i, cmd := range m.Cmds {
		if inst := m.From + uint64(i); inst >= cur {
			l.pulled(inst, cmd)
			f.stats.Cmds++
			f.progressed = true
		}
	}
	if l.merger.Next() >= m.Frontier {
		// Caught up to this peer: resume live quorum counting. A peer that
		// was itself behind undercounts; the gap watch re-probes if the live
		// feed then stalls. A completed log pull obviates any snapshot
		// transfer still in flight.
		f.synced, f.snap = true, nil
		return
	}
	// More to pull: chain the next chunk at once (same peer — it just proved
	// it has the prefix).
	l.request()
}

// onSnapResp consumes one snapshot chunk. The blob installs only when every
// chunk arrived and the whole-blob CRC matches: a corrupt or truncated
// transfer never installs partially, it restarts against the next peer.
func (l *learner) onSnapResp(m msg.SnapResp) {
	f := &l.fetch
	a := f.snap
	if a == nil || m.Total == 0 {
		return // no pull open, or the peer has no snapshot: the retry rotates
	}
	if m.Total > maxSnapChunks || m.Seq >= m.Total || len(m.Chunk) > snapChunkBytes {
		return // no sender cuts a decodable snapshot this way
	}
	if m.Frontier <= l.merger.Next() {
		// A snapshot at or below our frontier cannot help: abandon the
		// transfer and re-open the log pull from another peer.
		f.snap = nil
		f.rr++
		l.request()
		return
	}
	if a.chunks == nil || m.Learner != a.from || m.Frontier != a.frontier ||
		m.Crc != a.crc || uint64(m.Total) != uint64(len(a.chunks)) {
		*a = snapAssembly{from: m.Learner, frontier: m.Frontier, crc: m.Crc, chunks: make([][]byte, m.Total)}
	}
	if a.chunks[m.Seq] == nil {
		a.chunks[m.Seq] = m.Chunk
		a.got++
		f.stats.SnapChunks++
		f.progressed = true
	}
	if a.got < uint32(len(a.chunks)) {
		return
	}
	blob := bytes.Join(a.chunks, nil)
	if snapshot.Crc(blob) != a.crc || !l.installBlob(a.frontier, blob) {
		// Damaged in flight or refused by installBlob: nothing was
		// installed. Restart the transfer against the next peer.
		f.stats.SnapAborts++
		*a = snapAssembly{}
		f.rr++
		l.snapReq()
		return
	}
	f.stats.SnapInstalls++
	// The snapshot closed the compacted prefix; pull the log suffix above
	// the new frontier as an ordinary catch-up.
	f.snap, f.synced = nil, false
	l.request()
}

// onRetry is the fetch retry's tick. A pull that fed instances or assembled
// chunks since the timer was armed is still moving: the timer re-arms and the
// pull keeps its peer and its partial assembly. A silent one lost its request
// or response, or its peer is down: it rotates to the next peer and asks
// again.
func (l *learner) onRetry() {
	f := &l.fetch
	f.retryArmed = false
	switch {
	case f.synced: // nothing outstanding
	case f.progressed:
		l.armRetry()
	case f.snap != nil:
		f.rr++
		*f.snap = snapAssembly{}
		l.snapReq()
	default:
		f.rr++
		l.request()
	}
}

// onWatch is the gap watch's tick; it also runs the watermark gossip. It
// re-probes when the merged order has been stalled for two consecutive watch
// periods with evidence something is missing: buffered instances above a
// frozen frontier mean the gap instance was decided (its successors were) but
// its 2bs are gone, and an unsynced pull whose frontier froze means the peers
// are failing to supply a known-existing suffix — either way only a re-probe
// (and the acceptor fallback) can make progress. When nothing is known
// missing, the tick instead sends one anti-entropy frontier probe to a
// rotating peer: a learner that lost the 2bs of the *trailing* decided
// instance has nothing buffered, so the stall check can never fire, and only
// a peer's word that its frontier is higher reveals the miss (onCatchupResp
// re-opens the pull on that evidence).
func (l *learner) onWatch() {
	f := &l.fetch
	l.gossip()
	n := l.merger.Next()
	// A snapshot transfer in flight owns its own retry cadence; the stall
	// escalation would only thrash it.
	behind := (l.merger.Buffered() > 0 || !f.synced) && f.snap == nil
	stalled := behind && n == f.watchNext
	if stalled && f.watchStalled {
		f.stats.Resyncs++
		l.resync()
		l.onStall(n)
	} else if !behind && len(l.peers) > 0 {
		f.rr++
		l.env.Send(l.peer(), msg.CatchupReq{Learner: l.env.ID(), From: n, Max: catchupChunk})
		f.stats.Probes++
	}
	f.watchStalled, f.watchNext = stalled, n
	l.env.SetTimer(l.watchEvery, timerWatch)
}
