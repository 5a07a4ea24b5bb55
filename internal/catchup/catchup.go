// Package catchup implements learner rejoin: a restarted (or gap-stalled)
// learner pulls the decided prefix it is missing from its peer learners
// instead of waiting for 2b announcements nobody will re-send — acceptors
// quiesce an instance once the learners acknowledge it, so the live quorum
// traffic a fresh learner counts starts at the current frontier, not at
// instance 0. This is the learner half of the paper's Section 4.4 recovery
// story (recovered processes rebuild volatile state from their peers), with
// the chunked pull shape of the MIT paxos Min()/Done() catch-up contract.
//
// The Fetcher is part of the learner's handler and runs on its mailbox
// goroutine, like every call into it, its callbacks included: the host routes
// CatchupResp and SnapResp messages and timer ticks to it, and it asks one
// peer at a time for the next chunk above the local merge frontier, chaining
// chunks until a peer reports nothing newer. A gap watch keeps running after
// the initial sync: if the merged order stalls on a gap while later instances
// sit buffered — the signature of a quiesced decided instance this learner
// missed — the fetcher re-probes the peers, asks the acceptors to re-announce
// the gap, and reports the stall to the host.
package catchup

import (
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/node"
	"mcpaxos/internal/snapshot"
)

// Timer tags the Fetcher consumes via OnTimer. Hosts embedding the fetcher
// in a handler with its own timers must keep these distinct.
const (
	// TagFetch re-sends the outstanding chunk request (lost request or
	// response, or a dead peer: the retry rotates to the next one).
	TagFetch = 101
	// TagWatch is the steady-state gap watch.
	TagWatch = 102
)

// SnapChunkBytes sizes SnapResp chunks: big enough to move a snapshot in a
// handful of messages, comfortably under the transport's frame cap. Senders
// cut at it and the Fetcher refuses longer chunks.
const SnapChunkBytes = 48 << 10

// maxSnapChunks is the chunk count of the longest blob snapshot.Decode
// accepts: a SnapResp claiming more chunks cannot be a snapshot, and its Total
// must not size an allocation.
const maxSnapChunks = (snapshot.MaxBlob + SnapChunkBytes - 1) / SnapChunkBytes

// Stats counts the fetcher's activity.
type Stats struct {
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
func (s Stats) Plus(o Stats) Stats {
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

// Fetcher drives one learner's catch-up. Not safe for concurrent use: every
// method must run on the learner's mailbox goroutine.
type Fetcher struct {
	env   node.Env
	peers []msg.NodeID // peer learners, self excluded
	// accs is the durable-tier fallback: every resync also asks the
	// acceptors to re-announce their votes for the gap range, covering the
	// case where no peer learner retains the decided prefix (every learner
	// restarted while the others were down). The re-announced 2bs flow
	// through the learner's ordinary quorum counting, not through feed.
	accs  []msg.NodeID
	chunk uint32
	// retry is the re-request interval, watch the gap-watch period (ticks).
	retry, watch int64
	// OnWatch, when set, fires on every watch tick. Hosts use it as the
	// anti-entropy heartbeat of the compaction watermark protocol: the
	// learner gossips its Done frontier (msg.Done) on the same cadence the
	// fetcher probes peers.
	OnWatch func()

	// next reports the local merge frontier; buffered how many instances
	// are held back by a gap; feed hands one decided (instance, command)
	// pair to the merger.
	next     func() uint64
	buffered func() int
	feed     func(inst uint64, cmd cstruct.Cmd)
	// onStall fires alongside each stall-triggered resync with the frozen
	// frontier, so the host can nudge the frontier instance's coordinator
	// group (msg.Fill): a resync can only recover instances that were
	// *decided* and lost, while a stall on a sequence slot that was stamped
	// but never proposed — its ingress stamper crashed, or the shard went
	// idle while its peers advanced — needs the group to fill the slot
	// before anything can decide it.
	onStall func(frontier uint64)
	// install takes the reassembled, CRC-verified blob of a snapshot
	// transfer — a log pull refused below a peer's retention floor
	// (CatchupResp.Floor > frontier) escalates to one — and reports whether
	// it was applied, after which the local frontier must reflect it; a
	// false return discards the blob and the pull rotates to another peer.
	install func(frontier uint64, blob []byte) bool

	synced     bool
	rr         int // peer rotation cursor
	fetchArmed bool
	watchArmed bool
	// Snapshot pull state: chunks are keyed by (peer, frontier, crc, total)
	// and reassembled in place; any mismatch restarts the assembly.
	pullingSnap  bool
	snapFrom     msg.NodeID
	snapFrontier uint64
	snapCrc      uint32
	snapChunks   [][]byte
	snapGot      uint32
	// watchNext is the frontier seen by the previous watch tick; a stall is
	// two consecutive ticks at the same frontier with instances buffered.
	watchNext    uint64
	watchStalled bool

	stats Stats
}

// New builds the fetcher of a learner over env: peers are the other learners
// (the learner itself excluded; with none the fetcher is born synced, with
// nothing to pull from), accs the acceptors, chunk the most instances one
// request asks for, retry and watch the re-request and gap-watch periods in
// ticks. The learner's merge state is exposed through next, buffered and
// feed, its stall nudge and snapshot install through onStall and install;
// the fetcher calls all five on the learner's goroutine.
func New(env node.Env, peers, accs []msg.NodeID, chunk uint32, retry, watch int64,
	next func() uint64, buffered func() int, feed func(inst uint64, cmd cstruct.Cmd),
	onStall func(frontier uint64), install func(frontier uint64, blob []byte) bool) *Fetcher {
	return &Fetcher{
		env: env, peers: peers, accs: accs, chunk: chunk, retry: retry, watch: watch,
		next: next, buffered: buffered, feed: feed, onStall: onStall, install: install,
		synced: len(peers) == 0,
	}
}

// Synced reports whether the fetcher has caught up to a peer's frontier
// (and no gap watch has re-opened the pull since).
func (f *Fetcher) Synced() bool { return f.synced }

// Stats snapshots the fetcher's counters.
func (f *Fetcher) Stats() Stats { return f.stats }

// Start issues the first probe. On a fresh deployment the peers answer
// "frontier 0, nothing newer" and the fetcher syncs immediately; after a
// restart the probe begins the prefix pull.
func (f *Fetcher) Start() {
	if !f.synced {
		f.request()
	}
	f.armWatch()
}

// resync re-opens the pull after the gap watch saw the frontier stall. It
// also asks the durable tier to re-announce the gap range: a resync means
// the peers already failed to fill the gap once, and if they lost the prefix
// too (every learner restarted in overlapping windows) only the acceptors
// still have it.
func (f *Fetcher) resync() {
	node.Broadcast(f.env, f.accs, msg.CatchupReq{Learner: f.env.ID(), From: f.next(), Max: f.chunk})
	f.stats.Fallbacks++
	if len(f.peers) == 0 {
		return
	}
	f.synced = false
	f.request()
}

// request asks the current peer for the next chunk and arms the retry.
func (f *Fetcher) request() {
	peer := f.peers[f.rr%len(f.peers)]
	f.env.Send(peer, msg.CatchupReq{Learner: f.env.ID(), From: f.next(), Max: f.chunk})
	f.stats.Reqs++
	if !f.fetchArmed {
		f.fetchArmed = true
		f.env.SetTimer(f.retry, TagFetch)
	}
}

// OnResp consumes one peer response. Stale responses — for a frontier the
// merger has already passed — are dropped; the in-flight request keyed by
// the current frontier eventually lands or is retried. A response arriving
// while synced is a frontier-probe answer: it is dropped unless the peer
// proves it holds something newer, in which case the pull re-opens.
func (f *Fetcher) OnResp(m msg.CatchupResp) {
	cur := f.next()
	if m.From > cur {
		return // answer to a frontier we have not reached (reordered): refetch covers it
	}
	if f.synced {
		if m.Frontier <= cur {
			return // steady-state probe answer: the peer has nothing newer
		}
		f.synced = false
	}
	if m.Floor > cur {
		// Refusal: the responder compacted the prefix we need below its
		// retention floor. The log bytes no longer exist there — only a
		// snapshot covering our gap can make progress.
		f.escalate()
		return
	}
	f.stats.Chunks++
	for i, cmd := range m.Cmds {
		inst := m.From + uint64(i)
		if inst < cur {
			continue // overlap with what we already delivered
		}
		f.feed(inst, cmd)
		f.stats.Cmds++
	}
	if f.next() >= m.Frontier {
		// Caught up to this peer: resume live quorum counting. A peer that
		// was itself behind undercounts; the gap watch re-probes if the
		// live feed then stalls.
		f.synced = true
		// A log pull that completed obviates any snapshot transfer still
		// in flight.
		f.pullingSnap = false
		f.resetSnap()
		return
	}
	// More to pull: chain the next chunk immediately (same peer — it just
	// proved it has the prefix).
	f.request()
}

// escalate opens a snapshot pull (idempotent while one is in flight).
func (f *Fetcher) escalate() {
	if len(f.peers) == 0 || f.pullingSnap {
		return
	}
	f.pullingSnap = true
	f.resetSnap()
	f.snapReq()
}

// snapReq asks the current peer for its newest snapshot and arms the retry.
func (f *Fetcher) snapReq() {
	peer := f.peers[f.rr%len(f.peers)]
	f.env.Send(peer, msg.SnapReq{Learner: f.env.ID(), From: f.next()})
	f.stats.SnapReqs++
	if !f.fetchArmed {
		f.fetchArmed = true
		f.env.SetTimer(f.retry, TagFetch)
	}
}

func (f *Fetcher) resetSnap() {
	f.snapFrom, f.snapFrontier, f.snapCrc = 0, 0, 0
	f.snapChunks, f.snapGot = nil, 0
}

// OnSnapResp consumes one snapshot chunk. Chunks are keyed by the
// responder's (peer, frontier, crc, total) tuple; the blob installs only
// when every chunk arrived and the whole-blob CRC matches — a corrupt or
// truncated transfer can never install partially, it restarts against the
// next peer.
func (f *Fetcher) OnSnapResp(m msg.SnapResp) {
	if !f.pullingSnap {
		return
	}
	if m.Total == 0 {
		return // the peer has no snapshot; the retry timer rotates
	}
	if m.Total > maxSnapChunks || len(m.Chunk) > SnapChunkBytes {
		return // no sender cuts a decodable snapshot this way
	}
	if m.Frontier <= f.next() {
		// A snapshot at or below our frontier cannot help: abandon the
		// transfer and re-open the log pull from another peer.
		f.pullingSnap = false
		f.resetSnap()
		f.rr++
		f.request()
		return
	}
	if f.snapChunks == nil || m.Learner != f.snapFrom || m.Frontier != f.snapFrontier ||
		m.Crc != f.snapCrc || uint64(m.Total) != uint64(len(f.snapChunks)) {
		f.snapFrom, f.snapFrontier, f.snapCrc = m.Learner, m.Frontier, m.Crc
		f.snapChunks, f.snapGot = make([][]byte, m.Total), 0
	}
	if m.Seq >= m.Total {
		return
	}
	if f.snapChunks[m.Seq] == nil {
		f.snapChunks[m.Seq] = m.Chunk
		f.snapGot++
		f.stats.SnapChunks++
	}
	if f.snapGot < uint32(len(f.snapChunks)) {
		return
	}
	var blob []byte
	for _, c := range f.snapChunks {
		blob = append(blob, c...)
	}
	frontier := f.snapFrontier
	if snapshot.Crc(blob) != f.snapCrc || !f.install(frontier, blob) {
		// Damaged in flight or rejected by the host: nothing was installed.
		// Restart the transfer against the next peer.
		f.stats.SnapAborts++
		f.resetSnap()
		f.rr++
		f.snapReq()
		return
	}
	f.stats.SnapInstalls++
	f.pullingSnap = false
	f.resetSnap()
	// The snapshot closed the compacted prefix; pull the log suffix above
	// the new frontier as an ordinary catch-up.
	f.synced = false
	f.request()
}

// OnTimer routes one timer tick; it reports whether the tag was the
// fetcher's.
func (f *Fetcher) OnTimer(tag int) bool {
	switch tag {
	case TagFetch:
		f.fetchArmed = false
		if f.synced {
			return true
		}
		// The outstanding request or its response was lost, or the peer is
		// down: rotate and retry.
		f.rr++
		if f.pullingSnap {
			f.resetSnap()
			f.snapReq()
			return true
		}
		f.request()
		return true
	case TagWatch:
		f.watchArmed = false
		f.watchTick()
		f.armWatch()
		return true
	}
	return false
}

// watchTick re-probes when the merged order has been stalled for two
// consecutive watch periods with evidence something is missing: buffered
// instances above a frozen frontier mean the gap instance was decided (its
// successors were) but its 2bs are gone, and an unsynced fetcher whose
// frontier froze means the peers are failing to supply a known-existing
// suffix — either way only a re-probe (and, on resync, the durable-tier
// fallback) can make progress. When nothing is known missing, the tick
// instead sends one anti-entropy frontier probe to a rotating peer: a
// learner that lost the 2bs of the *trailing* decided instance has no gap
// above its frontier — buffered stays zero and the stall check can never
// fire — so only a peer's word that its frontier is higher reveals the
// miss (OnResp re-opens the pull on that evidence).
func (f *Fetcher) watchTick() {
	if f.OnWatch != nil {
		f.OnWatch()
	}
	n := f.next()
	// A snapshot transfer in flight owns its own retry cadence (TagFetch
	// rotation); the stall escalation would only thrash it.
	behind := (f.buffered() > 0 || !f.synced) && !f.pullingSnap
	stalled := behind && n == f.watchNext
	if stalled && f.watchStalled {
		f.stats.Resyncs++
		f.resync()
		f.onStall(n)
	} else if !behind && len(f.peers) > 0 {
		f.rr++
		f.env.Send(f.peers[f.rr%len(f.peers)],
			msg.CatchupReq{Learner: f.env.ID(), From: n, Max: f.chunk})
		f.stats.Probes++
	}
	f.watchStalled = stalled
	f.watchNext = n
}

func (f *Fetcher) armWatch() {
	if f.watchArmed {
		return
	}
	f.watchArmed = true
	f.env.SetTimer(f.watch, TagWatch)
}
