package catchup

import (
	"math"
	"testing"

	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/snapshot"
)

// fakeEnv records sends and timers; time never advances on its own — the
// test drives OnTimer by hand.
type fakeEnv struct {
	id     msg.NodeID
	sent   []sentMsg
	timers []int
}

type sentMsg struct {
	to msg.NodeID
	m  msg.Message
}

func (e *fakeEnv) ID() msg.NodeID                    { return e.id }
func (e *fakeEnv) Now() int64                        { return 0 }
func (e *fakeEnv) Send(to msg.NodeID, m msg.Message) { e.sent = append(e.sent, sentMsg{to, m}) }
func (e *fakeEnv) SetTimer(_ int64, tag int)         { e.timers = append(e.timers, tag) }

// mergeSim is a minimal in-order merge frontier for the fetcher callbacks.
// It records the stalls reported and the snapshots installed; a snapshot
// that decodes installs, and moves the frontier to it.
type mergeSim struct {
	next      uint64
	held      map[uint64]cstruct.Cmd
	stalls    []uint64
	installed []uint64
}

func (ms *mergeSim) feed(inst uint64, cmd cstruct.Cmd) {
	if ms.held == nil {
		ms.held = make(map[uint64]cstruct.Cmd)
	}
	ms.held[inst] = cmd
	for {
		if _, ok := ms.held[ms.next]; !ok {
			return
		}
		delete(ms.held, ms.next)
		ms.next++
	}
}

func (ms *mergeSim) buffered() int { return len(ms.held) }

func (ms *mergeSim) install(frontier uint64, blob []byte) bool {
	if _, err := snapshot.Decode(blob); err != nil {
		return false
	}
	ms.installed = append(ms.installed, frontier)
	ms.next = frontier
	return true
}

func newUnderTest(peers, accs []msg.NodeID) (*Fetcher, *fakeEnv, *mergeSim) {
	env := &fakeEnv{id: 300}
	ms := &mergeSim{}
	f := New(env, peers, accs, 4, 25, 100,
		func() uint64 { return ms.next }, ms.buffered, ms.feed,
		func(frontier uint64) { ms.stalls = append(ms.stalls, frontier) }, ms.install, func() {})
	return f, env, ms
}

// drainReqs pops and returns the CatchupReq sends recorded so far.
func drainReqs(env *fakeEnv) []sentMsg {
	var out []sentMsg
	for _, s := range env.sent {
		if _, ok := s.m.(msg.CatchupReq); ok {
			out = append(out, s)
		}
	}
	env.sent = nil
	return out
}

// A synced, gap-free fetcher must still probe a peer's frontier on the
// watch tick: a learner that lost the 2bs of the trailing decided instance
// has nothing buffered and no gap, so only a peer's higher frontier can
// reveal the miss.
func TestWatchProbesFrontierWhenIdle(t *testing.T) {
	f, env, ms := newUnderTest([]msg.NodeID{301}, nil)
	ms.next = 5 // learned 0..4 live; instance 5 decided elsewhere, 2bs lost
	f.Start()
	if !f.Synced() {
		// Born unsynced with peers: complete the initial pull first.
		drainReqs(env)
		f.OnResp(msg.CatchupResp{Learner: 301, From: 5, Frontier: 5})
		if !f.Synced() {
			t.Fatal("fetcher should sync on a frontier-matching response")
		}
	}
	drainReqs(env)

	f.OnTimer(TagWatch)
	reqs := drainReqs(env)
	if len(reqs) != 1 {
		t.Fatalf("idle watch tick sent %d catch-up requests, want 1 probe", len(reqs))
	}
	req := reqs[0].m.(msg.CatchupReq)
	if reqs[0].to != 301 || req.From != 5 {
		t.Fatalf("probe = %+v to %d, want From=5 to peer 301", req, reqs[0].to)
	}
	if f.Stats().Probes != 1 {
		t.Fatalf("Probes = %d, want 1", f.Stats().Probes)
	}

	// The peer's answer proves instance 5 exists: the pull re-opens and the
	// command is fed, then the fetcher syncs again at the new frontier.
	f.OnResp(msg.CatchupResp{Learner: 301, From: 5, Frontier: 6,
		Cmds: []cstruct.Cmd{{ID: 42}}})
	if ms.next != 6 {
		t.Fatalf("frontier = %d after probe answer, want 6", ms.next)
	}
	if !f.Synced() {
		t.Fatal("fetcher should re-sync once the trailing miss is filled")
	}
}

// A probe answer with nothing newer must not disturb the synced state or
// feed anything.
func TestProbeAnswerWithNothingNewerIsDropped(t *testing.T) {
	f, env, ms := newUnderTest([]msg.NodeID{301}, nil)
	f.OnResp(msg.CatchupResp{Learner: 301, From: 0, Frontier: 0})
	if !f.Synced() {
		t.Fatal("empty deployment should sync immediately")
	}
	drainReqs(env)
	f.OnResp(msg.CatchupResp{Learner: 301, From: 0, Frontier: 0})
	if !f.Synced() || ms.next != 0 {
		t.Fatalf("no-op probe answer changed state: synced=%v next=%d", f.Synced(), ms.next)
	}
}

// An unsynced fetcher whose frontier freezes for two watch periods must
// escalate to a resync — which broadcasts the durable-tier fallback to the
// acceptors and reports the stall to the host — instead of chaining empty
// peer chunks forever.
func TestFrozenUnsyncedPullEscalatesToFallback(t *testing.T) {
	f, env, ms := newUnderTest([]msg.NodeID{301}, []msg.NodeID{100, 101, 102})
	f.Start() // unsynced: probing peer for the prefix
	drainReqs(env)

	// Two watch ticks with the frontier frozen at 0 and the pull still open.
	f.OnTimer(TagWatch)
	f.OnTimer(TagWatch)
	if f.Stats().Resyncs != 1 {
		t.Fatalf("Resyncs = %d after two frozen unsynced ticks, want 1", f.Stats().Resyncs)
	}
	if f.Stats().Fallbacks != 1 {
		t.Fatalf("Fallbacks = %d, want 1 (acceptor broadcast)", f.Stats().Fallbacks)
	}
	var accReqs int
	for _, s := range drainReqs(env) {
		if s.to >= 100 && s.to <= 102 {
			accReqs++
		}
	}
	if accReqs != 3 {
		t.Fatalf("fallback reached %d acceptors, want 3", accReqs)
	}
	if len(ms.stalls) != 1 || ms.stalls[0] != 0 {
		t.Fatalf("stalls reported = %v, want one at frontier 0", ms.stalls)
	}
}

// chunksOf splits a snapshot blob into SnapResp messages from peer.
func chunksOf(peer msg.NodeID, frontier uint64, blob []byte, size int) []msg.SnapResp {
	total := (len(blob) + size - 1) / size
	if total == 0 {
		total = 1
	}
	crc := snapshot.Crc(blob)
	out := make([]msg.SnapResp, 0, total)
	for i := 0; i < total; i++ {
		end := (i + 1) * size
		if end > len(blob) {
			end = len(blob)
		}
		out = append(out, msg.SnapResp{Learner: peer, Frontier: frontier,
			Crc: crc, Seq: uint32(i), Total: uint32(total), Chunk: blob[i*size : end]})
	}
	return out
}

// A log pull refused below the responder's retention floor must escalate to
// a snapshot transfer: the fetcher requests the snapshot, reassembles the
// chunks (reordered and duplicated here), installs it atomically, and then
// resumes the log pull above the installed frontier.
func TestRefusedPullEscalatesToSnapshotTransfer(t *testing.T) {
	f, env, ms := newUnderTest([]msg.NodeID{301}, nil)
	f.Start()
	drainReqs(env)

	// Peer refuses: everything below 64 is compacted away.
	f.OnResp(msg.CatchupResp{Learner: 301, From: 0, Frontier: 96, Floor: 64})
	var snapReqs int
	for _, s := range env.sent {
		if _, ok := s.m.(msg.SnapReq); ok {
			snapReqs++
		}
	}
	if snapReqs != 1 {
		t.Fatalf("refusal sent %d SnapReqs, want 1", snapReqs)
	}
	env.sent = nil

	blob := snapshot.Encode(snapshot.Snapshot{Frontier: 64, State: []byte("k=v;"),
		Order: []uint64{9, 7, 5}})
	chunks := chunksOf(301, 64, blob, 16)
	// Deliver out of order with a duplicate: assembly must still be exact.
	f.OnSnapResp(chunks[len(chunks)-1])
	f.OnSnapResp(chunks[len(chunks)-1])
	for i := len(chunks) - 2; i >= 0; i-- {
		f.OnSnapResp(chunks[i])
	}
	if len(ms.installed) != 1 || ms.installed[0] != 64 {
		t.Fatalf("installed = %v, want one install at frontier 64", ms.installed)
	}
	if f.Stats().SnapInstalls != 1 {
		t.Fatalf("SnapInstalls = %d, want 1", f.Stats().SnapInstalls)
	}
	// The pull resumed above the snapshot.
	reqs := drainReqs(env)
	if len(reqs) != 1 || reqs[0].m.(msg.CatchupReq).From != 64 {
		t.Fatalf("post-install pull = %+v, want CatchupReq From=64", reqs)
	}
	// The suffix closes the gap and the fetcher syncs.
	f.OnResp(msg.CatchupResp{Learner: 301, From: 64, Frontier: 66,
		Cmds: []cstruct.Cmd{{ID: 1}, {ID: 2}}})
	if !f.Synced() || ms.next != 66 {
		t.Fatalf("after suffix: synced=%v next=%d, want synced at 66", f.Synced(), ms.next)
	}
}

// A corrupt chunk stream must never install: the CRC gate rejects the
// assembly and the transfer restarts against the next peer.
func TestCorruptSnapshotTransferNeverInstalls(t *testing.T) {
	f, env, ms := newUnderTest([]msg.NodeID{301, 302}, nil)
	f.Start()
	drainReqs(env)
	f.OnResp(msg.CatchupResp{Learner: 301, From: 0, Frontier: 96, Floor: 64})

	blob := snapshot.Encode(snapshot.Snapshot{Frontier: 64, State: []byte("k=v;")})
	chunks := chunksOf(301, 64, blob, 16)
	chunks[1].Chunk = append([]byte(nil), chunks[1].Chunk...)
	chunks[1].Chunk[0] ^= 0xff
	for _, c := range chunks {
		f.OnSnapResp(c)
	}
	if len(ms.installed) != 0 {
		t.Fatalf("corrupt transfer installed at %v", ms.installed)
	}
	if f.Stats().SnapAborts != 1 {
		t.Fatalf("SnapAborts = %d, want 1", f.Stats().SnapAborts)
	}
	// The retry rotated to the next peer.
	var last msg.NodeID
	for _, s := range env.sent {
		if _, ok := s.m.(msg.SnapReq); ok {
			last = s.to
		}
	}
	if last != 302 {
		t.Fatalf("retry went to %d, want rotation to 302", last)
	}
}

// A peer with no snapshot answers Total == 0; the transfer waits for the
// retry timer, which rotates to the next peer.
func TestSnapshotRefusalRotatesOnRetry(t *testing.T) {
	f, env, _ := newUnderTest([]msg.NodeID{301, 302}, nil)
	f.Start()
	drainReqs(env)
	f.OnResp(msg.CatchupResp{Learner: 301, From: 0, Frontier: 96, Floor: 64})
	env.sent = nil
	f.OnSnapResp(msg.SnapResp{Learner: 301}) // no snapshot to serve
	if len(env.sent) != 0 {
		t.Fatalf("refusal triggered %d immediate sends, want none", len(env.sent))
	}
	f.OnTimer(TagFetch)
	var reqs []msg.NodeID
	for _, s := range env.sent {
		if _, ok := s.m.(msg.SnapReq); ok {
			reqs = append(reqs, s.to)
		}
	}
	if len(reqs) != 1 || reqs[0] != 302 {
		t.Fatalf("retry SnapReqs = %v, want one to 302", reqs)
	}
}

// A SnapResp's Total and Chunk come off the wire. One claiming more chunks
// than the longest blob snapshot.Decode accepts, or carrying a chunk longer
// than SnapChunkBytes, starts no assembly: nothing is sized by its Total.
func TestOversizedSnapRespStartsNoAssembly(t *testing.T) {
	f, env, _ := newUnderTest([]msg.NodeID{301}, nil)
	f.Start()
	drainReqs(env)
	f.OnResp(msg.CatchupResp{Learner: 301, From: 0, Frontier: 96, Floor: 64})
	// Ordered so that a fetcher without the bound fails on a small allocation
	// before the last case asks for a huge one.
	for _, m := range []msg.SnapResp{
		{Learner: 301, Frontier: 64, Total: maxSnapChunks + 1, Chunk: []byte{1}},
		{Learner: 301, Frontier: 64, Total: 2, Chunk: make([]byte, SnapChunkBytes+1)},
		{Learner: 301, Frontier: 64, Total: math.MaxUint32, Chunk: []byte{1}},
	} {
		f.OnSnapResp(m)
		if f.snapChunks != nil || f.Stats().SnapChunks != 0 {
			t.Fatalf("SnapResp with Total %d and a %d-byte chunk started an assembly", m.Total, len(m.Chunk))
		}
	}
}
