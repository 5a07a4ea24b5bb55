package deploy

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"mcpaxos/internal/classic"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/smr"
	"mcpaxos/internal/snapshot"
)

// The catch-up pull on the fake env of learner_test.go: a real merger and
// replica, peer answers delivered by hand, timers fired by hand.

// setCmd is client's write number req.
func setCmd(client msg.NodeID, req uint64) cstruct.Cmd {
	return smr.SetCmd(classic.CmdID(client, req), "k", fmt.Sprint(req))
}

// snapBlob is a real learner's snapshot at frontier: a one-learner learner
// decides frontier writes of client 1 and cuts its snapshot there.
func snapBlob(t *testing.T, frontier uint64) []byte {
	t.Helper()
	src, _, cfg := testLearner(t, 1, func(s *ClusterSpec) { s.SnapshotEvery = int(frontier) })
	for i := range frontier {
		decide(src, cfg, i, setCmd(1, i))
	}
	blob, fr, ok := src.snaps.Latest()
	if !ok || fr != frontier {
		t.Fatalf("source snapshot at %d (ok %v), want one at %d", fr, ok, frontier)
	}
	return blob
}

// chunksOf splits a snapshot blob into SnapResp messages from peer.
func chunksOf(peer msg.NodeID, frontier uint64, blob []byte, size int) []msg.SnapResp {
	total := (len(blob) + size - 1) / size
	crc := snapshot.Crc(blob)
	out := make([]msg.SnapResp, 0, total)
	for i := range total {
		out = append(out, msg.SnapResp{Learner: peer, Frontier: frontier,
			Crc: crc, Seq: uint32(i), Total: uint32(total), Chunk: blob[i*size : min((i+1)*size, len(blob))]})
	}
	return out
}

// refused starts l's pull and answers it with peer's refusal below floor 64,
// which opens a snapshot pull.
func refused(t *testing.T, l *learner, env *fakeEnv, peer msg.NodeID) {
	t.Helper()
	l.startFetch()
	l.OnMessage(peer, msg.CatchupResp{From: 0, Frontier: 96, Floor: 64})
	if reqs, tos := sentTo[msg.SnapReq](take(env)); len(reqs) != 1 || tos[0] != peer {
		t.Fatalf("refusal drew SnapReqs %+v to %v, want one to %d", reqs, tos, peer)
	}
}

// A synced, gap-free learner still probes a peer's frontier on the watch
// tick: one that lost the 2bs of the trailing decided instance has nothing
// buffered and no gap, so only a peer's higher frontier can reveal the miss.
func TestLearnerWatchProbesFrontierWhenIdle(t *testing.T) {
	l, env, cfg := testLearner(t, 2, nil)
	peer := cfg.Learners[1]
	for i := range uint64(5) { // learned 0..4 live; 5 decided elsewhere, its 2bs lost
		decide(l, cfg, i, setCmd(1, i))
	}
	l.startFetch()
	l.OnMessage(peer, msg.CatchupResp{From: 5, Frontier: 5})
	if !l.fetch.synced {
		t.Fatal("the pull did not sync on a frontier-matching answer")
	}
	take(env)

	l.OnTimer(timerWatch)
	reqs, tos := sentTo[msg.CatchupReq](take(env))
	if len(reqs) != 1 || tos[0] != peer || reqs[0].From != 5 {
		t.Fatalf("idle watch tick sent %+v to %v, want one probe From=5 to peer %d", reqs, tos, peer)
	}
	if l.fetch.stats.Probes != 1 {
		t.Fatalf("Probes = %d, want 1", l.fetch.stats.Probes)
	}

	// The peer's answer proves instance 5 exists: the pull re-opens, feeds it
	// and syncs again at the new frontier.
	l.OnMessage(peer, msg.CatchupResp{From: 5, Frontier: 6, Cmds: []cstruct.Cmd{setCmd(2, 0)}})
	if !l.fetch.synced || l.merger.Next() != 6 {
		t.Fatalf("after the probe answer: synced %v at %d, want synced at 6", l.fetch.synced, l.merger.Next())
	}
}

// A probe answer with nothing newer neither disturbs the synced state nor
// feeds anything.
func TestLearnerProbeAnswerWithNothingNewerIsDropped(t *testing.T) {
	l, env, cfg := testLearner(t, 2, nil)
	peer := cfg.Learners[1]
	l.OnMessage(peer, msg.CatchupResp{From: 0, Frontier: 0})
	if !l.fetch.synced {
		t.Fatal("an empty deployment did not sync at once")
	}
	take(env)
	l.OnMessage(peer, msg.CatchupResp{From: 0, Frontier: 0})
	if !l.fetch.synced || l.merger.Next() != 0 || len(take(env)) != 0 {
		t.Fatalf("a no-op probe answer changed state: synced %v at %d", l.fetch.synced, l.merger.Next())
	}
}

// An unsynced pull whose frontier freezes for two watch periods escalates to
// a resync — the acceptor fallback and a fill nudge to the frozen instance's
// group — instead of chaining empty peer chunks forever.
func TestLearnerFrozenPullEscalatesToFallback(t *testing.T) {
	l, env, cfg := testLearner(t, 2, nil)
	l.startFetch()
	take(env)
	l.OnTimer(timerWatch)
	l.OnTimer(timerWatch)
	if s := l.fetch.stats; s.Resyncs != 1 || s.Fallbacks != 1 {
		t.Fatalf("Resyncs %d, Fallbacks %d after two frozen unsynced ticks, want 1 and 1", s.Resyncs, s.Fallbacks)
	}
	sent := take(env)
	var accs []msg.NodeID
	reqs, tos := sentTo[msg.CatchupReq](sent)
	for i, to := range tos {
		if to != cfg.Learners[1] && reqs[i].From == 0 {
			accs = append(accs, to)
		}
	}
	if !equalIDs(accs, cfg.Acceptors) {
		t.Fatalf("fallback reached %v, want every acceptor %v", accs, cfg.Acceptors)
	}
	fills, tos := sentTo[msg.Fill](sent)
	if len(fills) != 3 || fills[0].Inst != 0 || !equalIDs(tos, cfg.ShardCoords(0)) {
		t.Fatalf("stall nudge %+v to %v, want Fill{Inst: 0} to %v", fills, tos, cfg.ShardCoords(0))
	}
}

// A log pull refused below the responder's retention floor escalates to a
// snapshot transfer: the chunks (reordered and duplicated here) reassemble,
// install, and the pull resumes above the installed frontier.
func TestLearnerRefusedPullEscalatesToSnapshotTransfer(t *testing.T) {
	l, env, cfg := testLearner(t, 2, nil)
	peer := cfg.Learners[1]
	refused(t, l, env, peer)

	chunks := chunksOf(peer, 64, snapBlob(t, 64), 16)
	l.OnMessage(peer, chunks[len(chunks)-1])
	l.OnMessage(peer, chunks[len(chunks)-1])
	for i := len(chunks) - 2; i >= 0; i-- {
		l.OnMessage(peer, chunks[i])
	}
	if l.fetch.stats.SnapInstalls != 1 || l.merger.Next() != 64 || l.rep.Applied() != 64 {
		t.Fatalf("SnapInstalls %d, frontier %d, %d applied; want one install at 64",
			l.fetch.stats.SnapInstalls, l.merger.Next(), l.rep.Applied())
	}
	if reqs, _ := sentTo[msg.CatchupReq](take(env)); len(reqs) != 1 || reqs[0].From != 64 {
		t.Fatalf("post-install pull = %+v, want one CatchupReq From=64", reqs)
	}
	l.OnMessage(peer, msg.CatchupResp{From: 64, Frontier: 66,
		Cmds: []cstruct.Cmd{setCmd(2, 0), setCmd(2, 1)}})
	if !l.fetch.synced || l.merger.Next() != 66 {
		t.Fatalf("after the suffix: synced %v at %d, want synced at 66", l.fetch.synced, l.merger.Next())
	}
}

// A corrupt chunk stream never installs: the CRC gate rejects the assembly
// and the transfer restarts against the next peer.
func TestLearnerCorruptSnapshotTransferNeverInstalls(t *testing.T) {
	l, env, cfg := testLearner(t, 3, nil)
	refused(t, l, env, cfg.Learners[1])
	chunks := chunksOf(cfg.Learners[1], 64, snapBlob(t, 64), 16)
	chunks[1].Chunk = append([]byte(nil), chunks[1].Chunk...)
	chunks[1].Chunk[0] ^= 0xff
	for _, c := range chunks {
		l.OnMessage(c.Learner, c)
	}
	if l.merger.Next() != 0 || l.rep.Applied() != 0 || l.fetch.stats.SnapAborts != 1 {
		t.Fatalf("corrupt transfer: frontier %d, %d applied, SnapAborts %d; want nothing installed and one abort",
			l.merger.Next(), l.rep.Applied(), l.fetch.stats.SnapAborts)
	}
	if reqs, tos := sentTo[msg.SnapReq](take(env)); len(reqs) != 1 || tos[0] != cfg.Learners[2] {
		t.Fatalf("the restart sent SnapReqs to %v, want one to %d", tos, cfg.Learners[2])
	}
}

// A peer with no snapshot answers Total 0; the transfer waits for the retry,
// which rotates to the next peer.
func TestLearnerSnapshotRefusalRotatesOnRetry(t *testing.T) {
	l, env, cfg := testLearner(t, 3, nil)
	refused(t, l, env, cfg.Learners[1])
	l.OnMessage(cfg.Learners[1], msg.SnapResp{Learner: cfg.Learners[1]})
	if sent := take(env); len(sent) != 0 {
		t.Fatalf("a Total-0 answer drew %d immediate sends, want none", len(sent))
	}
	l.OnTimer(timerFetch)
	if reqs, tos := sentTo[msg.SnapReq](take(env)); len(reqs) != 1 || tos[0] != cfg.Learners[2] {
		t.Fatalf("the retry sent SnapReqs to %v, want one to %d", tos, cfg.Learners[2])
	}
}

// A SnapResp's Total and Chunk come off the wire. One claiming more chunks
// than the longest blob snapshot.Decode accepts, or carrying a chunk longer
// than snapChunkBytes, starts no assembly: nothing is sized by its Total.
func TestLearnerOversizedSnapRespStartsNoAssembly(t *testing.T) {
	l, env, cfg := testLearner(t, 2, nil)
	peer := cfg.Learners[1]
	refused(t, l, env, peer)
	// Ordered so that a learner without the bound fails on a small
	// allocation before the last case asks for a huge one.
	for _, m := range []msg.SnapResp{
		{Learner: peer, Frontier: 64, Total: maxSnapChunks + 1, Chunk: []byte{1}},
		{Learner: peer, Frontier: 64, Total: 2, Chunk: make([]byte, snapChunkBytes+1)},
		{Learner: peer, Frontier: 64, Total: math.MaxUint32, Chunk: []byte{1}},
	} {
		l.OnMessage(peer, m)
		if l.fetch.snap.chunks != nil || l.fetch.stats.SnapChunks != 0 {
			t.Fatalf("SnapResp with Total %d and a %d-byte chunk started an assembly", m.Total, len(m.Chunk))
		}
	}
}

// A retry tick in the middle of a snapshot transfer that is still arriving
// keeps the chunks already received: the transfer completes and installs,
// and no second SnapReq goes out. Only a tick with nothing received since
// the timer was armed rotates.
func TestLearnerRetryKeepsAMovingSnapshotPull(t *testing.T) {
	l, env, cfg := testLearner(t, 3, nil)
	peer := cfg.Learners[1]
	refused(t, l, env, peer)
	chunks := chunksOf(peer, 64, snapBlob(t, 64), 16)
	half := len(chunks) / 2
	for _, c := range chunks[:half] {
		l.OnMessage(peer, c)
	}
	l.OnTimer(timerFetch)
	if reqs, _ := sentTo[msg.SnapReq](take(env)); len(reqs) != 0 {
		t.Fatalf("a tick during a moving transfer sent %d SnapReqs, want none", len(reqs))
	}
	for _, c := range chunks[half:] {
		l.OnMessage(peer, c)
	}
	if l.fetch.stats.SnapInstalls != 1 || l.merger.Next() != 64 {
		t.Fatalf("SnapInstalls %d at frontier %d, want the transfer installed at 64",
			l.fetch.stats.SnapInstalls, l.merger.Next())
	}
}

// A log pull across retry ticks sends one request per chunk: a tick after a
// chunk was fed leaves the chained request to its peer, and a tick with
// nothing fed since rotates.
func TestLearnerRetryKeepsAMovingLogPull(t *testing.T) {
	l, env, cfg := testLearner(t, 3, nil)
	peer := cfg.Learners[1]
	l.startFetch()
	var reqs []msg.CatchupReq
	pop := func() {
		got, _ := sentTo[msg.CatchupReq](take(env))
		reqs = append(reqs, got...)
	}
	pop()
	for from := uint64(0); from < 12; from += 4 {
		l.OnMessage(peer, msg.CatchupResp{From: from, Frontier: 12,
			Cmds: []cstruct.Cmd{setCmd(2, from), setCmd(2, from+1), setCmd(2, from+2), setCmd(2, from+3)}})
		pop()
		l.OnTimer(timerFetch)
		pop()
	}
	if !l.fetch.synced || l.merger.Next() != 12 {
		t.Fatalf("synced %v at %d, want synced at 12", l.fetch.synced, l.merger.Next())
	}
	if len(reqs) != 3 || reqs[0].From != 0 || reqs[1].From != 4 || reqs[2].From != 8 {
		t.Fatalf("a three-chunk pull sent %+v, want one request per chunk From=0, 4, 8", reqs)
	}

	// A silent pull still rotates: the third learner is asked after a tick
	// with nothing fed.
	l.fetch.synced = false
	l.request()
	take(env)
	l.OnTimer(timerFetch)
	if got, tos := sentTo[msg.CatchupReq](take(env)); len(got) != 1 || tos[0] != cfg.Learners[2] {
		t.Fatalf("a silent pull's tick sent %+v to %v, want one request to %d", got, tos, cfg.Learners[2])
	}
}

// A snapshot install on a store whose save fails keeps gossiping the old
// frontier, as a failed cut does: no snapshot of this learner's own covers
// the installed one.
func TestLearnerInstallKeepsGossipedFrontierWhenSaveFails(t *testing.T) {
	l, env, _ := testLearner(t, 2, nil)
	dir := filepath.Join(t.TempDir(), "snaps")
	snaps, err := snapshot.OpenStore(dir)
	if err != nil {
		t.Fatalf("snapshot store: %v", err)
	}
	l.snaps = snaps
	// A plain file where the directory was: every save fails (ENOTDIR, for
	// root as for anyone).
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if !l.installBlob(64, snapBlob(t, 64)) || l.merger.Next() != 64 {
		t.Fatalf("install did not take: frontier %d", l.merger.Next())
	}
	take(env)
	l.gossip()
	dones, _ := sentTo[msg.Done](take(env))
	if len(dones) == 0 || dones[0].Frontier != 0 {
		t.Fatalf("gossiped %+v after a failed save, want Done{Frontier: 0}", dones)
	}
}
