package deploy

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"mcpaxos/internal/ballot"
	"mcpaxos/internal/catchup"
	"mcpaxos/internal/classic"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/smr"
	"mcpaxos/internal/snapshot"
)

// The learner needs only a node.Env: these tests build it over the fake env
// of client_test.go — no listener, no mailbox, no Replica — and drive its
// OnMessage/OnTimer by hand.

// testLearner builds learner 300 of a 1-shard, c = 3 spec with nLearners
// learners (so 301… are its peers). tune adjusts the spec first.
func testLearner(t *testing.T, nLearners int, tune func(*ClusterSpec)) (*learner, *fakeEnv, classic.Config) {
	t.Helper()
	return testShardedLearner(t, 1, nLearners, tune)
}

// testShardedLearner is testLearner over the given number of shards.
func testShardedLearner(t *testing.T, shards, nLearners int, tune func(*ClusterSpec)) (*learner, *fakeEnv, classic.Config) {
	t.Helper()
	spec := LocalSpec(shards, 3, 3, nLearners, 1)
	concreteAddrs(&spec)
	if tune != nil {
		tune(&spec)
	}
	cfg, err := spec.config()
	if err != nil {
		t.Fatalf("config: %v", err)
	}
	snaps, err := snapshot.OpenStore("")
	if err != nil {
		t.Fatalf("snapshot store: %v", err)
	}
	env := &fakeEnv{id: cfg.Learners[0]}
	return newLearner(env, cfg, spec, snaps), env, cfg
}

// decide delivers a quorum of matching 2bs for inst to the learner.
func decide(l *learner, cfg classic.Config, inst uint64, cmd cstruct.Cmd) {
	rnd := ballot.Ballot{MCount: 1}
	for _, a := range cfg.Acceptors[:2] {
		l.OnMessage(a, msg.P2b{Inst: inst, Rnd: rnd, Acc: a, Val: cstruct.NewSingleValue(cmd)})
	}
}

// take pops the recorded sends.
func take(env *fakeEnv) []fakeSent {
	out := env.sent
	env.sent = nil
	return out
}

// sentTo filters sends of message type M, returning them with their targets.
func sentTo[M msg.Message](sent []fakeSent) (ms []M, tos []msg.NodeID) {
	for _, s := range sent {
		if m, ok := s.m.(M); ok {
			ms, tos = append(ms, m), append(tos, s.to)
		}
	}
	return
}

// (a) A started learner's first send is a catch-up probe to its peer; while
// that probe is unanswered a decided instance is acknowledged to the
// coordinators and its result cached, but its reply is withheld; once a peer
// answers at the frontier, replies flow.
func TestLearnerWithholdsRepliesUntilSynced(t *testing.T) {
	l, env, cfg := testLearner(t, 2, nil)
	if got := take(env); len(got) != 0 {
		t.Fatalf("building the learner sent %d messages, want none before start", len(got))
	}
	l.fetch.Start()
	first := take(env)
	if len(first) != 1 {
		t.Fatalf("start sent %d messages, want one probe", len(first))
	}
	if req, ok := first[0].m.(msg.CatchupReq); !ok || first[0].to != cfg.Learners[1] || req.From != 0 || req.Learner != env.id {
		t.Fatalf("first send = %+v to %d, want CatchupReq{From: 0} to peer %d", first[0].m, first[0].to, cfg.Learners[1])
	}

	client := msg.NodeID(1)
	c0 := smr.SetCmd(classic.CmdID(client, 0), "k", "v0")
	decide(l, cfg, 0, c0)
	sent := take(env)
	if replies, _ := sentTo[msg.Reply](sent); len(replies) != 0 {
		t.Fatalf("unsynced learner sent %d replies, want none", len(replies))
	}
	acks, tos := sentTo[msg.P2b](sent)
	if len(acks) != 3 || !equalIDs(tos, cfg.Coords) || acks[0].Inst != 0 {
		t.Fatalf("learn acks = %+v to %v, want one P2b{Inst: 0} to each of %v", acks, tos, cfg.Coords)
	}
	if rec, ok := l.replay.Get(c0.ID); !ok || rec.Inst != 0 {
		t.Fatalf("result of the withheld reply not cached: %+v, %v", rec, ok)
	}

	l.OnMessage(cfg.Learners[1], msg.CatchupResp{Learner: cfg.Learners[1], From: 1, Frontier: 1})
	if !l.fetch.Synced() {
		t.Fatal("a peer answering at the frontier should sync the fetcher")
	}
	take(env)
	c1 := smr.SetCmd(classic.CmdID(client, 1), "k", "v1")
	decide(l, cfg, 1, c1)
	replies, tos := sentTo[msg.Reply](take(env))
	if len(replies) != 1 || tos[0] != client || replies[0].CmdID != c1.ID || replies[0].Inst != 1 {
		t.Fatalf("synced learner replies = %+v to %v, want one for command %d at instance 1 to client %d",
			replies, tos, c1.ID, client)
	}
}

// (b) A peer's pull below the log base is refused with the floor attached and
// no commands; at or above it the response carries at most
// min(Max, catchupChunk) commands.
func TestLearnerServesCatchupAboveLogBase(t *testing.T) {
	l, env, cfg := testLearner(t, 2, nil)
	const n = catchupChunk + 72
	for i := uint64(0); i < n; i++ {
		decide(l, cfg, i, smr.SetCmd(classic.CmdID(1, i), "k", fmt.Sprint(i)))
	}
	l.truncate(40)
	peer := cfg.Learners[1]
	serve := func(from uint64, max uint32) msg.CatchupResp {
		t.Helper()
		take(env)
		l.OnMessage(peer, msg.CatchupReq{Learner: peer, From: from, Max: max})
		resps, tos := sentTo[msg.CatchupResp](take(env))
		if len(resps) != 1 || tos[0] != peer {
			t.Fatalf("pull from %d drew %d responses to %v, want one to %d", from, len(resps), tos, peer)
		}
		if resps[0].From != from || resps[0].Frontier != n {
			t.Fatalf("pull from %d answered From=%d Frontier=%d, want %d and %d", from, resps[0].From, resps[0].Frontier, from, n)
		}
		return resps[0]
	}
	if r := serve(39, 8); r.Floor != 40 || len(r.Cmds) != 0 {
		t.Fatalf("pull below the base: Floor=%d with %d commands, want a refusal at floor 40", r.Floor, len(r.Cmds))
	}
	if r := serve(40, 8); r.Floor != 0 || len(r.Cmds) != 8 || r.Cmds[0].ID != classic.CmdID(1, 40) {
		t.Fatalf("pull at the base with Max 8: Floor=%d, %d commands, want 8 starting at instance 40", r.Floor, len(r.Cmds))
	}
	if r := serve(40, 0); len(r.Cmds) != catchupChunk {
		t.Fatalf("unbounded pull carried %d commands, want the %d-instance chunk", len(r.Cmds), catchupChunk)
	}
	if r := serve(40, 4*catchupChunk); len(r.Cmds) != catchupChunk {
		t.Fatalf("pull with Max above the chunk carried %d commands, want %d", len(r.Cmds), catchupChunk)
	}
	if r := serve(n-3, 0); len(r.Cmds) != 3 {
		t.Fatalf("pull near the frontier carried %d commands, want the 3 that exist", len(r.Cmds))
	}
}

// (c) A watch tick computes the watermark as the minimum over the learner's
// own snapshot frontier and its peers' reports, gossips it to peers and
// acceptors, and truncates down to the retention floor; a peer that later
// reports a lower frontier (it restarted without its snapshots) freezes the
// watermark without lowering it.
func TestLearnerWatermarkGossipAndTruncation(t *testing.T) {
	const retain = 4
	l, env, cfg := testLearner(t, 2, func(s *ClusterSpec) { s.SnapshotEvery, s.Retain = 20, retain })
	for i := uint64(0); i < 20; i++ {
		decide(l, cfg, i, smr.SetCmd(classic.CmdID(1, i), "k", fmt.Sprint(i)))
	}
	peer := cfg.Learners[1]
	tick := func(wantFrontier, wantWatermark uint64) {
		t.Helper()
		take(env)
		l.OnTimer(catchup.TagWatch)
		dones, tos := sentTo[msg.Done](take(env))
		if !equalIDs(tos, append([]msg.NodeID{peer}, cfg.Acceptors...)) {
			t.Fatalf("Done gossiped to %v, want the peer and every acceptor", tos)
		}
		for _, d := range dones {
			if d.From != env.id || d.Frontier != wantFrontier || d.Watermark != wantWatermark {
				t.Fatalf("gossiped %+v, want Done{Frontier: %d, Watermark: %d}", d, wantFrontier, wantWatermark)
			}
		}
	}
	tick(20, 0) // the peer has not reported: the minimum is held at zero
	if l.logBase != 0 {
		t.Fatalf("truncated to %d before every learner reported", l.logBase)
	}
	l.OnMessage(peer, msg.Done{From: peer, Frontier: 10})
	tick(20, 10)
	if l.logBase != 10-retain || len(l.log) != 20-(10-retain) {
		t.Fatalf("log base %d with %d retained, want base %d", l.logBase, len(l.log), 10-retain)
	}
	l.OnMessage(peer, msg.Done{From: peer, Frontier: 3})
	tick(20, 10)
	if l.watermark != 10 || l.logBase != 10-retain {
		t.Fatalf("a lower peer report moved the watermark to %d (base %d), want it frozen at 10", l.watermark, l.logBase)
	}
}

// (d) A client's retransmitted, unsequenced proposal is answered from the
// replay cache when the command was applied, and draws nothing when it was
// not (the apply-time reply covers it).
func TestLearnerReplayProbe(t *testing.T) {
	l, env, cfg := testLearner(t, 1, nil) // no peers: born synced
	client := msg.NodeID(1)
	applied := smr.SetCmd(classic.CmdID(client, 0), "k", "v")
	decide(l, cfg, 0, applied)
	first, _ := sentTo[msg.Reply](take(env))
	if len(first) != 1 {
		t.Fatalf("apply sent %d replies, want 1", len(first))
	}

	l.OnMessage(client, msg.Propose{Cmd: applied, Client: client, Req: 0})
	again, tos := sentTo[msg.Reply](take(env))
	if len(again) != 1 || tos[0] != client || again[0] != first[0] {
		t.Fatalf("probe for an applied command drew %+v to %v, want the original reply %+v again", again, tos, first[0])
	}
	if l.replayed != 1 {
		t.Fatalf("replayed = %d, want 1", l.replayed)
	}

	l.OnMessage(client, msg.Propose{Cmd: smr.SetCmd(classic.CmdID(client, 1), "k", "w"), Client: client, Req: 1})
	if got := take(env); len(got) != 0 || l.replayed != 1 {
		t.Fatalf("probe for an unapplied command sent %d messages (replayed = %d), want silence", len(got), l.replayed)
	}
}

// (e) The skip-hint clock. It runs only while instances sit buffered above the
// merge frontier; a frontier that moved since the last tick earns nothing; one
// that sat frozen for a full period earns each lagging shard exactly one hint
// naming its last hole below the highest buffered instance, sent to that
// shard's whole group; and the hint is not repeated at the same frontier.
func TestLearnerSkipHint(t *testing.T) {
	l, env, cfg := testShardedLearner(t, 3, 1, nil)
	idleTimers := func() (n int) {
		for _, tm := range env.timers {
			if tm.tag == timerIdle {
				n++
			}
		}
		env.timers = nil
		return n
	}
	tick := func(what string, wantTimer int, want ...uint64) {
		t.Helper()
		take(env)
		l.OnTimer(timerIdle)
		fills, tos := sentTo[msg.Fill](take(env))
		var got []uint64
		for i, f := range fills {
			if !f.Idle || f.Learner != env.id {
				t.Errorf("%s: sent %+v, want only skip hints of this learner", what, f)
			}
			if i%3 == 0 {
				got = append(got, f.Inst)
				if group := cfg.ShardCoords(cfg.ShardOf(f.Inst)); !equalIDs(tos[i:i+3], group) {
					t.Errorf("%s: hint for instance %d went to %v, want its shard's group %v", what, f.Inst, tos[i:i+3], group)
				}
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: hinted instances %v, want %v", what, got, want)
		}
		if n := idleTimers(); n != wantTimer {
			t.Errorf("%s: %d idle timers set, want %d", what, n, wantTimer)
		}
	}
	cmd := func(i uint64) cstruct.Cmd { return smr.SetCmd(classic.CmdID(1, i), "k", fmt.Sprint(i)) }

	decide(l, cfg, 0, cmd(0))
	if n := idleTimers(); n != 0 {
		t.Fatalf("%d idle timers set with nothing buffered, want 0", n)
	}
	// Shard 0 runs ahead: instances 3 and 6 wait on shard 1's 1 and 4 and
	// shard 2's 2 and 5.
	decide(l, cfg, 3, cmd(3))
	decide(l, cfg, 6, cmd(6))
	if n := idleTimers(); n != 1 {
		t.Fatalf("%d idle timers set by two buffered instances, want 1", n)
	}
	decide(l, cfg, 1, cmd(1))
	tick("frontier moved 1 → 2", 1)
	tick("frontier frozen at 2 for a period", 1, 5, 4)
	tick("same frontier again", 1)
	decide(l, cfg, 2, cmd(2)) // delivers 2 and 3
	tick("frontier moved 2 → 4", 1)
	tick("frontier frozen at 4", 1, 5, 4)
	decide(l, cfg, 4, cmd(4))
	decide(l, cfg, 5, cmd(5)) // delivers 5 and 6: nothing buffered
	tick("drained", 0)
	decide(l, cfg, 9, cmd(9))
	if n := idleTimers(); n != 1 {
		t.Fatalf("%d idle timers set by a newly buffered instance, want 1: the clock restarts", n)
	}

	// One shard, or size-only batching: no clock at all.
	for name, off := range map[string]*learner{
		"one shard": first(testLearner(t, 1, nil)),
		"size only": first(testShardedLearner(t, 3, 1, func(s *ClusterSpec) { s.BatchWait = -1 })),
	} {
		if off.idleEvery != 0 {
			t.Errorf("%s: skip-hint period %d, want 0", name, off.idleEvery)
		}
	}
}

func first(l *learner, _ *fakeEnv, _ classic.Config) *learner { return l }

// (f) Under compaction a learner's resident state stays flat in the size of
// the commands it applied: 100k decided 256-byte writes, a snapshot every 256
// instances and a watermark gossip every 1k leave a truncated log, and a heap
// grown by what the apply order and the dedup floor hold per command — an ID
// and a result — not by the command bodies, which would cost about 40 MB
// here.
func TestLearnerRetentionIsBounded(t *testing.T) {
	const (
		n      = 100_000
		every  = 256
		gossip = 1000
		limit  = 15 << 20
	)
	l, env, cfg := testLearner(t, 1, func(s *ClusterSpec) { s.SnapshotEvery = every })
	value := strings.Repeat("v", 256)
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for i := uint64(0); i < n; i++ {
		decide(l, cfg, i, smr.SetCmd(classic.CmdID(1, i), fmt.Sprint("k", i%64), value))
		env.sent = env.sent[:0]
		if (i+1)%gossip == 0 {
			l.gossip()
		}
	}
	after := heap()
	if got := l.rep.Applied(); got != n {
		t.Fatalf("applied %d of %d writes", got, n)
	}
	if len(l.log) > gossip+2*every {
		t.Errorf("retained log holds %d instances (base %d), want at most %d: truncation stopped",
			len(l.log), l.logBase, gossip+2*every)
	}
	if grew := int64(after) - int64(before); grew > limit {
		t.Errorf("heap grew %.1f MB over %d applied writes, want under %d MB: applied command bodies are retained",
			float64(grew)/(1<<20), n, limit>>20)
	} else {
		t.Logf("heap grew %.1f MB over %d applied writes; retained log %d instances", float64(grew)/(1<<20), n, len(l.log))
	}
	runtime.KeepAlive(l)
}
