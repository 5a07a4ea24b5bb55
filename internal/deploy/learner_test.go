package deploy

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"mcpaxos/internal/ballot"
	"mcpaxos/internal/batch"
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

// (a) A started learner's first send is a catch-up probe to its peer. While
// that probe is unanswered, an instance decided by live quorum counting is
// acknowledged to the coordinators, cached and answered: a fresh deployment's
// first write must not wait for the probe. The instances the peer's answer
// delivers — the pulled ones, and a live one they release from behind the gap
// — are cached but not answered: a rejoining learner replays its history
// without a reply storm.
func TestLearnerWithholdsOnlyPulledReplies(t *testing.T) {
	l, env, cfg := testLearner(t, 2, nil)
	if got := take(env); len(got) != 0 {
		t.Fatalf("building the learner sent %d messages, want none before start", len(got))
	}
	l.startFetch()
	first := take(env)
	if len(first) != 1 {
		t.Fatalf("start sent %d messages, want one probe", len(first))
	}
	if req, ok := first[0].m.(msg.CatchupReq); !ok || first[0].to != cfg.Learners[1] || req.From != 0 || req.Learner != env.id {
		t.Fatalf("first send = %+v to %d, want CatchupReq{From: 0} to peer %d", first[0].m, first[0].to, cfg.Learners[1])
	}

	client := msg.NodeID(1)
	cmd := func(req uint64) cstruct.Cmd { return smr.SetCmd(classic.CmdID(client, req), "k", fmt.Sprint(req)) }
	// answered checks that exactly the commands of want were replied to, each
	// at its instance, and that every command of cached is in the replay cache.
	answered := func(what string, sent []fakeSent, want map[uint64]uint64, cached ...cstruct.Cmd) {
		t.Helper()
		replies, tos := sentTo[msg.Reply](sent)
		got := make(map[uint64]uint64)
		for i, r := range replies {
			if tos[i] != client {
				t.Fatalf("%s: reply %+v sent to %d, want client %d", what, r, tos[i], client)
			}
			got[r.CmdID] = r.Inst
		}
		if len(replies) != len(want) || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: replies (command → instance) %v, want %v", what, got, want)
		}
		for _, c := range cached {
			if _, ok := l.replay.Get(c.ID); !ok {
				t.Fatalf("%s: result of command %d not cached", what, c.ID)
			}
		}
	}

	c0 := cmd(0)
	decide(l, cfg, 0, c0)
	sent := take(env)
	answered("live instance before sync", sent, map[uint64]uint64{c0.ID: 0}, c0)
	acks, tos := sentTo[msg.P2b](sent)
	if len(acks) != 3 || !equalIDs(tos, cfg.Coords) || acks[0].Inst != 0 {
		t.Fatalf("learn acks = %+v to %v, want one P2b{Inst: 0} to each of %v", acks, tos, cfg.Coords)
	}
	if l.fetch.synced {
		t.Fatal("the pull synced before its probe was answered")
	}

	// Instance 3 is decided live above a gap: buffered, so nothing is sent
	// for it yet. The peer's answer carries 1 and 2, which release it.
	c1, c2, c3 := cmd(1), cmd(2), cmd(3)
	decide(l, cfg, 3, c3)
	answered("live instance buffered above the gap", take(env), nil)
	l.OnMessage(cfg.Learners[1], msg.CatchupResp{From: 1, Frontier: 3,
		Cmds: []cstruct.Cmd{c1, c2}})
	if !l.fetch.synced || l.merger.Next() != 4 {
		t.Fatalf("after the pull: synced %v at frontier %d, want synced at 4", l.fetch.synced, l.merger.Next())
	}
	answered("pulled instances and the one they release", take(env), nil, c1, c2, c3)

	c4 := cmd(4)
	decide(l, cfg, 4, c4)
	answered("live instance after sync", take(env), map[uint64]uint64{c4.ID: 4}, c4)
}

// Every learned instance draws an ack to its shard's group: on the deployed
// 2-shard c = 3 shape, finding the targets allocates nothing.
func TestLearnerAckTargetsAllocateNothing(t *testing.T) {
	l, _, cfg := testShardedLearner(t, 2, 2, nil)
	for inst := uint64(0); inst < 4; inst++ {
		if got, want := l.group(inst), cfg.ShardCoords(cfg.ShardOf(inst)); !equalIDs(got, want) {
			t.Fatalf("instance %d: ack targets %v, want shard group %v", inst, got, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { l.group(7) }); allocs != 0 {
		t.Errorf("finding an instance's ack targets allocates %v, want 0", allocs)
	}
}

// Every ack carries the learned high-water mark — one past the highest
// instance learned, in any shard — so the owning shard's stamper claims the
// slots the merge waits on: the ack of a fresh learn and the re-ack a
// re-announced 2b draws (OnDuplicate) alike.
func TestLearnerAcksCarryHighWaterMark(t *testing.T) {
	l, env, cfg := testShardedLearner(t, 2, 1, nil)
	cmd := func(i uint64) cstruct.Cmd { return smr.SetCmd(classic.CmdID(1, i), "k", fmt.Sprint(i)) }
	acked := func(what string, inst, hi uint64) {
		t.Helper()
		acks, tos := sentTo[msg.P2b](take(env))
		group := cfg.ShardCoords(cfg.ShardOf(inst))
		if !equalIDs(tos, group) {
			t.Fatalf("%s: acks went to %v, want instance %d's group %v", what, tos, inst, group)
		}
		for _, a := range acks {
			if a.Inst != inst || a.Hi != hi {
				t.Errorf("%s: sent %+v, want P2b{Inst: %d, Hi: %d}", what, a, inst, hi)
			}
		}
	}
	decide(l, cfg, 0, cmd(0))
	acked("first learn", 0, 1)
	decide(l, cfg, 4, cmd(4)) // shard 0 runs ahead; buffered in the merge
	acked("learn above a hole", 4, 5)
	decide(l, cfg, 1, cmd(1))
	acked("shard 1's learn below the mark", 1, 5)
	rnd := ballot.Ballot{MCount: 1}
	l.OnMessage(cfg.Acceptors[2], msg.P2b{Inst: 1, Rnd: rnd, Acc: cfg.Acceptors[2],
		Val: cstruct.NewSingleValue(cmd(1)), Again: true})
	acked("re-ack of a re-announced 2b", 1, 5)
}

// (b) A peer's pull below the log base is refused with the floor attached and
// no commands; at or above it the response carries at most catchupChunk
// commands.
func TestLearnerServesCatchupAboveLogBase(t *testing.T) {
	l, env, cfg := testLearner(t, 2, nil)
	const n = catchupChunk + 72
	for i := uint64(0); i < n; i++ {
		decide(l, cfg, i, smr.SetCmd(classic.CmdID(1, i), "k", fmt.Sprint(i)))
	}
	l.truncate(40)
	peer := cfg.Learners[1]
	serve := func(from uint64) msg.CatchupResp {
		t.Helper()
		take(env)
		l.OnMessage(peer, msg.CatchupReq{Learner: peer, From: from})
		resps, tos := sentTo[msg.CatchupResp](take(env))
		if len(resps) != 1 || tos[0] != peer {
			t.Fatalf("pull from %d drew %d responses to %v, want one to %d", from, len(resps), tos, peer)
		}
		if resps[0].From != from || resps[0].Frontier != n {
			t.Fatalf("pull from %d answered From=%d Frontier=%d, want %d and %d", from, resps[0].From, resps[0].Frontier, from, n)
		}
		return resps[0]
	}
	if r := serve(39); r.Floor != 40 || len(r.Cmds) != 0 {
		t.Fatalf("pull below the base: Floor=%d with %d commands, want a refusal at floor 40", r.Floor, len(r.Cmds))
	}
	if r := serve(40); r.Floor != 0 || len(r.Cmds) != catchupChunk || r.Cmds[0].ID != classic.CmdID(1, 40) {
		t.Fatalf("pull at the base: Floor=%d, %d commands, want the %d-instance chunk starting at instance 40", r.Floor, len(r.Cmds), catchupChunk)
	}
	if r := serve(n - 3); len(r.Cmds) != 3 {
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
		l.OnTimer(timerWatch)
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

	l.OnMessage(client, msg.Propose{Cmd: applied})
	again, tos := sentTo[msg.Reply](take(env))
	if len(again) != 1 || tos[0] != client || again[0] != first[0] {
		t.Fatalf("probe for an applied command drew %+v to %v, want the original reply %+v again", again, tos, first[0])
	}
	if l.replayed != 1 {
		t.Fatalf("replayed = %d, want 1", l.replayed)
	}

	l.OnMessage(client, msg.Propose{Cmd: smr.SetCmd(classic.CmdID(client, 1), "k", "w")})
	if got := take(env); len(got) != 0 || l.replayed != 1 {
		t.Fatalf("probe for an unapplied command sent %d messages (replayed = %d), want silence", len(got), l.replayed)
	}
}

// A replay probe is one client command as it stands: a batch in a probe is
// not unpacked, so a client cannot draw the cached replies of commands other
// clients proposed.
func TestLearnerReplayProbeIgnoresBatches(t *testing.T) {
	l, env, cfg := testLearner(t, 1, nil)
	victim, forger := msg.NodeID(2), msg.NodeID(1)
	applied := smr.SetCmd(classic.CmdID(victim, 0), "k", "v")
	decide(l, cfg, 0, applied)
	take(env)

	forged := batch.Pack([]cstruct.Cmd{applied, smr.SetCmd(classic.CmdID(forger, 0), "k", "w")})
	l.OnMessage(forger, msg.Propose{Cmd: forged})
	if got, tos := sentTo[msg.Reply](take(env)); len(got) != 0 || l.replayed != 0 {
		t.Fatalf("a batch probe drew %+v to %v (replayed = %d), want silence", got, tos, l.replayed)
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
			if !f.Idle {
				t.Errorf("%s: sent %+v, want only skip hints", what, f)
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

	// One shard: no clock at all.
	if off, _, _ := testLearner(t, 1, nil); off.idleEvery != 0 {
		t.Errorf("one shard: skip-hint period %d, want 0", off.idleEvery)
	}
}

// (f) A learner's resident state stays flat in the size of the commands it
// applied, at the spec's zero knobs as at an explicit interval: 100k decided
// 256-byte writes, a snapshot every 256 instances and a watermark gossip
// every 1k leave a truncated log, and a heap grown by what the apply order
// and the dedup floor hold per command — an ID and a result — not by the
// command bodies, which would cost about 40 MB here.
func TestLearnerRetentionIsBounded(t *testing.T) {
	const (
		n      = 100_000
		every  = 256
		gossip = 1000
		limit  = 15 << 20
	)
	for name, tune := range map[string]func(*ClusterSpec){
		"zero knobs":        nil,
		"SnapshotEvery 256": func(s *ClusterSpec) { s.SnapshotEvery = every },
	} {
		t.Run(name, func(t *testing.T) {
			l, env, cfg := testLearner(t, 1, tune)
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
		})
	}
}
