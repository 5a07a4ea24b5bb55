package deploy

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"mcpaxos/internal/ballot"
	"mcpaxos/internal/batch"
	"mcpaxos/internal/classic"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/node"
	"mcpaxos/internal/smr"
)

// openLocal resolves and opens a full single-process deployment plus one
// client, with test-friendly tuning.
func openLocal(t *testing.T, spec ClusterSpec) (*Replica, *Client) {
	t.Helper()
	spec, err := spec.ResolveEphemeral()
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	rep, err := Open(spec)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { rep.Close() })
	cli, err := Dial(spec, spec.Clients[0].ID)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { cli.Close() })
	return rep, cli
}

// TestLiveTCPEndToEnd: the full batched, sharded, multicoordinated stack
// over real loopback sockets — commands round-trip client → coordinator
// group → acceptors → learner replicas → reply, and both replicas converge
// on the same state and order.
func TestLiveTCPEndToEnd(t *testing.T) {
	spec := LocalSpec(2, 3, 3, 2, 1)
	spec.BatchMax = 4
	spec.Window = 4
	spec.RetryEvery = 20 * time.Millisecond
	rep, cli := openLocal(t, spec)

	const n = 32
	calls := make([]*Call, 0, n)
	for i := 0; i < n; i++ {
		calls = append(calls, cli.Set(fmt.Sprintf("k%d", i%8), fmt.Sprintf("v%d", i)))
	}
	if err := cli.Wait(calls, 20*time.Second); err != nil {
		t.Fatalf("wait: %v", err)
	}
	for _, c := range calls {
		if _, err := c.Result(); err != nil {
			t.Fatalf("call %d: %v", c.ID, err)
		}
		if c.Latency() <= 0 {
			t.Fatalf("call %d reported no latency", c.ID)
		}
	}
	l0, l1 := uint32(300), uint32(301)
	for _, l := range []uint32{l0, l1} {
		if err := rep.WaitApplied(l, n, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	s0, _ := rep.Snapshot(l0)
	s1, _ := rep.Snapshot(l1)
	if s0 != s1 {
		t.Fatalf("replicas diverged:\n%s\n%s", s0, s1)
	}
	o0, _ := rep.Order(l0)
	o1, _ := rep.Order(l1)
	if fmt.Sprint(o0) != fmt.Sprint(o1) {
		t.Fatalf("replica orders diverged:\n%v\n%v", o0, o1)
	}
	if v, ok, _ := rep.Get(l0, "k3"); !ok || v != "v27" {
		t.Fatalf("k3 = %q (%v), want v27 (last write wins in the merged order)", v, ok)
	}
}

// TestLiveTCPWALRecoveryState: with WALDir set, acceptors persist votes on
// disk while serving the live path (the stack's durable configuration).
func TestLiveTCPWALRecoveryState(t *testing.T) {
	spec := LocalSpec(2, 3, 3, 1, 1)
	spec.BatchMax = 2
	spec.WALDir = t.TempDir()
	rep, cli := openLocal(t, spec)

	calls := []*Call{cli.Set("a", "1"), cli.Set("b", "2"), cli.Set("c", "3"), cli.Set("d", "4")}
	if err := cli.Wait(calls, 20*time.Second); err != nil {
		t.Fatalf("wait: %v", err)
	}
	if err := rep.WaitApplied(300, 4, 10*time.Second); err != nil {
		t.Fatal(err)
	}
}

// acceptorRounds reads every hosted acceptor's current round and its log's
// write count.
func acceptorRounds(rep *Replica) (rnds map[uint32]ballot.Ballot, writes map[uint32]uint64) {
	rnds, writes = make(map[uint32]ballot.Ballot), make(map[uint32]uint64)
	for _, n := range rep.spec.Acceptors {
		e, ok := rep.host(msg.NodeID(n.ID))
		if !ok {
			continue
		}
		e.agent.Do(func(hd node.Handler) {
			a := hd.(*classic.Acceptor)
			for k := range rep.cfg.NShards() {
				rnds[n.ID] = ballot.Max(rnds[n.ID], a.ShardRnd(k))
			}
		})
		rep.mu.Lock()
		writes[n.ID] = rep.wals[msg.NodeID(n.ID)].Writes()
		rep.mu.Unlock()
	}
	return rnds, writes
}

// TestLiveTCPReopenOverWALRecoversEveryAcceptor: closing a deployment and
// opening the same spec over the same WALDir is a crash and recovery of
// every acceptor — nobody has to ask for it. No acceptor comes back at a
// round it held in its first life (the reopened primaries start from empty
// coordinator state and would re-issue those very rounds), the first life's
// writes are still there, and new commands decide.
func TestLiveTCPReopenOverWALRecoversEveryAcceptor(t *testing.T) {
	spec := LocalSpec(2, 3, 3, 1, 2)
	spec.BatchMax = 2
	spec.RetryEvery = 20 * time.Millisecond
	spec.WALDir = t.TempDir()
	spec, err := spec.ResolveEphemeral()
	if err != nil {
		t.Fatal(err)
	}
	// Each life brings its own client: request IDs restart with a client, and
	// a reused (client, request) pair is a duplicate, not a new command.
	life := func(client int, keys ...string) (*Replica, *Client) {
		t.Helper()
		rep, err := Open(spec)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		t.Cleanup(func() { rep.Close() })
		cli, err := Dial(spec, spec.Clients[client].ID)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		t.Cleanup(func() { cli.Close() })
		var calls []*Call
		for _, k := range keys {
			calls = append(calls, cli.Set(k, "v-"+k))
		}
		if err := cli.Wait(calls, 20*time.Second); err != nil {
			t.Fatalf("wait: %v", err)
		}
		return rep, cli
	}

	rep, cli := life(0, "a", "b", "c", "d")
	first, _ := acceptorRounds(rep)
	firstShards := rep.ShardRounds()
	cli.Close()
	rep.Close()

	rep, _ = life(1, "e", "f")
	second, _ := acceptorRounds(rep)
	for id, r := range first {
		if second[id].MCount <= r.MCount {
			t.Errorf("acceptor %d serves %v after the reopen, not above the incarnation of its first life's %v", id, second[id], r)
		}
	}
	for k, r := range rep.ShardRounds() {
		if !firstShards[k].Less(r) {
			t.Errorf("shard %d serves %v after the reopen, not above the first life's %v", k, r, firstShards[k])
		}
	}
	if err := rep.WaitApplied(300, 6, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b", "c", "d", "e", "f"} {
		if v, ok, _ := rep.Get(300, k); !ok || v != "v-"+k {
			t.Errorf("%s = %q (%v) after the reopen, want %q", k, v, ok, "v-"+k)
		}
	}
}

// TestLiveTCPAcceptorRestartIsOneWrite: Replica.Restart of a WAL-backed
// acceptor recovers it once — one incarnation write, a round above the one it
// served — and the deployment keeps deciding.
func TestLiveTCPAcceptorRestartIsOneWrite(t *testing.T) {
	spec := LocalSpec(1, 3, 3, 1, 1)
	spec.RetryEvery = 20 * time.Millisecond
	spec.WALDir = t.TempDir()
	rep, cli := openLocal(t, spec)
	if err := cli.Wait([]*Call{cli.Set("a", "1"), cli.Set("b", "2")}, 20*time.Second); err != nil {
		t.Fatalf("wait: %v", err)
	}
	victim := spec.Acceptors[0].ID
	before, _ := acceptorRounds(rep)
	if !rep.Kill(victim) {
		t.Fatal("kill failed")
	}
	if err := rep.Restart(victim); err != nil {
		t.Fatal(err)
	}
	// The reopened log counts from zero: what it reads now is the restart's.
	after, writes := acceptorRounds(rep)
	if writes[victim] != 1 {
		t.Errorf("restart cost acceptor %d %d writes, want exactly 1", victim, writes[victim])
	}
	if want := (ballot.Ballot{MCount: before[victim].MCount + 1}); after[victim] != want {
		t.Errorf("acceptor %d restarted at %v, want %v", victim, after[victim], want)
	}
	if err := cli.Wait([]*Call{cli.Set("c", "3")}, 20*time.Second); err != nil {
		t.Fatalf("wait after the restart: %v", err)
	}
}

// TestLiveTCPRetryMasksDeadWindowMember: kill the member every submission is
// funnelled to — the stamping primary — before the traffic. The group must
// complete every proposal without a round change, and the client must get
// there on evidence, not on its timer: the lost connection moves its
// preference to the next member, which takes the stamping over when it finds
// the primary unreachable, so no proposal waits out a retry interval.
func TestLiveTCPRetryMasksDeadWindowMember(t *testing.T) {
	spec := LocalSpec(1, 3, 3, 1, 1)
	spec.BatchMax = 1
	spec.RetryEvery = 250 * time.Millisecond
	rep, cli := openLocal(t, spec)

	// Bootstrap traffic so the round is established everywhere.
	if err := cli.Wait([]*Call{cli.Set("warm", "up")}, 10*time.Second); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	if !rep.Kill(spec.Coords[0].ID) {
		t.Fatal("kill failed")
	}
	calls := make([]*Call, 0, 6)
	for i := 0; i < 6; i++ {
		calls = append(calls, cli.Set(fmt.Sprintf("k%d", i), "v"))
	}
	if err := cli.Wait(calls, 20*time.Second); err != nil {
		t.Fatalf("wait: %v", err)
	}
	if st := cli.Stats(); st.Retries != 0 || st.Resolved != 7 {
		t.Fatalf("client stats %+v: want all 7 calls resolved with no timer-driven retry", st)
	}
	if rc := rep.RoundChanges(); rc != 0 {
		t.Fatalf("round changes = %d, want 0 (group masks the dead member)", rc)
	}
}

// TestLiveTCPQuietShardSkipsBatchTimer: BatchWait is a bound, not a price. One
// caller issuing writes back to back never has company in the ingress batch,
// so each write is stamped when it arrives — with BatchWait at 100 ms, twenty
// of them waiting out the timer would take 2 s. The 1 s limit is fifty times
// the expected loop time: it tells the two behaviours apart, it is not a
// latency assertion.
func TestLiveTCPQuietShardSkipsBatchTimer(t *testing.T) {
	spec := LocalSpec(1, 3, 3, 2, 1)
	spec.BatchWait = 100 * time.Millisecond
	rep, cli := openLocal(t, spec)

	// The first write also pays round establishment, and the client retries
	// it meanwhile: a retry that reached a backup member before the primary's
	// stamp share sits in that member's batcher for up to BatchWait. Let it
	// flush so the count below sees only the measured writes.
	if _, err := cli.Set("warm", "up").Result(); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	time.Sleep(2 * spec.BatchWait)
	const n = 20
	before, _, _ := rep.IngressCounts()
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := cli.Set("k", fmt.Sprintf("v%d", i)).Result(); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	took := time.Since(start)
	after, _, _ := rep.IngressCounts()
	if got := after - before; got != n {
		t.Errorf("ingress stamped %d slots for %d sequential writes, want one each", got, n)
	}
	if took >= time.Second {
		t.Errorf("%d sequential writes took %v: each waited out the %v batch timer", n, took, spec.BatchWait)
	}
}

// TestLiveTCPClosedLoopSkipsBatchTimer: the pipeline is the batch clock. Three
// callers in a closed loop never fill a batch of eight, so while a
// multi-command batch sent the shard back to timer batching every other round
// of theirs waited out BatchWait — twenty rounds at 100 ms took 1.0–1.1 s.
// Batching only while an instance is in flight, a round costs a round trip and
// the loop some tens of milliseconds. The 500 ms limit tells the two
// behaviours apart; it is not a latency assertion.
func TestLiveTCPClosedLoopSkipsBatchTimer(t *testing.T) {
	spec := LocalSpec(1, 3, 3, 2, 1)
	spec.BatchWait = 100 * time.Millisecond
	_, cli := openLocal(t, spec)
	if _, err := cli.Set("warm", "up").Result(); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	time.Sleep(2 * spec.BatchWait) // see TestLiveTCPQuietShardSkipsBatchTimer

	const callers, n = 3, 20
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if _, err := cli.Set(fmt.Sprintf("k%d", g), fmt.Sprintf("v%d", i)).Result(); err != nil {
					t.Errorf("caller %d write %d: %v", g, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if took := time.Since(start); took >= 500*time.Millisecond {
		t.Errorf("%d callers x %d sequential writes took %v: rounds waited out the %v batch timer", callers, n, took, spec.BatchWait)
	}
}

// TestLiveTCPIdleShardIsToldToSkip: shards consume sequence slots at different
// rates, and the merged order must not sit on the slower one. A client's shard
// rotation starts at shard 0, so four freshly dialled clients writing once
// each, one after the other, put every write on shard 0: the second and later
// ones are decided above slots shard 1 never claimed. With FillAfter stretched
// to 2 s, each of them waited 2-3 watch periods for the fill nudge — 16 s in
// all. Now the learners tell shard 1's stamper to skip after one BatchWait.
func TestLiveTCPIdleShardIsToldToSkip(t *testing.T) {
	spec := LocalSpec(2, 3, 3, 2, 4)
	spec.FillAfter = 2 * time.Second
	spec.RetryEvery = 500 * time.Millisecond
	rep, first := openLocal(t, spec)
	spec = rep.spec
	start := time.Now()
	for i, cn := range spec.Clients {
		cli := first
		if i > 0 {
			var err error
			if cli, err = Dial(spec, cn.ID); err != nil {
				t.Fatalf("dial client %d: %v", i, err)
			}
			defer cli.Close()
		}
		if _, err := cli.Set(fmt.Sprintf("k%d", i), "v").Result(); err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	if took := time.Since(start); took >= time.Second {
		t.Errorf("four writes above an idle shard took %v, want under 1s (FillAfter is %v)", took, spec.FillAfter)
	}
	if _, _, filled := rep.IngressCounts(); filled == 0 {
		t.Error("no slot was filled: shard 1 cannot have been skipped")
	}
	if rc := rep.RoundChanges(); rc != 0 {
		t.Errorf("%d round changes, want 0: a skip is an ordinary stamp", rc)
	}
}

// TestLiveTCPBringUpNeedsNoRetry: a node's first message follows its route,
// so nothing in bring-up waits on a retransmission timer. With RetryEvery
// stretched to 2 s — any lost first message costs seconds — a fresh
// deployment acks its first write and reports both learners synced inside a
// second, and so does a learner restarted behind 50 writes. (When the learner
// sent its first catch-up probe before it had a socket, the probe was always
// dropped, both learners sat in catch-up mode withholding replies, and the
// first ack waited for the client's replay probe at 4 × RetryEvery.)
func TestLiveTCPBringUpNeedsNoRetry(t *testing.T) {
	spec := LocalSpec(1, 3, 3, 2, 1)
	spec.RetryEvery = 2 * time.Second
	spec.RequestTimeout = 30 * time.Second
	start := time.Now()
	rep, cli := openLocal(t, spec)
	if _, err := cli.Set("first", "1").Result(); err != nil {
		t.Fatalf("first write: %v", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("Open + Dial + first acked write took %v, want under 1s (one retry interval is %v)", took, spec.RetryEvery)
	}
	awaitSynced := func(what string, since time.Time, learners ...uint32) {
		t.Helper()
		for _, id := range learners {
			for {
				synced, err := rep.CatchupSynced(id)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if synced {
					break
				}
				if time.Since(since) > 10*time.Second {
					t.Fatalf("%s: learner %d never synced", what, id)
				}
				time.Sleep(time.Millisecond)
			}
		}
		if took := time.Since(since); took > time.Second {
			t.Errorf("%s: learners %v synced after %v, want under 1s", what, learners, took)
		}
	}
	awaitSynced("bring-up", start, 300, 301)

	if !rep.Kill(301) {
		t.Fatal("learner 301 was not hosted")
	}
	var calls []*Call
	for i := 0; i < 50; i++ {
		calls = append(calls, cli.Set(fmt.Sprintf("k%d", i), "v"))
	}
	if err := cli.Wait(calls, 30*time.Second); err != nil {
		t.Fatalf("writes during the learner's downtime: %v", err)
	}
	// Nothing makes the surviving learner write to 301 for a watch period
	// (8 s), so its link to the dead incarnation is idle: the restarted
	// learner's probe is answered in time only because the endpoint watches
	// its outbound connections and evicted that link when 301 died.
	restart := time.Now()
	if err := rep.Restart(301); err != nil {
		t.Fatalf("restart: %v", err)
	}
	awaitSynced("restart", restart, 301)
	a, errA := rep.Applied(300)
	b, errB := rep.Applied(301)
	if errA != nil || errB != nil || a != 51 || b != a {
		t.Errorf("applied after the restarted learner synced: %d (%v) vs %d (%v), want 51 on both", a, errA, b, errB)
	}
}

// TestLiveTCPPrimaryKillCostsNoRetry: losing the stamping primary costs the
// caller one hop, once, and no timer anywhere. RetryEvery is stretched to 2 s,
// so a single command that waited for the client's retry (4 s) or for the
// relaying member's bounded wait (4 s) would blow the 1 s bounds below. The
// primary is killed with writes in flight: the client's lost connection moves
// its preference to the next member, that member finds the primary
// unreachable when it relays and takes the stamping over, and every write
// resolves with zero retries, zero round changes and nothing stamped twice.
// Then the split that sticky preferences create: the primary returns and a
// client dialled since uses it, while the client that lived through the
// outage stays with the member that answered it. One of the two members
// stamps and the other relays, so the split costs nothing either.
func TestLiveTCPPrimaryKillCostsNoRetry(t *testing.T) {
	spec := LocalSpec(1, 3, 3, 2, 2)
	spec.RetryEvery = 2 * time.Second
	spec.RequestTimeout = 30 * time.Second
	rep, survivor := openLocal(t, spec)
	spec = rep.spec // resolved addresses, for the second client
	if _, err := survivor.Set("warm", "up").Result(); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	wantQuiet := func(what string, clients ...*Client) {
		t.Helper()
		for _, cli := range clients {
			if st := cli.Stats(); st.Retries != 0 || st.Failed != 0 {
				t.Errorf("%s: client %v stats %+v, want no timer-driven retry and no failed call", what, cli.id, st)
			}
		}
		if rc := rep.RoundChanges(); rc != 0 {
			t.Errorf("%s: %d round changes, want 0", what, rc)
		}
		if _, restamped, _ := rep.IngressCounts(); restamped != 0 {
			t.Errorf("%s: %d requests lost their stamped slot, want 0", what, restamped)
		}
	}

	const n = 20
	start := time.Now()
	var calls []*Call
	for i := 0; i < n; i++ {
		calls = append(calls, survivor.Set(fmt.Sprintf("a%d", i), "v"))
	}
	if !rep.Kill(spec.Coords[0].ID) {
		t.Fatal("the primary was not hosted")
	}
	for i := n; i < 2*n; i++ {
		calls = append(calls, survivor.Set(fmt.Sprintf("a%d", i), "v"))
	}
	if err := survivor.Wait(calls, 20*time.Second); err != nil {
		t.Fatalf("writes across the kill: %v", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("%d writes across the primary's death took %v, want under 1s (one retry is %v)", 2*n, took, 2*spec.RetryEvery)
	}
	wantQuiet("primary killed under load", survivor)

	if err := rep.Restart(spec.Coords[0].ID); err != nil {
		t.Fatalf("restart: %v", err)
	}
	// One write through the member the survivor prefers: its stamp share tells
	// the restarted primary who is stamping.
	if _, err := survivor.Set("after", "restart").Result(); err != nil {
		t.Fatalf("write after the restart: %v", err)
	}
	fresh, err := Dial(spec, spec.Clients[1].ID)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer fresh.Close()
	start = time.Now()
	calls = calls[:0]
	for i := 0; i < n; i++ {
		calls = append(calls, survivor.Set(fmt.Sprintf("s%d", i), "v"), fresh.Set(fmt.Sprintf("f%d", i), "v"))
	}
	if err := survivor.Wait(calls, 20*time.Second); err != nil {
		t.Fatalf("split clients: %v", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("%d writes from clients split over two members took %v, want under 1s", 2*n, took)
	}
	wantQuiet("clients split over two members", survivor, fresh)
	if err := rep.WaitApplied(300, 4*n+2, 10*time.Second); err != nil {
		t.Error(err)
	}
}

// liveE13Run drives one E13-style run over real sockets: `commands` writes
// through 2 shards served by coordinator groups of 3, optionally killing one
// group member per shard mid-stream. It returns the merged apply order, the
// surviving coordinators' round-change count, and the acceptors' per-shard
// round delta across the drain.
func liveE13Run(t *testing.T, commands int, crash bool) (order []uint64, roundChanges int, advanced int) {
	t.Helper()
	spec := LocalSpec(2, 3, 3, 2, 1)
	spec.BatchMax = 4
	spec.Window = 4
	spec.RetryEvery = 20 * time.Millisecond
	spec.WALDir = t.TempDir()
	rep, cli := openLocal(t, spec)

	// Submit the first half, let it complete: the rounds are established and
	// traffic is flowing on both shards.
	half := commands / 2
	calls := make([]*Call, 0, commands)
	for i := 0; i < half; i++ {
		calls = append(calls, cli.Set(fmt.Sprintf("k%d", i%8), fmt.Sprintf("v%d", i)))
	}
	if err := cli.Wait(calls[:half], 30*time.Second); err != nil {
		t.Fatalf("first half: %v", err)
	}
	before := rep.ShardRounds()

	if crash {
		// One group member per shard dies mid-stream: the primaries,
		// coordinators 0 and 1 — the worst case for a single-coordinated
		// deployment, masked entirely by a group of three.
		if !rep.Kill(spec.Coords[0].ID) || !rep.Kill(spec.Coords[1].ID) {
			t.Fatal("kill failed")
		}
	}
	for i := half; i < commands; i++ {
		calls = append(calls, cli.Set(fmt.Sprintf("k%d", i%8), fmt.Sprintf("v%d", i)))
	}
	if err := cli.Wait(calls, 60*time.Second); err != nil {
		t.Fatalf("second half: %v", err)
	}
	for _, id := range []uint32{300, 301} {
		if err := rep.WaitApplied(id, commands, 20*time.Second); err != nil {
			t.Fatal(err)
		}
	}

	o0, _ := rep.Order(300)
	o1, _ := rep.Order(301)
	if fmt.Sprint(o0) != fmt.Sprint(o1) {
		t.Fatalf("learner orders diverged:\n%v\n%v", o0, o1)
	}
	after := rep.ShardRounds()
	for k := range after {
		if before[k].Less(after[k]) {
			advanced++
		}
	}
	st, re, fi := rep.IngressCounts()
	t.Logf("e13 crash=%v: ingress stamped=%d restamped=%d filled=%d catchup=%+v clistats=%+v",
		crash, st, re, fi, rep.CatchupStats(), cli.Stats())
	return o0, rep.RoundChanges(), advanced
}

// TestLiveTCPCrashMasking is the E13 claim off the simulator: under
// CoordsPerShard = 3 over real TCP, killing one coordinator per shard
// mid-stream drains the remaining commands with zero round changes and no
// acceptor round advance, and each shard still applies its commands in the
// order they were submitted. Batch boundaries follow the batch clock, so the
// merged order of two runs is not compared: only each shard's own order is
// fixed.
func TestLiveTCPCrashMasking(t *testing.T) {
	const commands = 48
	for _, crash := range []bool{false, true} {
		order, rc, adv := liveE13Run(t, commands, crash)
		if len(order) != commands {
			t.Fatalf("crash=%v: order incomplete: %d of %d", crash, len(order), commands)
		}
		// The client's i-th command has request counter i and goes to shard
		// i mod 2, so each shard's request counters rise in its order.
		last := [2]int64{-1, -1}
		for _, id := range order {
			_, req := classic.SplitCmdID(id)
			shard := req % 2
			if int64(req) <= last[shard] {
				t.Fatalf("crash=%v: shard %d applied request %d after %d:\n%v", crash, shard, req, last[shard], order)
			}
			last[shard] = int64(req)
		}
		if rc != 0 {
			t.Fatalf("crash=%v: %d round changes, want 0 (the groups mask the kills)", crash, rc)
		}
		if adv != 0 {
			t.Fatalf("crash=%v: acceptor shard rounds advanced on %d shards, want none", crash, adv)
		}
	}
}

// TestSpecValidation: the spec surface rejects malformed deployments.
func TestSpecValidation(t *testing.T) {
	good, err := LocalSpec(2, 3, 3, 1, 1).ResolveEphemeral()
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if err := LocalSpec(1, 1, 3, 1, 1).Validate(); err == nil {
		t.Fatal("unresolved port-0 addresses accepted — they would hang, not work")
	}
	dup, _ := LocalSpec(1, 1, 3, 1, 1).ResolveEphemeral()
	dup.Learners[0].ID = dup.Acceptors[0].ID
	if err := dup.Validate(); err == nil {
		t.Fatal("duplicate node ID accepted")
	}
	short, _ := LocalSpec(2, 3, 3, 1, 1).ResolveEphemeral()
	short.Coords = short.Coords[:4] // shard 1's group is incomplete
	if err := short.Validate(); err == nil {
		t.Fatal("incomplete coordinator group accepted")
	}
	big, _ := LocalSpec(1, 1, 3, 1, 1).ResolveEphemeral()
	big.Clients[0].ID = 1 << 23
	if err := big.Validate(); err == nil {
		t.Fatal("out-of-range node ID accepted")
	}
}

// TestCmdIDRouting: the command-ID stamp carries the issuing client and its
// request counter through batches and back out.
func TestCmdIDRouting(t *testing.T) {
	id := classic.CmdID(7, 99)
	if to, req := classic.SplitCmdID(id); to != 7 || req != 99 {
		t.Fatalf("SplitCmdID(%d) = %v, %d; want 7, 99", id, to, req)
	}
	if got, _ := classic.SplitCmdID(smr.SetCmd(12345, "k", "v").ID); got != 0 {
		t.Fatalf("unstamped command routed to client %v, want 0", got)
	}
}

// TestLiveTCPClientCannotForgeAnotherClientsCommand: a client's Propose
// refuses a command that carries an ID of its own or the batch key — a
// batch packing a write stamped as client 2's first command would otherwise
// be applied under client 2's ID, and client 2's genuine first write then
// answered "ok" as a duplicate without ever being applied.
func TestLiveTCPClientCannotForgeAnotherClientsCommand(t *testing.T) {
	spec, err := LocalSpec(1, 3, 3, 2, 2).ResolveEphemeral()
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	spec.RetryEvery = 20 * time.Millisecond
	rep, err := Open(spec)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { rep.Close() })
	clients := make([]*Client, 2)
	for i := range clients {
		if clients[i], err = Dial(spec, spec.Clients[i].ID); err != nil {
			t.Fatalf("dial: %v", err)
		}
		t.Cleanup(func() { clients[i].Close() })
	}
	victim := msg.NodeID(spec.Clients[1].ID)
	forgedWrite := smr.SetCmd(classic.CmdID(victim, 0), "k", "forged")
	for name, cmd := range map[string]cstruct.Cmd{
		"batch key":   batch.Pack([]cstruct.Cmd{forgedWrite, smr.SetCmd(classic.CmdID(victim, 1), "j", "x")}),
		"supplied ID": forgedWrite,
	} {
		call := clients[0].Propose(cmd)
		select {
		case <-call.Done():
			if _, err := call.Result(); err == nil {
				t.Fatalf("%s: the forged call succeeded", name)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s: the forged call was not refused at once", name)
		}
	}

	if _, err := clients[1].Set("k", "genuine").Result(); err != nil {
		t.Fatalf("genuine write: %v", err)
	}
	for _, l := range spec.Learners {
		if err := rep.WaitApplied(l.ID, 1, 10*time.Second); err != nil {
			t.Fatal(err)
		}
		if v, ok, _ := rep.Get(l.ID, "k"); !ok || v != "genuine" {
			t.Fatalf("learner %d holds k = %q (%v), want the genuine write", l.ID, v, ok)
		}
	}
}
