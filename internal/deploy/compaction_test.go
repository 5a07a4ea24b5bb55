package deploy

import (
	"fmt"
	"slices"
	"testing"
	"time"
)

// compactionSpec is the shared tuning of the compaction tests: small
// snapshot interval and retention so the watermark machinery engages within
// a few dozen commands, single-command batches so instances track commands.
func compactionSpec(snapDir string) ClusterSpec {
	spec := LocalSpec(2, 3, 3, 2, 1)
	spec.BatchMax = 1
	spec.RetryEvery = 20 * time.Millisecond
	spec.SnapshotEvery = 16
	spec.Retain = 8
	spec.SnapshotDir = snapDir
	return spec
}

// drive submits n writes and waits for them.
func drive(t *testing.T, cli *Client, n, from int) {
	t.Helper()
	calls := make([]*Call, 0, n)
	for i := 0; i < n; i++ {
		calls = append(calls, cli.Set(fmt.Sprintf("k%d", (from+i)%8), fmt.Sprintf("v%d", from+i)))
	}
	if err := cli.Wait(calls, 30*time.Second); err != nil {
		t.Fatalf("wait: %v", err)
	}
}

// waitTruncated polls until every listed learner has truncated its retained
// log (logBase > 0), i.e. the cluster watermark advanced past the retention
// slack everywhere.
func waitTruncated(t *testing.T, rep *Replica, learners []uint32) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		all := true
		for _, l := range learners {
			_, _, base, err := rep.Compaction(l)
			if err != nil {
				t.Fatal(err)
			}
			if base == 0 {
				all = false
			}
		}
		if all {
			return
		}
		if time.Now().After(deadline) {
			for _, l := range learners {
				fr, wm, base, _ := rep.Compaction(l)
				t.Logf("learner %d: frontier=%d watermark=%d logBase=%d", l, fr, wm, base)
			}
			t.Fatal("watermark never advanced past the retention slack")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestLiveCompactionBoundsState: with SnapshotEvery set, a steady write
// stream drives the full watermark pipeline — learners cut snapshots, gossip
// Done, ratchet the cluster watermark, truncate their retained logs, evict
// reply-cache records, and the acceptors truncate their vote history to the
// same floor — while the replicas stay converged.
func TestLiveCompactionBoundsState(t *testing.T) {
	spec := compactionSpec("")
	spec.WALDir = t.TempDir()
	rep, cli := openLocal(t, spec)

	const n = 96
	drive(t, cli, n, 0)
	learners := []uint32{300, 301}
	for _, l := range learners {
		if err := rep.WaitApplied(l, n, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	waitTruncated(t, rep, learners)

	cs := rep.CompactionStats()
	if cs.Saves < 2 {
		t.Fatalf("snapshot saves = %d, want >= 2", cs.Saves)
	}
	if cs.Watermark == 0 || cs.LogBase == 0 {
		t.Fatalf("watermark = %d, logBase = %d: compaction never engaged", cs.Watermark, cs.LogBase)
	}
	for _, l := range learners {
		fr, wm, base, _ := rep.Compaction(l)
		if fr < wm {
			t.Fatalf("learner %d frontier %d below its own watermark %d", l, fr, wm)
		}
		if want := wm - uint64(spec.Retain); base != want {
			t.Fatalf("learner %d logBase = %d, want watermark-retain = %d", l, base, want)
		}
	}
	// With traffic stopped the watermark catches up to the frontiers, and
	// the resident log settles at a bound set by the knobs — one snapshot
	// interval of un-cut tail plus the retention slack — not by the run
	// length. This is the plateau claim in miniature.
	bound := spec.SnapshotEvery + spec.Retain
	deadline := time.Now().Add(10 * time.Second)
	for rep.CompactionStats().ResidentLog > bound {
		if time.Now().After(deadline) {
			t.Fatalf("resident log %d never settled under SnapshotEvery+Retain = %d",
				rep.CompactionStats().ResidentLog, bound)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Acceptors follow the gossiped watermark.
	deadline = time.Now().Add(10 * time.Second)
	for {
		floors := rep.AcceptorFloors()
		advanced := 0
		for _, f := range floors {
			if f > 0 {
				advanced++
			}
		}
		if advanced == len(floors) && len(floors) == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("acceptor floors never advanced: %v", floors)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// And the replicas still agree.
	s0, _ := rep.Snapshot(300)
	s1, _ := rep.Snapshot(301)
	if s0 != s1 {
		t.Fatalf("replicas diverged under compaction:\n%s\n%s", s0, s1)
	}
	o0, _ := rep.Order(300)
	o1, _ := rep.Order(301)
	if fmt.Sprint(o0) != fmt.Sprint(o1) {
		t.Fatal("orders diverged under compaction")
	}
}

// TestLiveSnapshotShippingRestart: a learner with memory-only snapshots that
// restarts below the cluster watermark cannot log-pull — its peer compacted
// the prefix away and refuses with the floor — so it must install the peer's
// snapshot and replay only the log suffix. The restarted learner converges
// to the same state and order.
func TestLiveSnapshotShippingRestart(t *testing.T) {
	spec := compactionSpec("") // volatile snapshots: a killed learner loses them
	rep, cli := openLocal(t, spec)

	const n = 96
	drive(t, cli, n, 0)
	waitTruncated(t, rep, []uint32{300, 301})

	if !rep.Kill(301) {
		t.Fatal("kill failed")
	}
	if err := rep.Restart(301); err != nil {
		t.Fatal(err)
	}
	// The restarted learner is at instance 0, below its peer's retention
	// floor: the log pull must escalate to snapshot transfer and converge.
	deadline := time.Now().Add(20 * time.Second)
	for {
		synced, err := rep.CatchupSynced(301)
		if err == nil && synced {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarted learner never synced: %+v", rep.CatchupStats())
		}
		time.Sleep(20 * time.Millisecond)
	}
	st := rep.CatchupStats()
	if st.SnapInstalls < 1 {
		t.Fatalf("catch-up stats %+v: expected a snapshot install (log pull below the floor must escalate)", st)
	}
	o0, _ := rep.Order(300)
	o1, _ := rep.Order(301)
	if fmt.Sprint(o0) != fmt.Sprint(o1) {
		t.Fatalf("restarted learner's order diverged:\n%v\n%v", o0, o1)
	}
	s0, _ := rep.Snapshot(300)
	s1, _ := rep.Snapshot(301)
	if s0 != s1 {
		t.Fatalf("restarted learner's state diverged:\n%s\n%s", s0, s1)
	}
	// New writes reach the reinstalled learner too.
	drive(t, cli, 8, n)
	if err := rep.WaitApplied(301, n+8, 10*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestLiveDurableSnapshotRestart: with SnapshotDir set, a restarted learner
// reloads its own newest snapshot from disk and pulls only the log suffix —
// no snapshot transfer crosses the wire even though the peer refuses pulls
// below its floor.
func TestLiveDurableSnapshotRestart(t *testing.T) {
	spec := compactionSpec(t.TempDir())
	rep, cli := openLocal(t, spec)

	const n = 96
	drive(t, cli, n, 0)
	waitTruncated(t, rep, []uint32{300, 301})

	fr, _, _, err := rep.Compaction(301)
	if err != nil || fr == 0 {
		t.Fatalf("learner 301 has no snapshot frontier before the kill (%v)", err)
	}
	if !rep.Kill(301) {
		t.Fatal("kill failed")
	}
	if err := rep.Restart(301); err != nil {
		t.Fatal(err)
	}
	// The durable reload puts the learner at its old frontier immediately.
	next, _, err := rep.Progress(301)
	if err != nil {
		t.Fatal(err)
	}
	if next < fr {
		t.Fatalf("restarted frontier %d below the durable snapshot frontier %d", next, fr)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		synced, err := rep.CatchupSynced(301)
		if err == nil && synced {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarted learner never synced: %+v", rep.CatchupStats())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st := rep.CatchupStats(); st.SnapInstalls != 0 || st.SnapReqs != 0 {
		t.Fatalf("catch-up stats %+v: durable reload should pull only the log suffix, not ship a snapshot", st)
	}
	o0, _ := rep.Order(300)
	o1, _ := rep.Order(301)
	if fmt.Sprint(o0) != fmt.Sprint(o1) {
		t.Fatal("orders diverged after durable-snapshot restart")
	}
	s0, _ := rep.Snapshot(300)
	s1, _ := rep.Snapshot(301)
	if s0 != s1 {
		t.Fatal("states diverged after durable-snapshot restart")
	}
}

// waitFloors polls until every acceptor's compaction floor is at least floor.
func waitFloors(t *testing.T, rep *Replica, floor uint64) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		floors := rep.AcceptorFloors()
		if len(floors) > 0 && slices.Min(floors) >= floor {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("acceptor floors %v never reached %d", floors, floor)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// A coordinator restarted after the acceptors truncated stamps again from
// slot 0, below every acceptor's floor. The acceptors refuse those 2as with
// the floor, the coordinator catches up to it, and the client's retry lands
// above it: the next write is answered and applied on both learners.
func TestLiveTCPCoordinatorRestartAfterCompaction(t *testing.T) {
	spec := LocalSpec(1, 1, 3, 2, 1)
	spec.BatchMax = 1
	spec.RetryEvery = 20 * time.Millisecond
	spec.SnapshotEvery = 8
	spec.Retain = 2
	spec.WALDir = t.TempDir() // waitFloors reads the floor each acceptor persists
	rep, cli := openLocal(t, spec)

	const n = 64
	drive(t, cli, n, 0)
	waitFloors(t, rep, n)
	if !rep.Kill(100) {
		t.Fatal("kill failed")
	}
	if err := rep.Restart(100); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	if err := cli.Wait([]*Call{cli.Set("after", "restart")}, time.Until(deadline)); err != nil {
		t.Fatalf("write after the restart: %v", err)
	}
	for _, l := range []uint32{300, 301} {
		if err := rep.WaitApplied(l, n+1, time.Until(deadline)); err != nil {
			t.Fatal(err)
		}
	}
}

// Reopening a whole deployment after compaction keeps what it acked: with
// WALDir set and SnapshotDir empty the learners' snapshots live beside the
// acceptors' logs, so the prefix the acceptors truncated comes back from
// disk, and the reopened coordinator catches up to the acceptors' floor.
func TestLiveTCPReopenAfterCompaction(t *testing.T) {
	spec := LocalSpec(1, 1, 3, 2, 2)
	spec.BatchMax = 1
	spec.RetryEvery = 20 * time.Millisecond
	spec.SnapshotEvery = 8
	spec.WALDir = t.TempDir()
	spec, err := spec.ResolveEphemeral()
	if err != nil {
		t.Fatal(err)
	}
	// Each life brings its own client: request IDs restart with a client.
	life := func(client int) (*Replica, *Client) {
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
		return rep, cli
	}

	const n = 64
	rep, cli := life(0)
	var calls []*Call
	for i := range n {
		calls = append(calls, cli.Set(fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)))
	}
	if err := cli.Wait(calls, 20*time.Second); err != nil {
		t.Fatalf("first life: %v", err)
	}
	waitFloors(t, rep, 17)
	cli.Close()
	rep.Close()

	rep, cli = life(1)
	if err := cli.Wait([]*Call{cli.Set("after", "reopen")}, 10*time.Second); err != nil {
		t.Fatalf("write after the reopen: %v", err)
	}
	for _, l := range []uint32{300, 301} {
		if err := rep.WaitApplied(l, n+1, 10*time.Second); err != nil {
			t.Fatal(err)
		}
		for i := range n {
			k, want := fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)
			if v, ok, _ := rep.Get(l, k); !ok || v != want {
				t.Fatalf("learner %d: %s = %q (%v) after the reopen, want %q", l, k, v, ok, want)
			}
		}
	}
}
