package deploy

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mcpaxos/internal/faults"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/smr"
)

// TestDuplicateFramesEndToEnd runs the live stack with every frame on every
// link duplicated (dup = 1.0): proposals, 2a forwards, 2b announcements and
// replies all arrive twice. The pins: every call still resolves, the
// duplicate replies are suppressed by the client's correlation map, the
// state machine applies each command at most once, and the merged order
// carries no duplicate IDs.
func TestDuplicateFramesEndToEnd(t *testing.T) {
	f := faults.New(1)
	f.SetDup(1)
	spec := LocalSpec(2, 3, 3, 2, 1)
	spec.BatchMax = 2
	spec.RetryEvery = 20 * time.Millisecond
	spec.Faults = f
	rep, cli := openLocal(t, spec)

	const n = 16
	calls := make([]*Call, 0, n)
	for i := 0; i < n; i++ {
		calls = append(calls, cli.Set(fmt.Sprintf("k%d", i%4), fmt.Sprintf("v%d", i)))
	}
	if err := cli.Wait(calls, 30*time.Second); err != nil {
		t.Fatalf("wait under dup storm: %v", err)
	}
	for _, l := range []uint32{300, 301} {
		if err := rep.WaitApplied(l, n, 15*time.Second); err != nil {
			t.Fatal(err)
		}
		applied, _ := rep.Applied(l)
		if applied != n {
			t.Fatalf("learner %d applied %d, want exactly %d (at-most-once)", l, applied, n)
		}
		order, _ := rep.Order(l)
		seen := make(map[uint64]bool, len(order))
		for _, id := range order {
			if seen[id] {
				t.Fatalf("learner %d merged command %d twice", l, id)
			}
			seen[id] = true
		}
	}
	// Two learner replicas each answer every command, and the injector
	// doubles the frames besides: the suppression path must fire. The
	// doubled copy trails its original by a tick or two, so when every call
	// was resolved by one late burst (learners still catching up at start-up
	// answer only the client's replay probe) the duplicates are still in
	// flight when Wait returns — give them a moment to land.
	deadline := time.Now().Add(5 * time.Second)
	for cli.Stats().DupReplies == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("expected suppressed duplicate replies, stats: %+v", cli.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if s := f.Stats(); s.Duplicated == 0 {
		t.Fatalf("injector reports no duplicated frames: %+v", s)
	}
}

// TestTimedOutProposalLeavesNoGap: a proposal that exhausts its request
// timeout during a total blackout fails its caller and simply stops — the
// client never claimed a sequence slot (stamping happens server-side, and
// the blackout kept the submission from ever reaching an ingress), so no
// instance is orphaned and traffic after the heal flows without any fill.
// (The pre-ingress design had to keep retransmitting abandoned proposals
// forever: the client-stamped sequence number owned an instance that would
// otherwise wedge every learner.)
func TestTimedOutProposalLeavesNoGap(t *testing.T) {
	f := faults.New(1)
	spec := LocalSpec(2, 3, 3, 2, 1)
	spec.BatchMax = 1
	spec.RetryEvery = 20 * time.Millisecond
	spec.RequestTimeout = 300 * time.Millisecond
	spec.Faults = f
	rep, cli := openLocal(t, spec)

	if err := cli.Wait([]*Call{cli.Set("warm", "0"), cli.Set("warm2", "0")}, 15*time.Second); err != nil {
		t.Fatalf("warmup: %v", err)
	}

	// Total blackout: the doomed proposal cannot reach anyone before its
	// deadline passes.
	f.SetLoss(1)
	doomed := cli.Set("doomed", "1")
	if _, err := doomed.Result(); err == nil {
		t.Fatal("proposal resolved through a total blackout")
	}

	// Heal, then drive more traffic through both shards: it must all apply
	// even though the doomed command was dropped on the floor.
	f.Clear()
	var calls []*Call
	for i := 0; i < 8; i++ {
		calls = append(calls, cli.Set(fmt.Sprintf("after%d", i), "2"))
	}
	if err := cli.Wait(calls, 15*time.Second); err != nil {
		t.Fatalf("traffic after heal: %v", err)
	}
	for _, l := range []uint32{300, 301} {
		if err := rep.WaitApplied(l, 10, 15*time.Second); err != nil {
			t.Fatalf("learner %d: %v", l, err)
		}
		if v, ok, _ := rep.Get(l, "doomed"); ok {
			t.Fatalf("learner %d applied the doomed command: %q", l, v)
		}
	}
}

// TestReplyReplayReelicitsLostReplies: sever every learner→client reply
// link for a window. The command decides and applies, but no result
// reaches the caller — and the consensus path can never re-reply, because
// the retransmitted proposal deduplicates against the already-decided
// instance. After the links heal, the client's replay probe (the learner
// broadcast riding the second retry) must re-elicit the cached result,
// and the state machine must have applied the command exactly once.
func TestReplyReplayReelicitsLostReplies(t *testing.T) {
	f := faults.New(1)
	spec := LocalSpec(2, 3, 3, 2, 1)
	spec.BatchMax = 1
	spec.RetryEvery = 20 * time.Millisecond
	spec.Faults = f
	rep, cli := openLocal(t, spec)

	if err := cli.Wait([]*Call{cli.Set("warm", "0"), cli.Set("warm2", "0")}, 15*time.Second); err != nil {
		t.Fatalf("warmup: %v", err)
	}

	client := msg.NodeID(spec.Clients[0].ID)
	f.Cut(300, client)
	f.Cut(301, client)
	call := cli.Set("lost", "1")
	// The command applies on both learners while every reply frame dies.
	for _, l := range []uint32{300, 301} {
		if err := rep.WaitApplied(l, 3, 15*time.Second); err != nil {
			t.Fatalf("learner %d never applied under severed replies: %v", l, err)
		}
	}
	select {
	case <-call.Done():
		t.Fatal("call resolved through severed reply links")
	default:
	}

	f.Restore(300, client)
	f.Restore(301, client)
	if err := cli.Wait([]*Call{call}, 15*time.Second); err != nil {
		t.Fatalf("replay probe never re-elicited the reply: %v", err)
	}
	for _, l := range []uint32{300, 301} {
		applied, _ := rep.Applied(l)
		if applied != 3 {
			t.Fatalf("learner %d applied %d, want exactly 3 (at-most-once)", l, applied)
		}
	}
	if rep.Replays() == 0 {
		t.Fatal("no reply was served from the replay cache")
	}
	if s := cli.Stats(); s.ReplayProbes == 0 {
		t.Fatalf("client never probed the learners: %+v", s)
	}
}

// TestGetReadsThroughConsensus pins the client's linearizable read path:
// Get is serialized against the writes and resolves to the value or the
// missing sentinel.
func TestGetReadsThroughConsensus(t *testing.T) {
	spec := LocalSpec(2, 3, 3, 1, 1)
	spec.RetryEvery = 20 * time.Millisecond
	_, cli := openLocal(t, spec)

	if err := cli.Wait([]*Call{cli.Set("x", "42")}, 15*time.Second); err != nil {
		t.Fatalf("set: %v", err)
	}
	got := cli.Get("x")
	miss := cli.Get("nope")
	if err := cli.Wait([]*Call{got, miss}, 15*time.Second); err != nil {
		t.Fatalf("get: %v", err)
	}
	if res, _ := got.Result(); !strings.HasPrefix(res, "=") || res[1:] != "42" {
		t.Fatalf("get(x) = %q, want =42", res)
	}
	if res, _ := miss.Result(); res != smr.KVMissing {
		t.Fatalf("get(nope) = %q, want %q", res, smr.KVMissing)
	}
}

// TestRestartRebuildsAcceptorFromWAL: kill a WAL-backed acceptor mid-run,
// Restart it, and drive more commands — the restarted acceptor serves from
// its recovered state and the deployment stays correct.
func TestRestartRebuildsAcceptorFromWAL(t *testing.T) {
	spec := LocalSpec(2, 3, 3, 1, 1)
	spec.RetryEvery = 20 * time.Millisecond
	spec.WALDir = t.TempDir()
	rep, cli := openLocal(t, spec)

	if err := cli.Wait([]*Call{cli.Set("a", "1"), cli.Set("b", "2")}, 15*time.Second); err != nil {
		t.Fatalf("before restart: %v", err)
	}
	acc := spec.Acceptors[0].ID
	if !rep.Kill(acc) {
		t.Fatal("kill failed")
	}
	// F=1: the deployment keeps deciding while the acceptor is down.
	if err := cli.Wait([]*Call{cli.Set("c", "3")}, 15*time.Second); err != nil {
		t.Fatalf("during downtime: %v", err)
	}
	if err := rep.Restart(acc); err != nil {
		t.Fatalf("restart: %v", err)
	}
	if err := cli.Wait([]*Call{cli.Set("d", "4"), cli.Set("e", "5")}, 15*time.Second); err != nil {
		t.Fatalf("after restart: %v", err)
	}
	if err := rep.WaitApplied(300, 5, 15*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestLearnerRestartCatchesUp: kill one of two learners, keep deciding
// while it is down, Restart it, and require it to rebuild the decided
// prefix it missed through the peer catch-up protocol — the acceptors
// never re-announce quiesced instances, so only the pull can fill them.
func TestLearnerRestartCatchesUp(t *testing.T) {
	spec := LocalSpec(2, 3, 3, 2, 1)
	spec.RetryEvery = 20 * time.Millisecond
	rep, cli := openLocal(t, spec)

	if err := cli.Wait([]*Call{cli.Set("a", "1"), cli.Set("b", "2")}, 15*time.Second); err != nil {
		t.Fatalf("before kill: %v", err)
	}
	if !rep.Kill(300) {
		t.Fatal("kill learner failed")
	}
	// The surviving learner keeps the deployment live and grows the decided
	// prefix the dead one will have to pull.
	if err := cli.Wait([]*Call{cli.Set("c", "3"), cli.Set("d", "4")}, 15*time.Second); err != nil {
		t.Fatalf("during learner downtime: %v", err)
	}
	if err := rep.Restart(300); err != nil {
		t.Fatalf("learner restart: %v", err)
	}
	if err := cli.Wait([]*Call{cli.Set("e", "5")}, 15*time.Second); err != nil {
		t.Fatalf("after learner restart: %v", err)
	}
	// The restarted learner must apply everything, including the commands
	// decided while it was down.
	for _, l := range []uint32{300, 301} {
		if err := rep.WaitApplied(l, 5, 15*time.Second); err != nil {
			t.Fatalf("learner %d never caught up: %v", l, err)
		}
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		synced, err := rep.CatchupSynced(300)
		if err != nil {
			t.Fatalf("catchup synced: %v", err)
		}
		if synced {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("restarted learner never reported synced")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Both learners hold identical gap-free orders.
	a, errA := rep.Order(300)
	b, errB := rep.Order(301)
	if errA != nil || errB != nil {
		t.Fatalf("orders: %v, %v", errA, errB)
	}
	if len(a) != len(b) {
		t.Fatalf("order lengths diverge: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("orders diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// awaitDrained waits until no hosted coordinator has an instance in flight or
// queued: such a window retransmits its 2as every 4 × RetryEvery, so the
// coordinators fall silent for two whole retransmission periods only once
// every learner ack has arrived (one period would leave a timer that fires
// late under load no margin).
func awaitDrained(t *testing.T, rep *Replica) {
	t.Helper()
	sent := func() (frames uint64) {
		for _, e := range rep.hosts(rep.spec.Coords) {
			frames += e.tcp.Stats().FramesOut
		}
		return frames
	}
	quiet := 8 * rep.spec.RetryEvery
	deadline := time.Now().Add(10 * time.Second)
	for frames := sent(); ; {
		time.Sleep(quiet)
		now := sent()
		if now == frames {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("coordinator windows never drained: %d frames sent in the last %v", now-frames, quiet)
		}
		frames = now
	}
}

// TestLearnerCatchupAcceptorFallback: kill BOTH learners, then restart
// them — no learner retains the decided prefix, so peer catch-up finds
// nothing and the prefix survives only in the acceptors' votes. The gap
// watch's durable-tier fallback must ask the acceptors to re-announce,
// and ordinary quorum counting relearns the prefix. (Found by nemesis
// seed 14: recover-one-learner and kill-the-other landing on the same
// tick left both learners empty and the run permanently stalled.)
func TestLearnerCatchupAcceptorFallback(t *testing.T) {
	spec := LocalSpec(2, 3, 3, 2, 1)
	spec.RetryEvery = 20 * time.Millisecond
	rep, cli := openLocal(t, spec)

	if err := cli.Wait([]*Call{cli.Set("a", "1"), cli.Set("b", "2")}, 15*time.Second); err != nil {
		t.Fatalf("before kills: %v", err)
	}
	// A coordinator whose window still holds a or b retransmits its 2a, the
	// acceptors re-announce, and the restarted learners relearn the prefix
	// without any catch-up: let every window drain before the kills.
	awaitDrained(t, rep)
	if !rep.Kill(300) || !rep.Kill(301) {
		t.Fatal("kill learners failed")
	}
	if err := rep.Restart(300); err != nil {
		t.Fatalf("restart 300: %v", err)
	}
	if err := rep.Restart(301); err != nil {
		t.Fatalf("restart 301: %v", err)
	}
	// New traffic decides above the lost prefix: the restarted learners
	// buffer it behind the gap until the fallback refills instance 0 on.
	if err := cli.Wait([]*Call{cli.Set("c", "3")}, 15*time.Second); err != nil {
		t.Fatalf("after restart: %v", err)
	}
	for _, l := range []uint32{300, 301} {
		if err := rep.WaitApplied(l, 3, 15*time.Second); err != nil {
			t.Fatalf("learner %d never recovered the prefix: %v", l, err)
		}
	}
	if s := rep.CatchupStats(); s.Fallbacks == 0 {
		t.Fatalf("prefix recovered without the acceptor fallback? stats: %+v", s)
	}
	a, _ := rep.Order(300)
	b, _ := rep.Order(301)
	if len(a) != len(b) {
		t.Fatalf("order lengths diverge: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("orders diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}
