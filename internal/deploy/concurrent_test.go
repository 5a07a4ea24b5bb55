package deploy

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mcpaxos/internal/faults"
	"mcpaxos/internal/msg"
)

// checkMergedOrder fails the test unless both learner replicas converged on
// the same duplicate-free merged order of exactly want commands.
func checkMergedOrder(t *testing.T, rep *Replica, want int) {
	t.Helper()
	for _, l := range []uint32{300, 301} {
		if err := rep.WaitApplied(l, want, 20*time.Second); err != nil {
			t.Fatalf("learner %d: %v", l, err)
		}
		order, err := rep.Order(l)
		if err != nil {
			t.Fatalf("order %d: %v", l, err)
		}
		if len(order) != want {
			t.Fatalf("learner %d merged %d commands, want %d", l, len(order), want)
		}
		seen := make(map[uint64]bool, len(order))
		for _, id := range order {
			if seen[id] {
				t.Fatalf("learner %d merged command %d twice", l, id)
			}
			seen[id] = true
		}
	}
	a, _ := rep.Order(300)
	b, _ := rep.Order(301)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("learner orders diverged:\n%v\n%v", a, b)
	}
}

// TestClientConcurrentPropose hammers one Client from many goroutines —
// the server-side ingress owns sequence assignment, so nothing in the
// submission path serializes callers beyond the atomic ID stamp. Every call
// must resolve, every reply must correlate, and the merged order must carry
// each command exactly once. Run under -race this also pins the submission
// path's memory safety.
func TestClientConcurrentPropose(t *testing.T) {
	spec := LocalSpec(2, 3, 3, 2, 1)
	spec.RetryEvery = 20 * time.Millisecond
	rep, cli := openLocal(t, spec)

	const goroutines, perG = 8, 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				call := cli.Set(fmt.Sprintf("g%d-k%d", g, i), fmt.Sprintf("v%d", i))
				if _, err := call.Result(); err != nil {
					errs <- fmt.Errorf("goroutine %d call %d: %w", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := cli.Stats()
	if st.Resolved != goroutines*perG {
		t.Fatalf("resolved %d of %d", st.Resolved, goroutines*perG)
	}
	checkMergedOrder(t, rep, goroutines*perG)
}

// TestClientProposeRacingCloseResolves: Close fails every unresolved call,
// and a Propose after it returns an already-failed Call, so no Call that a
// Propose racing Close hands back may be left unresolved. No replica runs —
// the coordinator's reserved listener takes the connection and reads
// nothing — so only Close can resolve a call.
func TestClientProposeRacingCloseResolves(t *testing.T) {
	spec, err := LocalSpec(1, 1, 1, 1, 1).ResolveEphemeral()
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	t.Cleanup(func() {
		for _, ln := range spec.reserved.lns {
			ln.Close()
		}
	})
	const iterations, goroutines, perG = 300, 4, 50
	for it := 0; it < iterations; it++ {
		cli, err := Dial(spec, spec.Clients[0].ID)
		if err != nil {
			t.Fatalf("iteration %d: dial: %v", it, err)
		}
		calls := make([][]*Call, goroutines)
		var wg, started sync.WaitGroup
		for g := range calls {
			wg.Add(1)
			started.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					calls[g] = append(calls[g], cli.Set(fmt.Sprintf("k%d", i), "v"))
					if i == 0 {
						started.Done()
					}
				}
			}()
		}
		started.Wait() // Close lands mid-stream, not before the first Set
		cli.Close()
		wg.Wait()
		for _, cs := range calls {
			for _, call := range cs {
				select {
				case <-call.Done():
				case <-time.After(time.Second):
					t.Fatalf("iteration %d: call %d never resolved after Close", it, call.ID)
				}
			}
		}
	}
}

// TestTwoClientsOneDeployment runs two separate Client processes against a
// single deployment concurrently — the configuration the client-side
// sequencer could not support (two processes cannot share a sequence
// counter). The ingress stamps both streams into one per-shard sequence, so
// every command from either client lands exactly once and both learner
// replicas converge on one merged order.
func TestTwoClientsOneDeployment(t *testing.T) {
	spec := LocalSpec(2, 3, 3, 2, 2)
	spec.RetryEvery = 20 * time.Millisecond
	spec, err := spec.ResolveEphemeral()
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	rep, err := Open(spec)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { rep.Close() })

	const perClient = 16
	var wg sync.WaitGroup
	errs := make(chan error, len(spec.Clients))
	for _, cs := range spec.Clients {
		cli, err := Dial(spec, cs.ID)
		if err != nil {
			t.Fatalf("dial %d: %v", cs.ID, err)
		}
		t.Cleanup(func() { cli.Close() })
		wg.Add(1)
		go func(id uint32, cli *Client) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				call := cli.Set(fmt.Sprintf("c%d-k%d", id, i), fmt.Sprintf("v%d", i))
				if _, err := call.Result(); err != nil {
					errs <- fmt.Errorf("client %d call %d: %w", id, i, err)
					return
				}
			}
		}(cs.ID, cli)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	checkMergedOrder(t, rep, len(spec.Clients)*perClient)
}

// TestLiveC1ConcurrentIngressAndRepair: a c = 1 deployment runs the same
// round path as a coordinator group, so it has what the group has — ingress
// batching with idempotent (client, request) stamping under concurrent
// callers, and a restarted primary that rejoins through Repair.
func TestLiveC1ConcurrentIngressAndRepair(t *testing.T) {
	spec := LocalSpec(1, 1, 3, 2, 1)
	spec.RetryEvery = 20 * time.Millisecond
	rep, cli := openLocal(t, spec)

	const callers, perCaller = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				if _, err := cli.Set(fmt.Sprintf("g%d-k%d", g, i), fmt.Sprintf("v%d", i)).Result(); err != nil {
					errs <- fmt.Errorf("caller %d op %d: %w", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	const ops = callers * perCaller
	checkMergedOrder(t, rep, ops)
	if stamped, _, _ := rep.IngressCounts(); stamped == 0 || stamped >= ops {
		t.Fatalf("ingress stamped %d slots for %d ops, want batching: 0 < stamped < ops", stamped, ops)
	}

	// The primary dies and comes back as a fresh process: Repair rejoins the
	// live round from the acceptors and the next write is acked.
	primary := spec.Coords[0].ID
	if !rep.Kill(primary) {
		t.Fatalf("coordinator %d was not hosted", primary)
	}
	if err := rep.Restart(primary); err != nil {
		t.Fatalf("restart: %v", err)
	}
	if _, err := cli.Set("after-restart", "1").Result(); err != nil {
		t.Fatalf("write after the primary's restart: %v", err)
	}
	checkMergedOrder(t, rep, ops+1)
	if got := rep.RoundChanges(); got != 0 {
		t.Errorf("repair paid %d round changes, want 0", got)
	}
}

// TestLiveLostPromiseRecovered is the live twin of the simulator's
// TestLostPromiseRecoveredByRetransmit: every acceptor→coordinator link is
// cut while a c = 1 replica opens, so the primary's first promise wave is
// lost. Once the links heal, its retransmitted 1a must draw the promises
// again — an acceptor that answered the retransmission with Stale would
// leave the shard leaderless forever.
func TestLiveLostPromiseRecovered(t *testing.T) {
	f := faults.New(1)
	spec := LocalSpec(1, 1, 3, 1, 1)
	spec.RetryEvery = 10 * time.Millisecond
	spec.RequestTimeout = 10 * time.Second
	spec.Faults = f
	for _, a := range spec.Acceptors {
		f.Cut(msg.NodeID(a.ID), msg.NodeID(spec.Coords[0].ID))
	}
	_, cli := openLocal(t, spec)
	// Wait until every acceptor's promise has been dropped on the cut link:
	// the acceptors have joined the round and the first wave is lost.
	for deadline := time.Now().Add(10 * time.Second); f.Stats().Dropped < uint64(len(spec.Acceptors)); {
		if time.Now().After(deadline) {
			t.Fatalf("the promise wave never reached the cut links: %+v", f.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	for _, a := range spec.Acceptors {
		f.Restore(msg.NodeID(a.ID), msg.NodeID(spec.Coords[0].ID))
	}
	if _, err := cli.Set("k", "v").Result(); err != nil {
		t.Fatalf("write after the promise links healed: %v", err)
	}
}

// TestLiveTCPInspectorsUnderLoad: every Replica read method runs on the node's
// own mailbox goroutine, so four readers looping over all of them while two
// callers write and a learner is killed and restarted must neither race (run
// it under -race) nor hang; a learner that is down answers the not-hosted
// error, never a zero value.
func TestLiveTCPInspectorsUnderLoad(t *testing.T) {
	spec := LocalSpec(2, 3, 3, 2, 1)
	spec.RetryEvery = 20 * time.Millisecond
	rep, cli := openLocal(t, spec)
	const (
		callers, perCaller = 2, 200
		readers            = 4
		victim             = uint32(301)
	)
	notHosted := fmt.Sprintf(errNotLearner, victim)

	// learnerReads calls every per-learner read method on id and returns
	// their errors.
	learnerReads := func(id uint32) []error {
		_, e1 := rep.Applied(id)
		_, e2 := rep.Order(id)
		_, e3 := rep.Snapshot(id)
		_, _, e4 := rep.Get(id, "c0-k0")
		_, _, e5 := rep.Progress(id)
		_, _, _, e6 := rep.Compaction(id)
		_, e7 := rep.CatchupSynced(id)
		return []error{e1, e2, e3, e4, e5, e6, e7}
	}
	readAll := func() {
		for _, err := range learnerReads(300) {
			if err != nil {
				t.Errorf("learner 300, never killed: %v", err)
			}
		}
		for _, err := range learnerReads(victim) {
			if err != nil && err.Error() != notHosted {
				t.Errorf("learner %d: %v, want nil or %q", victim, err, notHosted)
			}
		}
		rep.Replays()
		rep.CatchupStats()
		rep.CompactionStats()
		rep.ShardRounds()
		rep.WALDiskStats()
		rep.IngressCounts()
		rep.RoundChanges()
		rep.NetStats()
	}

	stop := make(chan struct{})
	var readersDone sync.WaitGroup
	defer func() { // on every path: no reader may outlive the test
		close(stop)
		drained := make(chan struct{})
		go func() { readersDone.Wait(); close(drained) }()
		select {
		case <-drained:
		case <-time.After(20 * time.Second):
			t.Error("an inspector call never returned")
		}
	}()
	for r := 0; r < readers; r++ {
		readersDone.Add(1)
		go func() {
			defer readersDone.Done()
			for {
				select {
				case <-stop:
					return
				default:
					readAll()
				}
			}
		}()
	}

	var acked atomic.Int64
	var writers sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < perCaller; i++ {
				if _, err := cli.Set(fmt.Sprintf("c%d-k%d", g, i%8), fmt.Sprint(i)).Result(); err != nil {
					errs <- fmt.Errorf("caller %d write %d: %w", g, i, err)
					return
				}
				acked.Add(1)
			}
		}()
	}

	waitAcked := func(n int64) {
		t.Helper()
		for deadline := time.Now().Add(30 * time.Second); acked.Load() < n; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d writes acked after 30s", acked.Load(), n)
			}
		}
	}
	waitAcked(callers * perCaller / 4)
	if !rep.Kill(victim) {
		t.Fatalf("learner %d was not hosted", victim)
	}
	for i, err := range learnerReads(victim) {
		if err == nil || err.Error() != notHosted {
			t.Errorf("read %d of killed learner %d: %v, want %q", i, victim, err, notHosted)
		}
	}
	waitAcked(callers * perCaller / 2)
	if err := rep.Restart(victim); err != nil {
		t.Fatalf("restart %d: %v", victim, err)
	}

	writers.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}
	checkMergedOrder(t, rep, callers*perCaller)
}
