package runtime

import (
	"sync/atomic"
	"testing"
	"time"

	"mcpaxos/internal/faults"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/node"
)

// timerCounter arms one timer on demand and counts every OnTimer it sees.
type timerCounter struct {
	env   node.Env
	fires atomic.Int64
}

func (h *timerCounter) OnMessage(_ msg.NodeID, m msg.Message) {
	if m.Type() == msg.THeartbeat {
		h.env.SetTimer(int64(m.(msg.Heartbeat).Epoch), 1)
	}
}

func (h *timerCounter) OnTimer(int) { h.fires.Add(1) }

// TestRestartDropsStaleTimers pins the crash-boundary rule for timers: a
// timer armed before Network.Restart must not fire into any handler — not
// the dead incarnation, and above all not the restarted one under the same
// ID — mirroring the simulator's epoch guard. Without the incarnation check
// in SetTimer a pre-restart retransmission deadline could reach the fresh
// handler as a phantom timeout and trigger a spurious round change.
func TestRestartDropsStaleTimers(t *testing.T) {
	n := NewNetwork()
	n.Tick = time.Millisecond
	defer n.Stop()

	old := &timerCounter{}
	n.Spawn(7, func(env node.Env) node.Handler { old.env = env; return old })
	// Arm a 30-tick timer from the mailbox goroutine, then restart at ~0.
	n.Send(7, 7, msg.Heartbeat{From: 7, Epoch: 30})
	time.Sleep(5 * time.Millisecond)

	fresh := &timerCounter{}
	n.Restart(7, func(env node.Env) node.Handler { fresh.env = env; return fresh })
	time.Sleep(80 * time.Millisecond) // well past the stale deadline

	if got := fresh.fires.Load(); got != 0 {
		t.Fatalf("stale timer fired %d times into the restarted handler", got)
	}
	if got := old.fires.Load(); got != 0 {
		t.Fatalf("stale timer fired %d times into the dead incarnation", got)
	}

	// The restarted incarnation's own timers still work.
	n.Send(7, 7, msg.Heartbeat{From: 7, Epoch: 2})
	deadline := time.Now().Add(2 * time.Second)
	for fresh.fires.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if fresh.fires.Load() == 0 {
		t.Fatalf("restarted incarnation's timer never fired")
	}
}

// TestDoOnStoppedAgentReturns is the companion regression: Do on a stopped
// agent used to race a buffered inbox send against the closed done channel
// and, on losing the coin flip, wait forever for a completion nobody would
// deliver. Many iterations make the old 50% hang a near-certain failure.
func TestDoOnStoppedAgentReturns(t *testing.T) {
	n := NewNetwork()
	defer n.Stop()
	ag := n.Spawn(1, func(node.Env) node.Handler { return &collector{} })
	ag.Stop()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			ag.Do(func(node.Handler) { t.Error("Do ran fn on a stopped agent") })
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Do hung on a stopped agent")
	}
}

// TestDoOutlastsItsClosureAcrossStop: a Stop that lands while a Do closure
// runs must not release the caller before the closure returns — the caller
// reads what the closure wrote, and a Replica inspector racing a Kill is
// exactly this interleaving. Run under -race, the early return is also a
// reported race on x.
func TestDoOutlastsItsClosureAcrossStop(t *testing.T) {
	n := NewNetwork()
	defer n.Stop()
	ag := n.Spawn(1, func(node.Env) node.Handler { return &collector{} })

	running, release, returned := make(chan struct{}), make(chan struct{}), make(chan struct{})
	x := 0
	go func() {
		defer close(returned)
		ag.Do(func(node.Handler) { close(running); <-release; x = 1 })
		if x != 1 {
			t.Error("Do returned before its closure finished")
		}
	}()
	<-running
	stopped := make(chan struct{})
	go func() { ag.Stop(); close(stopped) }()
	select {
	case <-returned:
		close(release) // let the loop, and so the deferred Stop, finish
		t.Fatal("Do returned while its closure was still running")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	<-returned
	<-stopped
}

func TestNetworkFaultsDropDupAndPartition(t *testing.T) {
	n := NewNetwork()
	n.Tick = time.Millisecond
	defer n.Stop()
	recv := &collector{}
	n.Spawn(2, func(node.Env) node.Handler { return recv })
	n.Spawn(1, func(node.Env) node.Handler { return &collector{} })

	f := faults.New(3)
	n.SetFaults(f)

	wait := func(want int) bool {
		deadline := time.Now().Add(2 * time.Second)
		for recv.count() < want && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		return recv.count() >= want
	}

	// Partitioned: nothing arrives.
	f.Partition([]msg.NodeID{1}, []msg.NodeID{2})
	n.Send(1, 2, msg.Heartbeat{From: 1})
	time.Sleep(20 * time.Millisecond)
	if recv.count() != 0 {
		t.Fatalf("partitioned network delivered %d messages", recv.count())
	}

	// Healed with dup=1: two copies (the duplicate arrives via the delayed
	// path, exercising the AfterFunc re-lookup).
	f.Heal()
	f.SetDup(1)
	n.Send(1, 2, msg.Heartbeat{From: 1})
	if !wait(2) {
		t.Fatalf("dup=1 delivered %d copies, want 2", recv.count())
	}

	// Loss=1 after healing: dropped again.
	f.Clear()
	f.SetLoss(1)
	n.Send(1, 2, msg.Heartbeat{From: 1})
	time.Sleep(20 * time.Millisecond)
	if recv.count() != 2 {
		t.Fatalf("loss=1 delivered a message")
	}
}

// fallbackNet builds a network that hosts no node, so every send leaves
// through the fallback — the route a deployment's TCP transport sits behind
// — and counts what reaches it.
func fallbackNet(t *testing.T, f *faults.Faults) (*Network, func() int64) {
	t.Helper()
	n := NewNetwork()
	n.Tick = time.Millisecond
	t.Cleanup(n.Stop)
	var calls atomic.Int64
	n.SetFallback(func(msg.NodeID, msg.NodeID, msg.Message) { calls.Add(1) })
	n.SetFaults(f)
	return n, calls.Load
}

// waitCount polls count until it reaches want or a deadline passes.
func waitCount(count func() int64, want int64) int64 {
	deadline := time.Now().Add(3 * time.Second)
	for count() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return count()
}

func TestFallbackFaultsDropSilently(t *testing.T) {
	f := faults.New(1)
	f.SetLoss(1)
	n, count := fallbackNet(t, f)
	for i := 0; i < 20; i++ {
		n.Send(1, 2, msg.Heartbeat{From: 1, Epoch: uint64(i)})
	}
	time.Sleep(20 * time.Millisecond)
	if got := count(); got != 0 {
		t.Fatalf("loss=1 reached the fallback %d times", got)
	}
	if s := f.Stats(); s.Dropped != 20 {
		t.Fatalf("dropped = %d, want 20", s.Dropped)
	}
}

func TestFallbackFaultsDuplicateEveryMessage(t *testing.T) {
	f := faults.New(1)
	f.SetDup(1)
	n, count := fallbackNet(t, f)
	const sends = 10
	for i := 0; i < sends; i++ {
		n.Send(1, 2, msg.Heartbeat{From: 1, Epoch: uint64(i)})
	}
	waitCount(count, 2*sends)
	time.Sleep(20 * time.Millisecond) // past every duplicate's delay bound
	if got := count(); got != 2*sends {
		t.Fatalf("dup=1 reached the fallback %d times, want %d", got, 2*sends)
	}
}

func TestFallbackFaultsPartitionAndHeal(t *testing.T) {
	f := faults.New(1)
	f.Partition([]msg.NodeID{1}, []msg.NodeID{2})
	n, count := fallbackNet(t, f)
	n.Send(1, 2, msg.Heartbeat{From: 1})
	time.Sleep(20 * time.Millisecond)
	if count() != 0 {
		t.Fatal("a send crossed the partition")
	}
	f.Heal()
	n.Send(1, 2, msg.Heartbeat{From: 1})
	if got := waitCount(count, 1); got != 1 {
		t.Fatalf("healed link reached the fallback %d times, want 1", got)
	}
}

// TestFallbackDelayedCopyAfterStopDropped: a copy the injector delays is
// routed when it lands, and one that lands after Stop must go nowhere — not
// out through the fallback of a node that is gone.
func TestFallbackDelayedCopyAfterStopDropped(t *testing.T) {
	f := faults.New(1)
	f.SetReorder(1, 10) // every copy delayed 1..10 ticks
	n, count := fallbackNet(t, f)
	n.Send(1, 2, msg.Heartbeat{From: 1})
	n.Stop()
	time.Sleep(30 * time.Millisecond) // past the delay bound
	if got := count(); got != 0 {
		t.Fatalf("a copy landing after Stop reached the fallback %d times", got)
	}
	if s := f.Stats(); s.Delayed != 1 {
		t.Fatalf("delayed = %d, want 1", s.Delayed)
	}
}

// TestDelayedDeliveryCrossesRestart pins the asymmetry between messages and
// timers at a crash boundary: a delayed message copy lands in whatever
// incarnation is live on arrival (the network may hold messages arbitrarily
// long), while timers die with their incarnation.
func TestDelayedDeliveryCrossesRestart(t *testing.T) {
	n := NewNetwork()
	n.Tick = time.Millisecond
	defer n.Stop()
	first := &collector{}
	n.Spawn(2, func(node.Env) node.Handler { return first })
	n.Spawn(1, func(node.Env) node.Handler { return &collector{} })

	f := faults.New(1)
	f.SetReorder(1, 40) // every delivery delayed 1..40 ticks
	n.SetFaults(f)
	n.Send(1, 2, msg.Heartbeat{From: 1})

	second := &collector{}
	n.Restart(2, func(node.Env) node.Handler { return second })
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && first.count()+second.count() == 0 {
		time.Sleep(time.Millisecond)
	}
	if first.count()+second.count() == 0 {
		t.Fatalf("delayed message was lost across the restart window")
	}
}
