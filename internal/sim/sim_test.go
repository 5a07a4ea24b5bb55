package sim

import (
	"math/rand"
	"testing"

	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/faults"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/node"
)

// echoNode counts deliveries and optionally replies.
type echoNode struct {
	env     node.Env
	got     []msg.Message
	from    []msg.NodeID
	times   []Time
	timers  []int
	replyTo msg.NodeID
}

func (e *echoNode) OnMessage(from msg.NodeID, m msg.Message) {
	e.got = append(e.got, m)
	e.from = append(e.from, from)
	if e.replyTo != 0 {
		e.env.Send(e.replyTo, msg.Heartbeat{From: 99})
	}
}

func (e *echoNode) OnTimer(tag int) { e.timers = append(e.timers, tag) }

func newEcho(s *Sim, id msg.NodeID) *echoNode {
	n := &echoNode{}
	s.Register(id, n)
	env := s.Env(id)
	n.env = env
	return n
}

// restartEcho restarts id the way every host does: a new handler object
// built over the Env the simulator hands to build.
func restartEcho(s *Sim, id msg.NodeID) *echoNode {
	n := &echoNode{}
	s.Restart(id, func(env node.Env) node.Handler { n.env = env; return n })
	return n
}

func TestUnitLatencyDeliversInOneStep(t *testing.T) {
	s := New(1)
	a := newEcho(s, 1)
	_ = a
	b := newEcho(s, 2)
	s.Env(1).Send(2, msg.Heartbeat{From: 1})
	s.Run()
	if len(b.got) != 1 {
		t.Fatalf("delivered %d messages, want 1", len(b.got))
	}
	if s.Now() != 1 {
		t.Errorf("unit latency must deliver at t=1, got %d", s.Now())
	}
}

func TestDeterministicSameSeed(t *testing.T) {
	run := func(seed int64) []Time {
		s := New(seed)
		s.SetLatency(JitterLatency(5))
		recv := newEcho(s, 2)
		newEcho(s, 1)
		env := s.Env(1)
		for i := 0; i < 20; i++ {
			env.Send(2, msg.Heartbeat{From: 1, Epoch: uint64(i)})
		}
		s.Run()
		times := make([]Time, len(recv.got))
		for i, m := range recv.got {
			times[i] = Time(m.(msg.Heartbeat).Epoch)
		}
		return times
	}
	a, b := run(7), run(7)
	if len(a) != len(b) {
		t.Fatalf("nondeterministic count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic order at %d: %v vs %v", i, a, b)
		}
	}
}

func TestJitterReordersMessages(t *testing.T) {
	s := New(3)
	s.SetLatency(JitterLatency(10))
	recv := newEcho(s, 2)
	newEcho(s, 1)
	env := s.Env(1)
	for i := 0; i < 50; i++ {
		env.Send(2, msg.Heartbeat{From: 1, Epoch: uint64(i)})
	}
	s.Run()
	inverted := false
	for i := 1; i < len(recv.got); i++ {
		if recv.got[i].(msg.Heartbeat).Epoch < recv.got[i-1].(msg.Heartbeat).Epoch {
			inverted = true
			break
		}
	}
	if !inverted {
		t.Errorf("jitter latency should reorder some messages")
	}
}

func TestNegativeLatencyDrops(t *testing.T) {
	s := New(5)
	s.SetLatency(func(_, _ msg.NodeID, _ msg.Message, _ *rand.Rand) Time { return -1 })
	recv := newEcho(s, 2)
	newEcho(s, 1)
	s.Env(1).Send(2, msg.Heartbeat{From: 1})
	s.Run()
	if len(recv.got) != 0 {
		t.Errorf("a negative delay must drop the message")
	}
	if s.Metrics().Dropped != 1 {
		t.Errorf("drop not counted")
	}
}

func TestCrashBlocksDeliveryAndSending(t *testing.T) {
	s := New(1)
	a := newEcho(s, 1)
	b := newEcho(s, 2)
	s.Crash(2)
	s.Env(1).Send(2, msg.Heartbeat{From: 1})
	s.Run()
	if len(b.got) != 0 {
		t.Errorf("crashed node must not receive")
	}
	s.Crash(1)
	s.Env(1).Send(2, msg.Heartbeat{From: 1})
	b2 := restartEcho(s, 2)
	s.Run()
	if len(b.got)+len(b2.got) != 0 {
		t.Errorf("crashed node must not send")
	}
	if len(a.got) != 0 {
		t.Errorf("unexpected delivery to a")
	}
}

func TestRestartBuildsNewHandler(t *testing.T) {
	s := New(1)
	a := newEcho(s, 1)
	s.Crash(1)
	if s.IsUp(1) {
		t.Fatalf("node must be down after Crash")
	}
	var built node.Env
	fresh := &echoNode{}
	s.Restart(1, func(env node.Env) node.Handler { built = env; return fresh })
	if !s.IsUp(1) {
		t.Fatalf("node must be up after Restart")
	}
	if built == nil || built.ID() != 1 {
		t.Fatalf("build must receive the node's Env, got %v", built)
	}
	// The restarted handler is a new object: the dead one hears nothing more.
	s.Env(1).Send(1, msg.Heartbeat{From: 1})
	s.Run()
	if len(a.got) != 0 || len(fresh.got) != 1 {
		t.Errorf("delivered %d to the dead handler and %d to the restarted one, want 0 and 1",
			len(a.got), len(fresh.got))
	}
	// Restart of a live node is a crash and a restart; of an unknown id, a start.
	again := restartEcho(s, 1)
	late := restartEcho(s, 9)
	s.Env(9).Send(1, msg.Heartbeat{From: 9})
	s.Env(1).Send(9, msg.Heartbeat{From: 1})
	s.Run()
	if len(fresh.got) != 1 || len(again.got) != 1 || len(late.got) != 1 {
		t.Errorf("after a second restart: previous=%d current=%d new node=%d deliveries, want 1, 1, 1",
			len(fresh.got), len(again.got), len(late.got))
	}
}

func TestTimers(t *testing.T) {
	s := New(1)
	a := newEcho(s, 1)
	s.Env(1).SetTimer(5, 42)
	s.Run()
	if len(a.timers) != 1 || a.timers[0] != 42 {
		t.Fatalf("timer not fired: %v", a.timers)
	}
	if s.Now() != 5 {
		t.Errorf("timer must fire at t=5, got %d", s.Now())
	}
}

func TestTimerCancelledByCrash(t *testing.T) {
	s := New(1)
	a := newEcho(s, 1)
	s.Env(1).SetTimer(5, 1)
	s.Crash(1)
	fresh := restartEcho(s, 1)
	s.Run()
	if len(a.timers)+len(fresh.timers) != 0 {
		t.Errorf("pre-crash timer must not fire after the restart, got %v / %v", a.timers, fresh.timers)
	}
}

// TestRestartDropsStaleTimers is the simulator twin of the runtime test of
// the same name, so both hosts pin one crash-boundary rule for timers: a
// timer armed before Restart fires into no handler — not the dead
// incarnation, and above all not the restarted one under the same ID, where a
// pre-restart retransmission deadline would be a phantom timeout — while the
// restarted incarnation's own timers work.
func TestRestartDropsStaleTimers(t *testing.T) {
	s := New(1)
	old := newEcho(s, 7)
	old.env.SetTimer(30, 1)
	fresh := restartEcho(s, 7) // no Crash first: Restart is the crash
	s.RunUntil(80)
	if len(old.timers)+len(fresh.timers) != 0 {
		t.Fatalf("stale timer fired: dead incarnation %v, restarted one %v", old.timers, fresh.timers)
	}
	fresh.env.SetTimer(2, 2)
	s.Run()
	if len(fresh.timers) != 1 || fresh.timers[0] != 2 {
		t.Fatalf("restarted incarnation's timer never fired: %v", fresh.timers)
	}
}

// TestDelayedDeliveryCrossesRestart is the twin for messages: a copy the
// network delayed lands in whatever incarnation is live on arrival, while
// timers die with theirs.
func TestDelayedDeliveryCrossesRestart(t *testing.T) {
	s := New(1)
	f := faults.New(1)
	f.SetReorder(1, 40) // every delivery delayed 1..40 ticks
	s.SetFaults(f)
	newEcho(s, 1)
	first := newEcho(s, 2)
	s.Env(1).Send(2, msg.Heartbeat{From: 1})
	second := restartEcho(s, 2)
	s.Run()
	if len(first.got) != 0 || len(second.got) != 1 {
		t.Fatalf("delayed message reached the dead incarnation %d times and the live one %d times, want 0 and 1",
			len(first.got), len(second.got))
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	s := New(1)
	newEcho(s, 1)
	s.Env(1).SetTimer(100, 1)
	s.RunUntil(50)
	if s.Now() != 50 {
		t.Errorf("RunUntil must advance clock to 50, got %d", s.Now())
	}
	s.RunUntil(200)
	if s.Now() != 200 {
		t.Errorf("RunUntil must advance clock to 200, got %d", s.Now())
	}
}

func TestMetricsCountTraffic(t *testing.T) {
	s := New(1)
	newEcho(s, 1)
	newEcho(s, 2)
	env := s.Env(1)
	env.Send(2, msg.Heartbeat{From: 1})
	env.Send(2, msg.Propose{Cmd: cstruct.Cmd{ID: 1}})
	s.Run()
	m := s.Metrics()
	if m.SentByType[msg.THeartbeat] != 1 || m.SentByType[msg.TPropose] != 1 {
		t.Errorf("sent-by-type wrong: %v", m.SentByType)
	}
	if m.RecvByNode[2] != 2 {
		t.Errorf("recv count = %d, want 2", m.RecvByNode[2])
	}
	if m.RecvByNodeType[2][msg.TPropose] != 1 {
		t.Errorf("recv-by-type wrong: %v", m.RecvByNodeType[2])
	}
	if m.TotalSent() != 2 {
		t.Errorf("TotalSent = %d", m.TotalSent())
	}
	m.Reset()
	if m.TotalSent() != 0 {
		t.Errorf("Reset must zero counters")
	}
}

func TestSameTimeEventsFIFO(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events must run FIFO, got %v", order)
		}
	}
}

func TestSendAcrossCrashBoundary(t *testing.T) {
	// Pins the documented crash-boundary delivery semantics: a message in
	// flight when its destination crashes is lost if it arrives while the
	// node is down, but one that arrives after the node restarted is
	// delivered, to the new handler — the network may hold messages
	// arbitrarily long, and a restart epoch must not invalidate them.
	s := New(1)
	s.SetLatency(func(_, _ msg.NodeID, m msg.Message, _ *rand.Rand) Time {
		return Time(m.(msg.Heartbeat).Epoch) // per-message latency
	})
	newEcho(s, 1)
	b := newEcho(s, 2)

	// Arrives at t=1, while 2 is down: lost.
	s.Env(1).Send(2, msg.Heartbeat{From: 1, Epoch: 1})
	// Arrives at t=5, after 2 restarted at t=3: delivered across the crash.
	s.Env(1).Send(2, msg.Heartbeat{From: 1, Epoch: 5})
	s.Crash(2)
	var b2 *echoNode
	s.At(3, func() { b2 = restartEcho(s, 2) })
	s.Run()

	if len(b.got) != 0 || len(b2.got) != 1 {
		t.Fatalf("delivered %d messages to the dead handler and %d to the restarted one, want exactly the post-restart one",
			len(b.got), len(b2.got))
	}
	if b2.got[0].(msg.Heartbeat).Epoch != 5 {
		t.Fatalf("wrong survivor: %v", b2.got[0])
	}
}

func TestFaultsPartitionDupAndReorderInSim(t *testing.T) {
	s := New(9)
	f := faults.New(9)
	s.SetFaults(f)
	newEcho(s, 1)
	b := newEcho(s, 2)

	// Partitioned: nothing crosses, and the sim counts the losses.
	f.Partition([]msg.NodeID{1}, []msg.NodeID{2})
	s.Env(1).Send(2, msg.Heartbeat{From: 1, Epoch: 0})
	s.Run()
	if len(b.got) != 0 || s.Metrics().Dropped != 1 {
		t.Fatalf("partitioned delivery: got=%d dropped=%d", len(b.got), s.Metrics().Dropped)
	}

	// Healed with dup=1: every send arrives at least twice.
	f.Heal()
	f.SetDup(1)
	s.Env(1).Send(2, msg.Heartbeat{From: 1, Epoch: 1})
	s.Run()
	if len(b.got) != 2 {
		t.Fatalf("dup=1 delivered %d copies, want 2", len(b.got))
	}

	// Reordering stays bounded: a delayed message lands within the bound.
	f.Clear()
	f.SetReorder(1, 4)
	start := s.Now()
	s.Env(1).Send(2, msg.Heartbeat{From: 1, Epoch: 2})
	s.Run()
	if got := s.Now() - start; got < 2 || got > 5 {
		t.Fatalf("reordered delivery after %d steps, want within [2, 5]", got)
	}
}

func TestFaultsDeterministicInSim(t *testing.T) {
	run := func() []uint64 {
		s := New(4)
		f := faults.New(4)
		f.SetLoss(0.3)
		f.SetDup(0.3)
		f.SetReorder(0.5, 6)
		s.SetFaults(f)
		newEcho(s, 1)
		b := newEcho(s, 2)
		env := s.Env(1)
		for i := 0; i < 100; i++ {
			env.Send(2, msg.Heartbeat{From: 1, Epoch: uint64(i)})
		}
		s.Run()
		out := make([]uint64, len(b.got))
		for i, m := range b.got {
			out[i] = m.(msg.Heartbeat).Epoch
		}
		return out
	}
	x, y := run(), run()
	if len(x) != len(y) {
		t.Fatalf("hostile replay diverged: %d vs %d deliveries", len(x), len(y))
	}
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("hostile replay diverged at %d", i)
		}
	}
}
