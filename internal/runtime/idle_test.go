package runtime

import (
	"sync"
	"testing"
	"time"

	"mcpaxos/internal/msg"
	"mcpaxos/internal/node"
)

// burstLog is an IdleHandler that records what it handles, "m" for a message
// and "idle" for OnIdle. While gate is set, the first message it handles
// blocks on it, after closing entered.
type burstLog struct {
	mu      sync.Mutex
	events  []string
	gate    chan struct{}
	entered chan struct{}
	// staged counts messages handled since the last OnIdle, committed those
	// handled before it: the shape of an agent that works per burst.
	staged, committed int
}

func (b *burstLog) OnMessage(msg.NodeID, msg.Message) {
	if b.gate != nil {
		gate := b.gate
		b.gate = nil
		close(b.entered)
		<-gate
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.events = append(b.events, "m")
	b.staged++
}

func (b *burstLog) OnIdle() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.events = append(b.events, "idle")
	b.committed += b.staged
	b.staged = 0
}

func (b *burstLog) log() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]string(nil), b.events...)
}

// blockedAgent spawns a burstLog whose mailbox is held inside its first
// message until the returned release is called.
func blockedAgent(t *testing.T, n *Network) (*Agent, *burstLog, func()) {
	t.Helper()
	b := &burstLog{gate: make(chan struct{}), entered: make(chan struct{})}
	gate := b.gate
	a := n.Spawn(1, func(node.Env) node.Handler { return b })
	a.Inject(2, msg.Heartbeat{From: 2})
	select {
	case <-b.entered:
	case <-time.After(2 * time.Second):
		t.Fatal("the first message never reached the handler")
	}
	return a, b, func() { close(gate) }
}

// waitFor polls cond until it holds or a second passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// Messages queued behind a busy handler are one burst: the k of them draw
// exactly one OnIdle, after the k-th.
func TestIdleEndsQueuedBurst(t *testing.T) {
	n := NewNetwork()
	defer n.Stop()
	a, b, release := blockedAgent(t, n)
	const k = 5
	for i := 0; i < k; i++ {
		a.Inject(2, msg.Heartbeat{From: 2})
	}
	waitFor(t, "the queue to fill", func() bool { return len(a.inbox) == k })
	release()
	want := []string{"m", "idle", "m", "m", "m", "m", "m", "idle"}
	waitFor(t, "both bursts to end", func() bool { return len(b.log()) == len(want) })
	for i, e := range b.log() {
		if e != want[i] {
			t.Fatalf("handled %v, want %v", b.log(), want)
		}
	}
}

// An inbox refilled as fast as it drains still sees OnIdle: a burst ends at
// the items queued when it began, so none is longer than the inbox plus the
// item the loop woke for.
func TestIdleBoundedBySnapshot(t *testing.T) {
	n := NewNetwork()
	defer n.Stop()
	b := &burstLog{}
	a := n.Spawn(1, func(node.Env) node.Handler { return b })
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				a.Inject(2, msg.Heartbeat{From: 2})
			}
		}
	}()
	waitFor(t, "five burst ends under a steady feed", func() bool {
		idles := 0
		for _, e := range b.log() {
			if e == "idle" {
				idles++
			}
		}
		return idles >= 5
	})
	close(stop)
	wg.Wait()
	run := 0
	for _, e := range b.log() {
		if e == "idle" {
			run = 0
			continue
		}
		if run++; run > cap(a.inbox)+1 {
			t.Fatalf("a burst ran past %d items without OnIdle", cap(a.inbox)+1)
		}
	}
}

// A Do closure sees the state OnIdle commits: it ends the burst it joined.
func TestIdleBeforeDo(t *testing.T) {
	n := NewNetwork()
	defer n.Stop()
	a, b, release := blockedAgent(t, n)
	a.Inject(2, msg.Heartbeat{From: 2})
	type seen struct{ staged, committed int }
	got := make(chan seen, 1)
	go a.Do(func(node.Handler) { got <- seen{b.staged, b.committed} })
	waitFor(t, "the closure to queue behind the message", func() bool { return len(a.inbox) == 2 })
	release()
	select {
	case s := <-got:
		if s.staged != 0 || s.committed != 2 {
			t.Fatalf("closure saw %d staged and %d committed, want 0 and 2", s.staged, s.committed)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the closure never ran")
	}
}
