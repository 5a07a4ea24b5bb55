package runtime

import (
	"fmt"
	rt "runtime"
	"sync"
	"testing"
	"time"

	"mcpaxos/internal/msg"
	"mcpaxos/internal/node"
)

type collector struct {
	mu  sync.Mutex
	got []msg.Message
}

func (c *collector) OnMessage(_ msg.NodeID, m msg.Message) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.got = append(c.got, m)
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.got)
}

func TestNetworkDelivers(t *testing.T) {
	n := NewNetwork()
	defer n.Stop()
	recv := &collector{}
	n.Spawn(2, func(node.Env) node.Handler { return recv })
	n.Send(1, 2, msg.Heartbeat{From: 1})
	deadline := time.Now().Add(2 * time.Second)
	for recv.count() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if recv.count() != 1 {
		t.Fatalf("message not delivered")
	}
}

// sender is a collector that keeps its Env, so a test can send as the node
// does: from the mailbox goroutine, through Env.Send.
type sender struct {
	collector
	env node.Env
}

// spawnSender hosts a sender as node id on n.
func spawnSender(n *Network, id msg.NodeID) (*Agent, *sender) {
	s := &sender{}
	return n.Spawn(id, func(env node.Env) node.Handler { s.env = env; return s }), s
}

// sendAs sends each message to its destination from a's mailbox goroutine.
func sendAs(a *Agent, s *sender, to []msg.NodeID, ms ...msg.Message) {
	a.Do(func(node.Handler) {
		for i, m := range ms {
			s.env.Send(to[i], m)
		}
	})
}

// TestSecondSpawnPanics: a Network hosts one node. A second Spawn, for another
// ID or the same one, before or after Stop, is refused before its build runs:
// a restarted node gets a new Network.
func TestSecondSpawnPanics(t *testing.T) {
	n := NewNetwork()
	defer n.Stop()
	n.Spawn(1, func(node.Env) node.Handler { return &collector{} })
	spawnAgain := func(id msg.NodeID) {
		t.Helper()
		built := false
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("a second Spawn (node %v) on one Network did not panic", id)
				}
			}()
			n.Spawn(id, func(node.Env) node.Handler { built = true; return &collector{} })
		}()
		if built {
			t.Errorf("the refused Spawn of node %v built a handler", id)
		}
	}
	spawnAgain(2)
	spawnAgain(1)
	n.Stop()
	spawnAgain(1)
}

// TestSendRoutesSelfLocallyOthersOut: a node's send to itself reaches its own
// handler and never the route; a send to any other node reaches the route, or,
// before one is installed, nothing — it is dropped, not held for the route.
func TestSendRoutesSelfLocallyOthersOut(t *testing.T) {
	n := NewNetwork()
	defer n.Stop()
	a, s := spawnSender(n, 1)
	hb := func(epoch uint64) msg.Message { return msg.Heartbeat{From: 1, Epoch: epoch} }

	sendAs(a, s, []msg.NodeID{2, 1}, hb(1), hb(2))
	waitFor(t, "the self-send sent before any route", func() bool { return s.count() == 1 })

	var mu sync.Mutex
	var routed []string
	n.SetFallback(func(from, to msg.NodeID, m msg.Message) {
		mu.Lock()
		defer mu.Unlock()
		routed = append(routed, fmt.Sprintf("%v→%v #%d", from, to, m.(msg.Heartbeat).Epoch))
	})
	sendAs(a, s, []msg.NodeID{2, 1, 3}, hb(3), hb(4), hb(5))
	waitFor(t, "the second self-send", func() bool { return s.count() == 2 })

	s.mu.Lock()
	got := fmt.Sprint(s.got)
	s.mu.Unlock()
	if want := fmt.Sprint([]msg.Message{hb(2), hb(4)}); got != want {
		t.Errorf("handler got %s, want the two self-sends %s", got, want)
	}
	mu.Lock()
	defer mu.Unlock()
	if got, want := fmt.Sprint(routed), fmt.Sprint([]string{"n1→n2 #3", "n1→n3 #5"}); got != want {
		t.Errorf("route got %s, want %s: the sends to other nodes after it was installed", got, want)
	}
}

func TestAgentDoSerializes(t *testing.T) {
	n := NewNetwork()
	defer n.Stop()
	c := &collector{}
	ag := n.Spawn(1, func(node.Env) node.Handler { return c })
	ran := false
	ag.Do(func(h node.Handler) { ran = h == c })
	if !ran {
		t.Fatalf("Do did not run on the handler")
	}
}

// TestAgentDoSurvivesGoexit: a closure that exits the mailbox goroutine (what
// a t.Fatal inside Do does) must release its caller at once, and leave the
// agent stopped — later Do and Inject calls return instead of queueing for a
// goroutine that is gone.
func TestAgentDoSurvivesGoexit(t *testing.T) {
	n := NewNetwork()
	defer n.Stop()
	c := &collector{}
	a := n.Spawn(1, func(node.Env) node.Handler { return c })
	returned := make(chan struct{})
	go func() {
		defer close(returned)
		a.Do(func(node.Handler) { rt.Goexit() })
		ran := false
		a.Do(func(node.Handler) { ran = true })
		if ran {
			t.Error("Do ran a closure on an agent whose mailbox goroutine had exited")
		}
		for i := 0; i < 2*cap(a.inbox); i++ {
			a.Inject(2, msg.Heartbeat{From: 2}) // would block once the dead inbox filled
		}
	}()
	select {
	case <-returned:
	case <-time.After(time.Second):
		t.Fatal("Do, or a later Do or Inject, blocked after the closure exited the mailbox goroutine")
	}
	if c.count() != 0 {
		t.Errorf("%d messages reached the handler of a dead mailbox", c.count())
	}
}
