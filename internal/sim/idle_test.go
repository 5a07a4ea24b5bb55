package sim

import (
	"slices"
	"testing"

	"mcpaxos/internal/msg"
	"mcpaxos/internal/node"
)

// idleNode appends what it handles to a shared log under its name; onMsg, when
// set, runs inside OnMessage.
type idleNode struct {
	log   *[]string
	name  string
	onMsg func()
}

func (n *idleNode) OnMessage(msg.NodeID, msg.Message) {
	*n.log = append(*n.log, n.name+":m")
	if n.onMsg != nil {
		n.onMsg()
	}
}

func (n *idleNode) OnTimer(int) { *n.log = append(*n.log, n.name+":t") }
func (n *idleNode) OnIdle()     { *n.log = append(*n.log, n.name+":idle") }

// Every delivered message and every fired timer is a burst of its own.
func TestIdleFollowsEveryEvent(t *testing.T) {
	s := New(1)
	var log []string
	s.Register(1, &idleNode{log: &log, name: "a"})
	s.Env(2).Send(1, msg.Heartbeat{From: 2})
	s.Env(2).Send(1, msg.Heartbeat{From: 2})
	s.Env(1).SetTimer(1, 7)
	s.Run()
	if want := []string{"a:m", "a:idle", "a:m", "a:idle", "a:t", "a:idle"}; !slices.Equal(log, want) {
		t.Fatalf("handled %v, want %v", log, want)
	}
}

// A handler that crashes, or is replaced by Restart, while handling an event
// ends no burst: OnIdle reaches neither it nor its replacement.
func TestIdleNeverCrossesCrashOrRestart(t *testing.T) {
	s := New(1)
	var log []string
	a := &idleNode{log: &log, name: "a"}
	a.onMsg = func() { s.Crash(1) }
	s.Register(1, a)
	s.Env(2).Send(1, msg.Heartbeat{From: 2})
	s.Run()

	b, c := &idleNode{log: &log, name: "b"}, &idleNode{log: &log, name: "c"}
	b.onMsg = func() { s.Restart(1, func(node.Env) node.Handler { return c }) }
	s.Restart(1, func(node.Env) node.Handler { return b })
	s.Env(2).Send(1, msg.Heartbeat{From: 2})
	s.Run()
	s.Env(2).Send(1, msg.Heartbeat{From: 2})
	s.Run()
	if want := []string{"a:m", "b:m", "c:m", "c:idle"}; !slices.Equal(log, want) {
		t.Fatalf("handled %v, want %v", log, want)
	}
}
