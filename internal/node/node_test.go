package node

import (
	"testing"

	"mcpaxos/internal/msg"
)

type stub struct {
	msgs   int
	timers []int
	idles  int
}

func (s *stub) OnMessage(msg.NodeID, msg.Message) { s.msgs++ }
func (s *stub) OnTimer(tag int)                   { s.timers = append(s.timers, tag) }
func (s *stub) OnIdle()                           { s.idles++ }

type plain struct{ msgs int }

func (p *plain) OnMessage(msg.NodeID, msg.Message) { p.msgs++ }

type fakeEnv struct{ sent []msg.NodeID }

func (f *fakeEnv) ID() msg.NodeID                    { return 1 }
func (f *fakeEnv) Now() int64                        { return 0 }
func (f *fakeEnv) Send(to msg.NodeID, _ msg.Message) { f.sent = append(f.sent, to) }
func (f *fakeEnv) SetTimer(int64, int)               {}

func TestMultiHandlerFansOut(t *testing.T) {
	a, b := &stub{}, &stub{}
	p := &plain{}
	m := MultiHandler{a, p, b}
	m.OnMessage(1, msg.Heartbeat{})
	if a.msgs != 1 || b.msgs != 1 || p.msgs != 1 {
		t.Errorf("message not fanned out: %d %d %d", a.msgs, p.msgs, b.msgs)
	}
	m.OnTimer(7)
	if len(a.timers) != 1 || len(b.timers) != 1 {
		t.Errorf("timer not fanned out to TimerHandlers")
	}
	m.OnIdle()
	if a.idles != 1 || b.idles != 1 {
		t.Errorf("burst end not fanned out to IdleHandlers: %d %d", a.idles, b.idles)
	}
}

func TestBroadcast(t *testing.T) {
	env := &fakeEnv{}
	Broadcast(env, []msg.NodeID{5, 6, 7}, msg.Heartbeat{})
	if len(env.sent) != 3 || env.sent[0] != 5 || env.sent[2] != 7 {
		t.Errorf("broadcast targets wrong: %v", env.sent)
	}
}
