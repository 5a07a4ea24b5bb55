package node

import (
	"testing"

	"mcpaxos/internal/msg"
)

type fakeEnv struct{ sent []msg.NodeID }

func (f *fakeEnv) ID() msg.NodeID                    { return 1 }
func (f *fakeEnv) Now() int64                        { return 0 }
func (f *fakeEnv) Send(to msg.NodeID, _ msg.Message) { f.sent = append(f.sent, to) }
func (f *fakeEnv) SetTimer(int64, int)               {}

func TestBroadcast(t *testing.T) {
	env := &fakeEnv{}
	Broadcast(env, []msg.NodeID{5, 6, 7}, msg.Heartbeat{})
	if len(env.sent) != 3 || env.sent[0] != 5 || env.sent[2] != 7 {
		t.Errorf("broadcast targets wrong: %v", env.sent)
	}
}
