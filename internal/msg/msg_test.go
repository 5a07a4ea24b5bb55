package msg

import (
	"testing"

	"mcpaxos/internal/ballot"
	"mcpaxos/internal/cstruct"
)

func TestMessageTypes(t *testing.T) {
	b := ballot.Ballot{MinCount: 1, ID: 2}
	cases := []struct {
		m    Message
		want Type
		inst uint64
	}{
		{Propose{Inst: 3, Cmd: cstruct.Cmd{ID: 1}}, TPropose, 3},
		{P1a{Inst: 1, Rnd: b}, TP1a, 1},
		{P1b{Inst: 2, Rnd: b, Acc: 200}, TP1b, 2},
		{P1bMulti{Rnd: b, Acc: 200}, TP1b, 0},
		{P2a{Inst: 4, Rnd: b, Coord: 100}, TP2a, 4},
		{P2b{Inst: 5, Rnd: b, Acc: 200}, TP2b, 5},
		{Stale{Inst: 6, Acc: 200, Rnd: b}, TStale, 6},
		{Heartbeat{From: 100}, THeartbeat, 0},
		{PeerDown{Node: 100}, TPeerDown, 0},
	}
	for _, c := range cases {
		if c.m.Type() != c.want {
			t.Errorf("%T.Type() = %v, want %v", c.m, c.m.Type(), c.want)
		}
		if c.m.Instance() != c.inst {
			t.Errorf("%T.Instance() = %d, want %d", c.m, c.m.Instance(), c.inst)
		}
	}
}

func TestTypeStrings(t *testing.T) {
	for ty, want := range map[Type]string{
		TPropose: "propose", TP1a: "1a", TP1b: "1b", TP2a: "2a", TP2b: "2b",
		TStale: "stale", THeartbeat: "heartbeat", TUnknown: "unknown",
		TPeerDown: "peer-down",
	} {
		if ty.String() != want {
			t.Errorf("Type(%d).String() = %q want %q", ty, ty.String(), want)
		}
	}
}

func TestNodeIDString(t *testing.T) {
	if NodeID(42).String() != "n42" {
		t.Errorf("NodeID.String() = %q", NodeID(42).String())
	}
}
