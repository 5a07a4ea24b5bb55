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
	}{
		{Propose{Cmd: cstruct.Cmd{ID: 1}}, TPropose},
		{P1a{Inst: 1, Rnd: b}, TP1a},
		{P1b{Rnd: b, Acc: 200}, TP1b},
		{P1bMulti{Rnd: b, Acc: 200}, TP1b},
		{P2a{Inst: 4, Rnd: b, Coord: 100}, TP2a},
		{P2b{Inst: 5, Rnd: b, Acc: 200}, TP2b},
		{Stale{Rnd: b}, TStale},
		{Heartbeat{From: 100}, THeartbeat},
		{PeerDown{Node: 100}, TPeerDown},
	}
	for _, c := range cases {
		if c.m.Type() != c.want {
			t.Errorf("%T.Type() = %v, want %v", c.m, c.m.Type(), c.want)
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
