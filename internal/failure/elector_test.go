package failure

import (
	"testing"

	"mcpaxos/internal/msg"
	"mcpaxos/internal/node"
	"mcpaxos/internal/sim"
)

type electHost struct {
	el      *Elector
	history []msg.NodeID
}

// hostElector brings node id up — for the first time or after a crash — with
// a freshly built elector, as every host restarts a node.
func hostElector(s *sim.Sim, id msg.NodeID, ids []msg.NodeID) *electHost {
	h := &electHost{}
	s.Restart(id, func(env node.Env) node.Handler {
		h.el = NewElector(env, ids, 10, 25, func(l msg.NodeID, _ bool) {
			h.history = append(h.history, l)
		})
		return h.el
	})
	return h
}

func buildElectors(s *sim.Sim, ids []msg.NodeID) []*electHost {
	hosts := make([]*electHost, len(ids))
	for i, id := range ids {
		hosts[i] = hostElector(s, id, ids)
	}
	return hosts
}

func TestLowestIDBecomesLeader(t *testing.T) {
	s := sim.New(1)
	ids := []msg.NodeID{101, 102, 103}
	hosts := buildElectors(s, ids)
	for _, h := range hosts {
		h.el.Start()
	}
	s.RunUntil(100)
	for i, h := range hosts {
		if h.el.Leader() != 101 {
			t.Errorf("node %d: leader = %v, want 101", ids[i], h.el.Leader())
		}
	}
}

func TestLeaderCrashTriggersReelection(t *testing.T) {
	s := sim.New(1)
	ids := []msg.NodeID{101, 102, 103}
	hosts := buildElectors(s, ids)
	for _, h := range hosts {
		h.el.Start()
	}
	s.RunUntil(100)
	s.Crash(101)
	s.RunUntil(300)
	for _, idx := range []int{1, 2} {
		if hosts[idx].el.Leader() != 102 {
			t.Errorf("node %v: leader = %v, want 102 after crash",
				ids[idx], hosts[idx].el.Leader())
		}
	}
}

func TestRecoveredLeaderRegainsLeadership(t *testing.T) {
	s := sim.New(1)
	ids := []msg.NodeID{101, 102}
	hosts := buildElectors(s, ids)
	for _, h := range hosts {
		h.el.Start()
	}
	s.RunUntil(100)
	s.Crash(101)
	s.RunUntil(300)
	if hosts[1].el.Leader() != 102 {
		t.Fatalf("setup: 102 should lead, got %v", hosts[1].el.Leader())
	}
	hostElector(s, 101, ids).el.Start()
	s.RunUntil(600)
	if hosts[1].el.Leader() != 101 {
		t.Errorf("recovered lowest ID must regain leadership, got %v", hosts[1].el.Leader())
	}
}

func TestCallbackReportsSelf(t *testing.T) {
	s := sim.New(1)
	var selfEvents []bool
	id := msg.NodeID(101)
	el := NewElector(s.Env(id), []msg.NodeID{101, 102}, 10, 25,
		func(_ msg.NodeID, isSelf bool) { selfEvents = append(selfEvents, isSelf) })
	s.Register(id, el)
	el.Start()
	s.RunUntil(50)
	if len(selfEvents) == 0 || !selfEvents[0] {
		t.Errorf("lone live node must elect itself, got %v", selfEvents)
	}
}

func TestStartIdempotent(t *testing.T) {
	s := sim.New(1)
	id := msg.NodeID(101)
	el := NewElector(s.Env(id), []msg.NodeID{101}, 10, 25, nil)
	s.Register(id, el)
	el.Start()
	el.Start()
	s.RunUntil(35)
	// Only one timer chain should be live: heartbeats are sent to nobody
	// (single peer), so just ensure no panic and leader is self.
	if el.Leader() != 101 {
		t.Errorf("leader = %v", el.Leader())
	}
}
