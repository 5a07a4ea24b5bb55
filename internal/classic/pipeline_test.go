package classic

import (
	"fmt"
	"math/rand"
	"testing"

	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/sim"
)

// TestPipelineManyInflight submits a burst of commands before draining the
// simulator: the coordinator must keep all of them in flight across
// distinct instances concurrently instead of serializing rounds.
func TestPipelineManyInflight(t *testing.T) {
	eachC(t, func(t *testing.T, c int) {
		cl := NewCluster(ClusterOpts{NAcceptors: 3, F: 1, Seed: 1, CoordsPerShard: c})
		cl.Lead(0)
		start := cl.Sim.Now()
		const n = 20
		for i := 0; i < n; i++ {
			cl.Prop.Propose(cstruct.Cmd{ID: uint64(1 + i), Key: fmt.Sprintf("k%d", i)})
		}
		cl.Sim.Run()
		if len(cl.LearnedCmds) != n {
			t.Fatalf("learned %d/%d", len(cl.LearnedCmds), n)
		}
		// All instances share the propose->2a->2b->learn pipeline, so the whole
		// burst lands in one round trip (3 steps), not n sequential rounds.
		elapsed := cl.Sim.Now() - start
		if elapsed > 4 {
			t.Errorf("burst of %d took %d steps; pipelining should overlap them", n, elapsed)
		}
	})
}

// TestPipelineWindowBounds checks MaxInflight: no more than the window is
// unlearned at once, the overflow queues, and everything still gets learned
// as slots free up.
func TestPipelineWindowBounds(t *testing.T) {
	eachC(t, func(t *testing.T, c int) {
		const window = 4
		cl := NewCluster(ClusterOpts{NAcceptors: 3, F: 1, Seed: 1, MaxInflight: window, CoordsPerShard: c})
		cl.Lead(0)
		co := cl.Coords[0]
		const n = 19
		for i := 0; i < n; i++ {
			cl.Prop.Propose(cstruct.Cmd{ID: uint64(1 + i), Key: fmt.Sprintf("k%d", i)})
		}
		// Proposes are in flight to the coordinator; run the propose deliveries
		// only (1 step) and check the window held.
		cl.Sim.RunUntil(cl.Sim.Now() + 1)
		if co.Inflight() > window {
			t.Fatalf("inflight %d exceeds window %d", co.Inflight(), window)
		}
		if co.Pending() != n-window {
			t.Errorf("pending = %d, want %d", co.Pending(), n-window)
		}
		cl.Sim.Run()
		if len(cl.LearnedCmds) != n {
			t.Fatalf("learned %d/%d with window %d", len(cl.LearnedCmds), n, window)
		}
		if co.Inflight() != 0 || co.Pending() != 0 {
			t.Errorf("window did not drain: inflight=%d pending=%d", co.Inflight(), co.Pending())
		}
		// Instances must hold distinct commands (no overwrite while windowed).
		seen := make(map[uint64]bool)
		for _, cmd := range cl.LearnedCmds {
			if seen[cmd.ID] {
				t.Errorf("command %d learned in two instances", cmd.ID)
			}
			seen[cmd.ID] = true
		}
	})
}

// TestPendingDedupUnderRetransmission: a retransmitted proposal arriving
// while the window is full must not grow the queue behind the window.
func TestPendingDedupUnderRetransmission(t *testing.T) {
	eachC(t, func(t *testing.T, c int) {
		cl := NewCluster(ClusterOpts{NAcceptors: 3, F: 1, Seed: 1, MaxInflight: 1, CoordsPerShard: c})
		cl.Lead(0)
		co := cl.Coords[0]
		a := msg.Propose{Cmd: cstruct.Cmd{ID: 1, Key: "a"}, Seq: 0, HasSeq: true}
		b := msg.Propose{Cmd: cstruct.Cmd{ID: 2, Key: "b"}, Seq: 1, HasSeq: true}
		for _, co := range cl.Coords {
			co.OnMessage(1, a) // fills the window
			co.OnMessage(1, b) // queued
			co.OnMessage(1, b) // retransmission
			co.OnMessage(1, b) // retransmission
		}
		if co.Inflight() != 1 || co.Pending() != 1 {
			t.Fatalf("inflight = %d pending = %d, want 1 and 1 (duplicates queued)", co.Inflight(), co.Pending())
		}
		cl.Sim.Run()
		if len(cl.LearnedCmds) != 2 {
			t.Fatalf("learned %d/2", len(cl.LearnedCmds))
		}
	})
}

// TestCoordinatorStateBoundedByWindow: everything a coordinator keeps about
// an instance is dropped once the shard's contiguous learned frontier passes
// it, so a long run retains O(window) entries — and a client retry for a
// request whose instance was learned and forgotten is absorbed: no restamp,
// no 2a.
func TestCoordinatorStateBoundedByWindow(t *testing.T) {
	eachC(t, func(t *testing.T, c int) {
		const window, n = 8, 10_000
		cl := NewCluster(ClusterOpts{NAcceptors: 3, F: 1, Seed: 5, MaxInflight: window, CoordsPerShard: c})
		cl.Lead(0)
		co := cl.Coords[0]
		sub := func(i int) msg.Propose {
			return msg.Propose{Cmd: cstruct.Cmd{ID: uint64(1 + i), Key: "k"}, Client: 7, Req: uint64(i)}
		}
		for i := 0; i < n; i++ {
			co.OnMessage(7, sub(i))
			if i%64 == 63 {
				cl.Sim.Run()
			}
			if got := co.Retained(); got > 64+window {
				t.Fatalf("after %d submissions the coordinator retains %d entries", i+1, got)
			}
		}
		cl.Sim.Run()
		if got := len(cl.LearnedCmds); got != n {
			t.Fatalf("learned %d/%d", got, n)
		}
		for i, m := range cl.Coords {
			if got := m.Retained(); got > window {
				t.Errorf("member %d retains %d entries after %d learned instances, want ≤ window %d", i, got, n, window)
			}
		}

		stamped, restamped, _ := co.IngressCounts()
		sent := cl.Sim.Metrics().TotalSent()
		co.OnMessage(7, sub(n-1))
		co.OnMessage(7, sub(n-100))
		cl.Sim.Run()
		if s, r, _ := co.IngressCounts(); s != stamped || r != restamped {
			t.Errorf("retry of a learned, forgotten request stamped again: stamped %d→%d restamped %d→%d",
				stamped, s, restamped, r)
		}
		if got := cl.Sim.Metrics().TotalSent(); got != sent {
			t.Errorf("retry of a learned, forgotten request sent %d messages, want none", got-sent)
		}
		if got := len(cl.LearnedCmds); got != n {
			t.Errorf("retry created an instance: learned %d, want %d", got, n)
		}
	})
}

// TestRoundChangeRecoversUnackedCommand: a command whose 2a reached no
// acceptor must survive its coordinator abandoning the round — the round
// change releases the dedup claim and re-queues it.
func TestRoundChangeRecoversUnackedCommand(t *testing.T) {
	eachC(t, func(t *testing.T, c int) {
		cl := NewCluster(ClusterOpts{NAcceptors: 3, F: 1, Seed: 1, CoordsPerShard: c})
		cl.Lead(0)
		// Lose every 2a: the assignment exists only in coordinator state.
		cl.Sim.SetDrop(func(_, _ msg.NodeID, m msg.Message, _ *rand.Rand) bool {
			return m.Type() == msg.TP2a
		})
		cl.Prop.Propose(cstruct.Cmd{ID: 1, Key: "x"})
		cl.Sim.Run()
		if len(cl.LearnedCmds) != 0 {
			t.Fatalf("nothing should be learned while 2a is dropped")
		}
		cl.Sim.SetDrop(sim.DropNone)
		cl.Coords[0].BecomeLeader()
		cl.Sim.Run()
		if len(cl.LearnedCmds) != 1 {
			t.Fatalf("command lost across round change: learned %d/1", len(cl.LearnedCmds))
		}
	})
}

// TestPipelineWindowSurvivesLeaderChange: queued proposals behind a full
// window must survive a round change and drain under the new leadership.
func TestPipelineWindowSurvivesLeaderChange(t *testing.T) {
	eachC(t, func(t *testing.T, c int) {
		cl := NewCluster(ClusterOpts{NCoords: 2, NAcceptors: 3, F: 1, Seed: 3, MaxInflight: 2, CoordsPerShard: c})
		cl.Lead(0)
		const n = 8
		for i := 0; i < n; i++ {
			cl.Prop.Propose(cstruct.Cmd{ID: uint64(1 + i), Key: fmt.Sprintf("k%d", i)})
		}
		cl.Sim.Run()
		// A second coordinator takes over; nothing should be lost or duplicated.
		cl.Coords[1].BecomeLeader()
		cl.Sim.Run()
		for i := 0; i < n; i++ {
			cl.Prop.Propose(cstruct.Cmd{ID: uint64(100 + i), Key: fmt.Sprintf("q%d", i)})
		}
		cl.Sim.Run()
		if len(cl.LearnedCmds) != 2*n {
			t.Fatalf("learned %d/%d across leader change", len(cl.LearnedCmds), 2*n)
		}
	})
}
