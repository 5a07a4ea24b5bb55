package classic

import (
	"fmt"
	"math/rand"
	"testing"

	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/node"
	"mcpaxos/internal/sim"
)

// eachC runs a test body at c = 1 (Classic Paxos: the round's owner alone)
// and c = 3 (a coordinator group): one round path, two group sizes.
func eachC(t *testing.T, body func(t *testing.T, c int)) {
	for _, c := range []int{1, 3} {
		t.Run(fmt.Sprintf("c=%d", c), func(t *testing.T) { body(t, c) })
	}
}

// deliver hands h messages the way a host does, as one delivery burst:
// OnIdle follows the last of them.
func deliver(h node.Handler, from msg.NodeID, ms ...msg.Message) {
	for _, m := range ms {
		h.OnMessage(from, m)
	}
	if ih, ok := h.(node.IdleHandler); ok {
		ih.OnIdle()
	}
}

func TestConfigValidate(t *testing.T) {
	cl := NewCluster(ClusterOpts{NCoords: 1, NAcceptors: 3, F: 1, Seed: 1})
	if err := cl.Cfg.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := cl.Cfg
	bad.Coords = nil
	if err := bad.Validate(); err == nil {
		t.Errorf("config without coordinators must be rejected")
	}
	bad = cl.Cfg
	bad.Learners = nil
	if err := bad.Validate(); err == nil {
		t.Errorf("config without learners must be rejected")
	}
	bad = cl.Cfg
	bad.Acceptors = bad.Acceptors[:2]
	if err := bad.Validate(); err == nil {
		t.Errorf("acceptor/quorum mismatch must be rejected")
	}
}

func TestSingleDecision(t *testing.T) {
	eachC(t, func(t *testing.T, c int) {
		cl := NewCluster(ClusterOpts{NAcceptors: 3, F: 1, Seed: 1, CoordsPerShard: c})
		cl.Lead(0)
		cl.Prop.Propose(cstruct.Cmd{ID: 7})
		cl.Sim.Run()
		got, ok := cl.Learners[0].Learned(0)
		if !ok || got.ID != 7 {
			t.Fatalf("instance 0: learned %v/%v, want command 7", got, ok)
		}
	})
}

func TestThreeCommunicationSteps(t *testing.T) {
	eachC(t, func(t *testing.T, c int) {
		// E1 shape: with phase 1 pre-executed, propose→learn takes exactly 3
		// message delays (propose, 2a, 2b) — Section 2.1.2.
		cl := NewCluster(ClusterOpts{NAcceptors: 5, F: 2, Seed: 1, CoordsPerShard: c})
		cl.Lead(0)
		start := cl.Sim.Now()
		cl.Prop.Propose(cstruct.Cmd{ID: 1})
		cl.Sim.Run()
		lt, ok := cl.LearnTime[0]
		if !ok {
			t.Fatalf("nothing learned")
		}
		if steps := lt - start; steps != 3 {
			t.Errorf("learned in %d steps, want 3", steps)
		}
	})
}

func TestManyInstancesInOrder(t *testing.T) {
	eachC(t, func(t *testing.T, c int) {
		cl := NewCluster(ClusterOpts{NAcceptors: 3, F: 1, Seed: 1, CoordsPerShard: c})
		cl.Lead(0)
		const n = 50
		for i := 0; i < n; i++ {
			cl.Prop.Propose(cstruct.Cmd{ID: uint64(1000 + i)})
		}
		cl.Sim.Run()
		if cl.Learners[0].LearnedCount() != n {
			t.Fatalf("learned %d instances, want %d", cl.Learners[0].LearnedCount(), n)
		}
		for i := 0; i < n; i++ {
			got, ok := cl.Learners[0].Learned(uint64(i))
			if !ok || got.ID != uint64(1000+i) {
				t.Errorf("instance %d: got %v/%v", i, got, ok)
			}
		}
	})
}

func TestAllLearnersAgree(t *testing.T) {
	eachC(t, func(t *testing.T, c int) {
		cl := NewCluster(ClusterOpts{NAcceptors: 3, NLearners: 3, F: 1, Seed: 1, CoordsPerShard: c})
		cl.Lead(0)
		for i := 0; i < 10; i++ {
			cl.Prop.Propose(cstruct.Cmd{ID: uint64(10 + i)})
		}
		cl.Sim.Run()
		for inst := uint64(0); inst < 10; inst++ {
			ref, ok := cl.Learners[0].Learned(inst)
			if !ok {
				t.Fatalf("learner 0 missing instance %d", inst)
			}
			for li, l := range cl.Learners[1:] {
				got, ok := l.Learned(inst)
				if !ok || !got.Equal(ref) {
					t.Errorf("learner %d instance %d: got %v/%v want %v", li+1, inst, got, ok, ref)
				}
			}
		}
	})
}

func TestProposalBeforeLeadershipIsQueued(t *testing.T) {
	eachC(t, func(t *testing.T, c int) {
		cl := NewCluster(ClusterOpts{NAcceptors: 3, F: 1, Seed: 1, CoordsPerShard: c})
		cl.Prop.Propose(cstruct.Cmd{ID: 3})
		cl.Sim.Run() // proposal reaches coordinator before any round exists
		if cl.Learners[0].LearnedCount() != 0 {
			t.Fatalf("nothing should be learned without a leader")
		}
		cl.Lead(0)
		cl.Sim.Run()
		if got, ok := cl.Learners[0].Learned(0); !ok || got.ID != 3 {
			t.Fatalf("queued proposal not decided after leadership: %v/%v", got, ok)
		}
	})
}

// A client's retransmission of a submission maps to the slot its
// first receipt was stamped into: one instance, however often it is retried
// and whether or not the slot has decided yet.
func TestDuplicateProposalsDecideOnce(t *testing.T) {
	eachC(t, func(t *testing.T, c int) {
		cl := NewCluster(ClusterOpts{NAcceptors: 3, F: 1, Seed: 1, CoordsPerShard: c})
		cl.Lead(0)
		sub := msg.Propose{Cmd: cstruct.Cmd{ID: CmdID(7, 1)}}
		deliver(cl.Coords[0], 7, sub)
		deliver(cl.Coords[0], 7, sub) // retry racing the first stamp
		cl.Sim.Run()
		deliver(cl.Coords[0], 7, sub) // retry after the decision
		cl.Sim.Run()
		if n := cl.Learners[0].LearnedCount(); n != 1 {
			t.Fatalf("duplicate proposal created %d instances, want 1", n)
		}
		if stamped, restamped, _ := cl.Coords[0].IngressCounts(); stamped != 1 || restamped != 0 {
			t.Fatalf("ingress stamped %d slots (%d restamped), want 1 and 0", stamped, restamped)
		}
	})
}

func TestLeaderChangeAdoptsAcceptedValues(t *testing.T) {
	// Coordinator 0 gets command A accepted, then coordinator 1 takes over:
	// it must re-propose A, not lose it.
	cl := NewCluster(ClusterOpts{NCoords: 2, NAcceptors: 3, F: 1, Seed: 1})
	cl.Lead(0)
	cl.Prop.Propose(cstruct.Cmd{ID: 11})
	cl.Sim.Run()
	if _, ok := cl.Learners[0].Learned(0); !ok {
		t.Fatalf("setup: command not decided under leader 0")
	}
	cl.Coords[1].BecomeLeader()
	cl.Sim.Run()
	got, ok := cl.Learners[0].Learned(0)
	if !ok || got.ID != 11 {
		t.Fatalf("new leader lost the decided value: %v/%v", got, ok)
	}
	if !cl.Coords[1].Leading() {
		t.Errorf("coordinator 1 should have completed phase 1")
	}
}

// Repair rejoins a live round only if the restarted coordinator serves it.
// At c = 1 a standby that took the shard over owns its round alone, so the
// old owner coming back finds no group to rejoin: it must outbid the round,
// not probe it forever.
func TestRepairOutbidsRoundServedWithoutIt(t *testing.T) {
	cl := NewCluster(ClusterOpts{NCoords: 2, NAcceptors: 3, F: 1, Seed: 1, RetryEvery: 10})
	cl.Lead(0)
	cl.Prop.Propose(cstruct.Cmd{ID: 1})
	cl.Sim.RunUntil(cl.Sim.Now() + 50)
	cl.Sim.Crash(cl.Cfg.Coords[0])
	cl.Coords[1].BecomeLeader()
	cl.Sim.RunUntil(cl.Sim.Now() + 50)
	standby := cl.Coords[1].Rnd()

	cl.Restart(cl.Cfg.Coords[0])
	fresh := cl.Coords[0]
	cl.Prop.Propose(cstruct.Cmd{ID: 2})
	cl.Sim.RunUntil(cl.Sim.Now() + 500)

	if !fresh.Leading() || !standby.Less(fresh.Rnd()) {
		t.Fatalf("restarted owner leading=%v at round %v, want a round above the standby's %v",
			fresh.Leading(), fresh.Rnd(), standby)
	}
	if got := cl.Learners[0].LearnedCount(); got != 2 {
		t.Fatalf("learned %d/2 across the takeover and the owner's return", got)
	}
}

// A coordinator keeps no stable state (Section 4.4): restarted, it is a new
// Coordinator that knows nothing of the round it led or the 2a it had
// outstanding, and Repair is what finishes that instance — from the
// acceptors' promises, since with proposer retransmission off nobody will
// submit the command again. (Resumed in place, the old object kept its
// window, believed a retry timer armed that the crash had cancelled, and
// never sent another message.)
func TestRestartedCoordinatorForgetsAndRepairs(t *testing.T) {
	cl := NewCluster(ClusterOpts{NCoords: 1, NAcceptors: 3, F: 1, Seed: 1, RetryEvery: 8})
	cl.Sim.MaxEvents = 100_000
	cl.Prop.RetryEvery = 0
	cl.Lead(0)
	// Every 2b is lost: the acceptors vote, nobody learns, the 2a stays
	// outstanding at the coordinator.
	cl.Sim.SetLatency(dropping(func(_, _ msg.NodeID, m msg.Message, _ *rand.Rand) bool {
		_, is2b := m.(msg.P2b)
		return is2b
	}))
	cl.Prop.Propose(cstruct.Cmd{ID: 7})
	cl.Sim.RunUntil(cl.Sim.Now() + 4)
	old := cl.Coords[0]
	if !old.Leading() || old.Inflight() != 1 {
		t.Fatalf("setup: leading=%v inflight=%d, want a leader with one 2a outstanding", old.Leading(), old.Inflight())
	}

	cl.Sim.Crash(cl.Cfg.Coords[0])
	cl.Sim.SetLatency(sim.UnitLatency)
	cl.Restart(cl.Cfg.Coords[0])
	fresh := cl.Coords[0]
	if fresh == old || fresh.Leading() || fresh.Inflight() != 0 || !fresh.Rnd().IsZero() {
		t.Fatalf("restarted coordinator remembers: same object=%v leading=%v inflight=%d round=%v",
			fresh == old, fresh.Leading(), fresh.Inflight(), fresh.Rnd())
	}
	cl.Sim.Run() // quiesces: nothing retransmits for ever
	if got, ok := cl.LearnedCmds[0]; !ok || got.ID != 7 {
		t.Fatalf("instance 0 learned %v (ok=%v), want the command outstanding at the crash", got, ok)
	}
	if !fresh.Leading() || fresh.Inflight() != 0 {
		t.Errorf("after repair: leading=%v inflight=%d, want the live round re-established and the window empty",
			fresh.Leading(), fresh.Inflight())
	}
}

func TestCompetingLeadersStaySafe(t *testing.T) {
	// Two coordinators alternate leadership while commands flow; no two
	// learners may ever disagree on an instance (Consistency).
	cl := NewCluster(ClusterOpts{NCoords: 2, NAcceptors: 5, NLearners: 2, F: 2, Seed: 1})
	for round := 0; round < 6; round++ {
		cl.Coords[round%2].BecomeLeader()
		cl.Prop.Propose(cstruct.Cmd{ID: uint64(100 + round)})
		cl.Sim.Run()
	}
	for inst := uint64(0); inst < 6; inst++ {
		a, okA := cl.Learners[0].Learned(inst)
		b, okB := cl.Learners[1].Learned(inst)
		if okA && okB && !a.Equal(b) {
			t.Fatalf("instance %d: learners disagree: %v vs %v", inst, a, b)
		}
	}
}

func TestAcceptorCrashRecoveryKeepsVotes(t *testing.T) {
	cl := NewCluster(ClusterOpts{NCoords: 1, NAcceptors: 3, F: 1, Seed: 1})
	cl.Lead(0)
	cl.Prop.Propose(cstruct.Cmd{ID: 21})
	cl.Sim.Run()

	// Crash and recover acceptor 0; its vote must survive on disk.
	accID := cl.Cfg.Acceptors[0]
	cl.Sim.Crash(accID)
	cl.Restart(accID)
	vrnd, vval, ok := cl.Accs[0].Vote(0)
	if !ok || vval.ID != 21 {
		t.Fatalf("vote lost across recovery: %v %v %v", vrnd, vval, ok)
	}
	// Recovery bumps the incarnation: the acceptor's round now dominates
	// the old leader's round, forcing a new round for future instances.
	if !cl.Coords[0].Rnd().Less(cl.Accs[0].Rnd()) {
		t.Errorf("recovered acceptor round %v must outrun old leader round %v",
			cl.Accs[0].Rnd(), cl.Coords[0].Rnd())
	}
}

func TestStaleTriggersHigherRound(t *testing.T) {
	cl := NewCluster(ClusterOpts{NCoords: 2, NAcceptors: 3, F: 1, Seed: 1})
	cl.Lead(0)
	cl.Lead(1) // now acceptors are at coordinator 1's round
	r0 := cl.Coords[0].Rnd()
	// Coordinator 0 tries to act with its stale round: acceptors answer
	// Stale and coordinator 0 must outbid.
	cl.Prop.Propose(cstruct.Cmd{ID: 31})
	cl.Sim.Run()
	if !r0.Less(cl.Coords[0].Rnd()) && !cl.Coords[0].Leading() {
		t.Errorf("coordinator 0 must either regain leadership or raise its round")
	}
	// Whatever happened, the command must be decided exactly once.
	if got, ok := cl.Learners[0].Learned(0); !ok || got.ID != 31 {
		t.Fatalf("command lost during leader contention: %v/%v", got, ok)
	}
}

func TestLossyNetworkWithRetransmission(t *testing.T) {
	eachC(t, func(t *testing.T, c int) {
		cl := NewCluster(ClusterOpts{NAcceptors: 3, F: 1, Seed: 42, RetryEvery: 20, CoordsPerShard: c})
		cl.Sim.SetLatency(dropProb(0.2))
		cl.Coords[0].BecomeLeader()
		cl.Sim.RunUntil(1_000)
		const n = 20
		for i := 0; i < n; i++ {
			cl.Prop.Propose(cstruct.Cmd{ID: uint64(500 + i)})
		}
		cl.Sim.RunUntil(5_000)
		if got := cl.Learners[0].LearnedCount(); got != n {
			t.Fatalf("lossy run learned %d/%d instances", got, n)
		}
	})
}

// A lost promise wave must not wedge phase 1: the coordinator retransmits
// its 1a, and an acceptor that already joined the round re-sends its promise
// instead of rejecting the retransmission as stale.
func TestLostPromiseRecoveredByRetransmit(t *testing.T) {
	eachC(t, func(t *testing.T, c int) {
		cl := NewCluster(ClusterOpts{NCoords: 1, NAcceptors: 3, F: 1, Seed: 1, RetryEvery: 20, CoordsPerShard: c})
		lost := 0
		cl.Sim.SetLatency(dropping(func(_, _ msg.NodeID, m msg.Message, _ *rand.Rand) bool {
			// The whole first wave: every acceptor's promise to every member.
			if m.Type() == msg.TP1b && lost < 3*c {
				lost++
				return true
			}
			return false
		}))
		cl.Coords[0].BecomeLeader()
		cl.Prop.Propose(cstruct.Cmd{ID: 1})
		cl.Sim.RunUntil(5_000)
		if lost != 3*c {
			t.Fatalf("dropped %d promises, want the full first wave of %d", lost, 3*c)
		}
		if !cl.Coords[0].Leading() {
			t.Fatal("coordinator never established its round after the promise wave was lost")
		}
		if got := cl.Learners[0].LearnedCount(); got != 1 {
			t.Fatalf("learned %d/1 after the lost promise wave", got)
		}
	})
}

func TestDiskWritesOnePerAcceptedValue(t *testing.T) {
	// E6 shape: in stable runs each acceptor performs exactly one write per
	// accepted value, plus the single startup write (Section 4.4).
	cl := NewCluster(ClusterOpts{NCoords: 1, NAcceptors: 3, F: 1, Seed: 1})
	cl.Lead(0)
	for _, d := range cl.Disks {
		d.ResetWrites()
	}
	const n = 10
	for i := 0; i < n; i++ {
		cl.Prop.Propose(cstruct.Cmd{ID: uint64(700 + i)})
	}
	cl.Sim.Run()
	for i, d := range cl.Disks {
		if got := d.Writes(); got != n {
			t.Errorf("acceptor %d: %d writes for %d accepted values", i, got, n)
		}
	}
}

// A sharded proposal must reach the shard's whole coordinator group, so a
// standby taking over the shard keeps deciding commands routed to it after
// the primary dies.
func TestShardedProposeSurvivesPrimaryFailover(t *testing.T) {
	cl := NewCluster(ClusterOpts{NCoords: 4, NAcceptors: 3, F: 1, Seed: 23, Shards: 2})
	cl.LeadAll()
	cl.Prop.ProposeTo(0, cstruct.Cmd{ID: 700, Key: "k"})
	cl.Sim.Run()
	if _, ok := cl.LearnedCmds[0]; !ok {
		t.Fatal("shard 0 did not decide before the failover")
	}

	// Kill shard 0's primary; its standby (coordinator 2, Shard=0) takes
	// over with a fresh round.
	cl.Sim.Crash(cl.Cfg.Coords[0])
	cl.Coords[2].BecomeLeader()
	cl.Sim.Run()
	cl.Prop.ProposeTo(0, cstruct.Cmd{ID: 701, Key: "k"})
	cl.Sim.Run()
	learned := false
	for _, cmd := range cl.LearnedCmds {
		if cmd.ID == 701 {
			learned = true
		}
	}
	if !learned {
		t.Fatal("command routed to shard 0 lost after primary failover to the standby")
	}
	// Shard 1's leader must be untouched by shard 0's failover round.
	if !cl.Coords[1].Leading() {
		t.Error("shard 1 leader disturbed by shard 0 failover")
	}
}

// dropping is unit latency that loses the messages drop picks.
func dropping(drop func(from, to msg.NodeID, m msg.Message, r *rand.Rand) bool) sim.LatencyFn {
	return func(from, to msg.NodeID, m msg.Message, r *rand.Rand) sim.Time {
		if drop(from, to, m, r) {
			return -1
		}
		return 1
	}
}

// dropProb is unit latency that loses each message with probability p.
func dropProb(p float64) sim.LatencyFn {
	return dropping(func(_, _ msg.NodeID, _ msg.Message, r *rand.Rand) bool { return r.Float64() < p })
}
