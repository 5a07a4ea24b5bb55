package classic

import (
	"testing"

	"mcpaxos/internal/msg"
)

// The skip hint (msg.Fill with Idle set) on the simulator: two shards, the
// hint always addressed to shard 1, whose instances are 1, 3, 5, 7, …

// skipCluster builds two shards served by groups of c — plus one standby each
// at c = 1 — whose members batch at ingress. It returns shard 1's
// members, primary first.
func skipCluster(c int, lead bool) (*Cluster, []*Coordinator) {
	o := ClusterOpts{NAcceptors: 3, F: 1, Seed: 5, MaxInflight: 8, Shards: 2, CoordsPerShard: c}
	if c == 1 {
		o.NCoords = 4
	}
	cl := NewCluster(o)
	var shard1 []*Coordinator
	for _, co := range cl.Coords {
		co.IngressBatchMax, co.IngressBatchWait = ingMax, ingWait
		if co.shard == 1 {
			shard1 = append(shard1, co)
		}
	}
	if lead {
		cl.LeadAll()
	}
	return cl, shard1
}

func hint(co *Coordinator, inst uint64) {
	deliver(co, 300, msg.Fill{Inst: inst, Learner: 300, Idle: true})
}

func filledAt(co *Coordinator) uint64 {
	_, _, f := co.IngressCounts()
	return f
}

// The stamper, with nothing buffered, stamps the no-op into every unclaimed
// slot through the named instance and shares the stamps like any other; a
// second learner's hint, or one naming a slot already claimed, finds nothing
// to do.
func TestSkipHintStampsNoopsThroughNamedSlot(t *testing.T) {
	eachC(t, func(t *testing.T, c int) {
		cl, shard1 := skipCluster(c, true)
		co := shard1[0]
		hint(co, 7)
		if s, f := stampedAt(co), filledAt(co); s != 4 || f != 4 {
			t.Fatalf("hint naming instance 7: stamped %d slots, %d of them fills; want 4 and 4 (instances 1, 3, 5, 7)", s, f)
		}
		cl.Sim.Run()
		for _, inst := range []uint64{1, 3, 5, 7} {
			if got, ok := cl.LearnedCmds[inst]; !ok || !got.Equal(Noop(inst)) {
				t.Errorf("instance %d: learned %v/%v, want the canonical no-op", inst, got, ok)
			}
		}
		for _, peer := range shard1[1:] {
			if c > 1 && (peer.ingressNext != 4 || peer.stamper != cl.Cfg.Coords[1]) {
				t.Errorf("peer %v: ingress counter %d following %v; want 4 and the stamper — a skip is shared like any stamp",
					peer.env.ID(), peer.ingressNext, peer.stamper)
			}
		}
		hint(co, 7)
		hint(co, 3)
		if s, f := stampedAt(co), filledAt(co); s != 4 || f != 4 {
			t.Fatalf("a repeated hint and one below the ingress counter left %d stamped, %d filled; want 4 and 4", s, f)
		}
		wantNoCollision(t, cl, "skipping")
	})
}

// Only the shard's stamper answers: not a member that follows another or —
// while nobody has stamped — is not the round's first, not a c = 1 standby,
// not a primary that has not established its round.
func TestSkipHintOnlyTheStamperAnswers(t *testing.T) {
	eachC(t, func(t *testing.T, c int) {
		cl, shard1 := skipCluster(c, true)
		for _, co := range shard1[1:] {
			hint(co, 7)
			if s := stampedAt(co); s != 0 {
				t.Errorf("member %v (leading=%v) stamped %d slots on a hint, want 0", co.env.ID(), co.Leading(), s)
			}
		}
		if c > 1 {
			shard1[0].stamper = cl.Cfg.Coords[3] // the primary follows a peer
			hint(shard1[0], 7)
			if s := stampedAt(shard1[0]); s != 0 {
				t.Errorf("a member following %v stamped %d slots on a hint, want 0", shard1[0].stamper, s)
			}
		}
		_, unled := skipCluster(c, false)
		hint(unled[0], 7)
		if s := stampedAt(unled[0]); s != 0 {
			t.Errorf("a primary that does not lead stamped %d slots on a hint, want 0", s)
		}
	})
}

// Commands buffered at the stamper go first: the hint flushes them into the
// next free slot and skips only what is still unclaimed after that.
func TestSkipHintFlushesBufferedCommandsFirst(t *testing.T) {
	eachC(t, func(t *testing.T, c int) {
		cl, shard1 := skipCluster(c, true)
		co := shard1[0]
		holdInFlight(cl)
		submit(co, 0) // instance 1, stuck in flight
		// Two submissions and the hint arrive in one burst: the hint finds
		// them buffered.
		co.OnMessage(7, ingressSub(1))
		co.OnMessage(7, ingressSub(2))
		hint(co, 7)
		if s, f := stampedAt(co), filledAt(co); s != 4 || f != 2 {
			t.Fatalf("stamped %d slots, %d of them fills; want 4 and 2 (instance 3 takes the buffered pair)", s, f)
		}
		if got := batchLen(co.proposals[3]); got != 2 {
			t.Errorf("instance 3 carries %d commands, want the 2 that were buffered", got)
		}
		for _, inst := range []uint64{5, 7} {
			if got := co.proposals[inst]; !got.Equal(Noop(inst)) {
				t.Errorf("instance %d holds %v, want the no-op", inst, got)
			}
		}
	})
}
