package classic

import (
	"math/rand"
	"testing"

	"mcpaxos/internal/batch"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
)

// Ingress batching on the simulator clock: the primary packs up to ingMax
// submissions per slot and holds a partial batch for at most ingWait ticks.
const (
	ingMax  = 8
	ingWait = 2
)

// ingressCluster builds a cluster whose primary batches at its ingress and,
// unless lead is false, has established its round.
func ingressCluster(c int, lead bool) (*Cluster, *Coordinator) {
	cl := NewCluster(ClusterOpts{NAcceptors: 3, F: 1, Seed: 1, MaxInflight: 8, CoordsPerShard: c})
	co := cl.Coords[0]
	co.IngressBatchMax, co.IngressBatchWait = ingMax, ingWait
	if lead {
		cl.Lead(0)
	}
	return cl, co
}

// submit delivers client 7's i-th unsequenced submission to co; the request
// counter doubles as the command ID.
func submit(co *Coordinator, i int) {
	id := uint64(1 + i)
	co.OnMessage(7, msg.Propose{Cmd: cstruct.Cmd{ID: id, Key: "user42"}, Client: 7, Req: id})
}

func stampedAt(co *Coordinator) uint64 {
	s, _, _ := co.IngressCounts()
	return s
}

// holdInFlight drops every 2b: whatever is forwarded stays unlearned.
func holdInFlight(cl *Cluster) {
	cl.Sim.SetDrop(func(_, _ msg.NodeID, m msg.Message, _ *rand.Rand) bool {
		_, is2b := m.(msg.P2b)
		return is2b
	})
}

// batchLen is how many client commands a learned value carries.
func batchLen(cmd cstruct.Cmd) int {
	if inner, ok := batch.Unpack(cmd); ok {
		return len(inner)
	}
	return 1
}

// A lone submission to an idle, leading primary spends zero ticks in the
// batcher: it is stamped and forwarded by the step that delivered it.
func TestQuietShardStampsLoneSubmissionAtOnce(t *testing.T) {
	eachC(t, func(t *testing.T, c int) {
		cl, co := ingressCluster(c, true)
		submit(co, 0)
		if got := stampedAt(co); got != 1 {
			t.Fatalf("stamped %d slots in the delivering step, want 1", got)
		}
		if co.Inflight() != 1 {
			t.Fatalf("inflight = %d, want the stamped instance forwarded", co.Inflight())
		}
		cl.Sim.Run()
		if got, ok := cl.LearnedCmds[0]; !ok || got.ID != 1 {
			t.Fatalf("instance 0: learned %v/%v, want command 1", got, ok)
		}
	})
}

// The pipeline is the batch clock: submissions arriving while an instance is
// in flight are stamped together by the learn that empties the pipeline, and
// a multi-command batch changes nothing for what follows — the next lone
// submission finds the pipeline empty and is stamped by the step that
// delivers it.
func TestPipelineIsTheBatchClock(t *testing.T) {
	eachC(t, func(t *testing.T, c int) {
		cl, co := ingressCluster(c, true)
		submit(co, 0)
		submit(co, 1)
		submit(co, 2)
		if got := stampedAt(co); got != 1 {
			t.Fatalf("stamped %d slots with an instance in flight, want 1", got)
		}
		cl.Sim.RunWhile(func() bool { _, ok := cl.LearnedCmds[0]; return !ok })
		if got := stampedAt(co); got != 2 {
			t.Fatalf("stamped %d slots once the pipeline emptied, want 2 (the learn flushes)", got)
		}
		cl.Sim.Run()
		if got := batchLen(cl.LearnedCmds[1]); got != 2 {
			t.Fatalf("instance 1 carries %d commands, want the 2 buffered behind instance 0", got)
		}

		submit(co, 3)
		if got := stampedAt(co); got != 3 {
			t.Fatalf("stamped %d slots, want 3: a lone submission after a multi-command batch is stamped at once", got)
		}
		cl.Sim.Run()
		if got := len(cl.LearnedCmds); got != 3 {
			t.Fatalf("learned %d instances, want 3", got)
		}
	})
}

// A burst of BatchMax submissions delivered in one step to an idle shard
// splits at the pipeline: the first flies alone, the other seven are one
// instance, stamped by the learn of the first — long before the timer, set
// here to ten round trips — and a client's retry of a command still buffered
// forces the flush as before.
func TestBurstSplitsAtThePipeline(t *testing.T) {
	eachC(t, func(t *testing.T, c int) {
		cl, co := ingressCluster(c, true)
		co.IngressBatchWait = 20
		base := cl.Sim.Now()
		for i := 0; i < ingMax; i++ {
			submit(co, i)
		}
		if got := stampedAt(co); got != 1 {
			t.Fatalf("a burst of %d on an idle shard stamped %d slots in its step, want 1", ingMax, got)
		}
		cl.Sim.RunWhile(func() bool { return stampedAt(co) < 2 })
		if now := cl.Sim.Now(); now != cl.LearnTime[0] || now >= base+co.IngressBatchWait {
			t.Fatalf("second slot stamped at t=%d; want the learn of the first at t=%d, before the timer at t=%d",
				now, cl.LearnTime[0], base+co.IngressBatchWait)
		}
		cl.Sim.Run()
		if a, b := batchLen(cl.LearnedCmds[0]), batchLen(cl.LearnedCmds[1]); a != 1 || b != ingMax-1 {
			t.Fatalf("instances carry %d and %d commands, want 1 and %d", a, b, ingMax-1)
		}

		holdInFlight(cl)
		submit(co, 20) // stamped at once, then stuck in flight
		submit(co, 21)
		if got := stampedAt(co); got != 3 {
			t.Fatalf("stamped %d slots, want 3: command 21 waits behind the instance in flight", got)
		}
		submit(co, 21) // the client's retry
		if got := stampedAt(co); got != 4 {
			t.Fatalf("retry of a buffered command left %d slots stamped, want 4", got)
		}
	})
}

// The early stamp needs all of: leading, an empty pipeline, a flush timer.
func TestNoEarlyStampUnlessQuiet(t *testing.T) {
	eachC(t, func(t *testing.T, c int) {
		t.Run("not leading", func(t *testing.T) {
			cl, co := ingressCluster(c, false)
			submit(co, 0)
			if got := stampedAt(co); got != 0 {
				t.Fatalf("stamped %d slots before phase 1 completed", got)
			}
			cl.Sim.RunUntil(cl.Sim.Now() + ingWait)
			if got := stampedAt(co); got != 1 {
				t.Fatalf("stamped %d slots at BatchWait, want 1", got)
			}
		})
		t.Run("window full", func(t *testing.T) {
			cl, co := ingressCluster(c, true)
			co.MaxInflight = 1
			holdInFlight(cl)
			submit(co, 0)
			submit(co, 1)
			if got := stampedAt(co); got != 1 {
				t.Fatalf("stamped %d slots with the window full, want 1", got)
			}
		})
		t.Run("size only", func(t *testing.T) {
			cl, co := ingressCluster(c, true)
			co.IngressBatchWait = 0
			submit(co, 0)
			cl.Sim.Run()
			if got := stampedAt(co); got != 0 {
				t.Fatalf("size-only batching stamped %d slots for a partial batch", got)
			}
			for i := 1; i < ingMax; i++ {
				submit(co, i)
			}
			if got := stampedAt(co); got != 1 {
				t.Fatalf("stamped %d slots once the batch filled, want 1", got)
			}
		})
	})
}

// If the learn that would flush the buffer never comes, BatchWait is still
// the bound: a command buffered behind a stuck instance is stamped exactly
// BatchWait ticks after it arrived.
func TestBatchWaitBackstopWhenPipelineStuck(t *testing.T) {
	eachC(t, func(t *testing.T, c int) {
		cl, co := ingressCluster(c, true)
		holdInFlight(cl)
		base := cl.Sim.Now()
		submit(co, 0)
		cl.Sim.RunUntil(base + 1)
		submit(co, 1)
		cl.Sim.RunUntil(base + ingWait)
		if got := stampedAt(co); got != 1 {
			t.Fatalf("stamped %d slots one tick early, want 1", got)
		}
		cl.Sim.RunUntil(base + 1 + ingWait)
		if got := stampedAt(co); got != 2 {
			t.Fatalf("stamped %d slots at arrival + BatchWait, want 2", got)
		}
	})
}

// With the pipeline stuck, size and timer are the bounds that remain: a full
// BatchMax still flushes by size into the window, and the flush timer is armed
// for the batch's own deadline. Batch 1 fills by size at t = 0 and leaves its
// timer pending; batch 2 opens at t = 1; the
// pending timer fires at t = BatchWait on a batch one tick too young. Batch 2
// must stamp at 1 + BatchWait, not a full BatchWait after that firing.
func TestIngressTimerArmsForBatchDeadline(t *testing.T) {
	eachC(t, func(t *testing.T, c int) {
		cl, co := ingressCluster(c, true)
		holdInFlight(cl)
		base := cl.Sim.Now()
		submit(co, 0) // stamped at once; in flight from here on
		for i := 1; i <= ingMax; i++ {
			submit(co, i)
		}
		if got := stampedAt(co); got != 2 {
			t.Fatalf("stamped %d slots at t=0, want 2 (the lone command, then a full batch)", got)
		}
		cl.Sim.RunUntil(base + 1)
		submit(co, 100)
		cl.Sim.RunUntil(base + ingWait)
		if got := stampedAt(co); got != 2 {
			t.Fatalf("stamped %d slots at t=%d, want 2: batch 2 is one tick old", got, ingWait)
		}
		cl.Sim.RunUntil(base + 1 + ingWait)
		if got := stampedAt(co); got != 3 {
			t.Fatalf("stamped %d slots at t=%d, want 3: batch 2 opened at t=1", got, 1+ingWait)
		}
	})
}

// discardEnv is a node.Env whose effects vanish, isolating a coordinator's
// own work from the simulator's.
type discardEnv struct{}

func (discardEnv) ID() msg.NodeID               { return 100 }
func (discardEnv) Now() int64                   { return 0 }
func (discardEnv) Send(msg.NodeID, msg.Message) {}
func (discardEnv) SetTimer(int64, int)          {}

// BenchmarkIngressStampBatch prices one size-filled ingress batch of eight at
// a stamping member of a group of three whose host derives request keys from
// command IDs (as deploy does): buffer, pack, stamp, index, forward, share.
func BenchmarkIngressStampBatch(b *testing.B) {
	cfg := NewCluster(ClusterOpts{NAcceptors: 3, F: 1, Seed: 1, CoordsPerShard: 3}).Cfg
	co := NewCoordinator(discardEnv{}, cfg)
	co.IngressBatchMax = ingMax
	co.ReqOf = func(c cstruct.Cmd) (msg.NodeID, uint64, bool) { return 7, c.ID, true }
	co.leading = true
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		for range ingMax {
			submit(co, i)
			i++
		}
		co.MarkLearned(co.seqInst(uint64(i/ingMax - 1)))
	}
	if got := stampedAt(co); got != uint64(i/ingMax) {
		b.Fatalf("stamped %d slots for %d submissions", got, i)
	}
}
