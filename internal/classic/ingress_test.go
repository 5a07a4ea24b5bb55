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

// ingressSub is client 7's i-th unsequenced submission; the request counter
// doubles as the command ID.
func ingressSub(i int) msg.Propose {
	id := uint64(1 + i)
	return msg.Propose{Cmd: cstruct.Cmd{ID: id, Key: "user42"}, Client: 7, Req: id}
}

// submit delivers client 7's i-th submission to co, a burst of its own.
func submit(co *Coordinator, i int) { burst(co, i, 1) }

// burst delivers client 7's submissions from..from+n−1 to co in one burst.
func burst(co *Coordinator, from, n int) {
	subs := make([]msg.Message, n)
	for i := range subs {
		subs[i] = ingressSub(from + i)
	}
	deliver(co, 7, subs...)
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

// Below a batch's worth of demand, the end of every burst stamps what it holds,
// instances in flight or not: holding a command behind the pipeline would cost
// it a round trip and save nothing, since its batch could not fill. Each lone
// submission gets an instance of its own, and a burst that keeps the demand
// below BatchMax is one instance, stamped in the step that delivered it.
func TestBelowABatchStampsAtOnce(t *testing.T) {
	eachC(t, func(t *testing.T, c int) {
		cl, co := ingressCluster(c, true)
		submit(co, 0)
		submit(co, 1)
		if got := stampedAt(co); got != 2 || co.Inflight() != 2 {
			t.Fatalf("stamped %d slots, %d in flight; want 2 and 2: the second submission goes beside the first", got, co.Inflight())
		}
		burst(co, 2, ingMax-3)
		if got := stampedAt(co); got != 3 {
			t.Fatalf("a burst bringing demand to %d stamped %d slots in all, want 3", ingMax-1, got)
		}
		cl.Sim.Run()
		if a, b, c := batchLen(cl.LearnedCmds[0]), batchLen(cl.LearnedCmds[1]), batchLen(cl.LearnedCmds[2]); a != 1 || b != 1 || c != ingMax-3 {
			t.Fatalf("instances carry %d, %d and %d commands, want 1, 1 and %d", a, b, c, ingMax-3)
		}
	})
}

// From a batch's worth of demand up, the pipeline is the batch clock: a
// partial batch waits while instances are in flight — for size, for the learn
// that empties the pipeline, long before the timer (set here to ten round
// trips), or for a client's retry of a command still buffered.
func TestPipelineIsTheBatchClock(t *testing.T) {
	eachC(t, func(t *testing.T, c int) {
		cl, co := ingressCluster(c, true)
		co.IngressBatchWait = 20
		base := cl.Sim.Now()
		burst(co, 0, ingMax) // a full batch, by size
		submit(co, ingMax)
		submit(co, ingMax+1)
		if got := stampedAt(co); got != 1 {
			t.Fatalf("with a batch in flight, %d slots stamped, want 1: the partial batch waits", got)
		}
		burst(co, ingMax+2, ingMax-2)
		if got := stampedAt(co); got != 2 {
			t.Fatalf("%d slots stamped once the waiting batch filled, want 2", got)
		}
		submit(co, 2*ingMax)
		cl.Sim.RunWhile(func() bool { return stampedAt(co) < 3 })
		if now := cl.Sim.Now(); now != cl.LearnTime[1] || now >= base+co.IngressBatchWait {
			t.Fatalf("third slot stamped at t=%d; want the learn that emptied the pipeline at t=%d, before the timer at t=%d",
				now, cl.LearnTime[1], base+co.IngressBatchWait)
		}
		cl.Sim.Run()
		if a, b, c := batchLen(cl.LearnedCmds[0]), batchLen(cl.LearnedCmds[1]), batchLen(cl.LearnedCmds[2]); a != ingMax || b != ingMax || c != 1 {
			t.Fatalf("instances carry %d, %d and %d commands, want %d, %d and 1", a, b, c, ingMax, ingMax)
		}

		holdInFlight(cl)
		burst(co, 20, ingMax) // stamped by size, then stuck in flight
		submit(co, 30)
		if got := stampedAt(co); got != 4 {
			t.Fatalf("stamped %d slots, want 4: command 30 waits behind a batch in flight", got)
		}
		submit(co, 30) // the client's retry
		if got := stampedAt(co); got != 5 {
			t.Fatalf("retry of a buffered command left %d slots stamped, want 5", got)
		}
	})
}

// An early stamp — before size or the timer — needs all of: leading, room in
// the window, a flush timer.
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
// the bound: a command buffered behind a stuck batch is stamped exactly
// BatchWait ticks after it arrived.
func TestBatchWaitBackstopWhenPipelineStuck(t *testing.T) {
	eachC(t, func(t *testing.T, c int) {
		cl, co := ingressCluster(c, true)
		holdInFlight(cl)
		base := cl.Sim.Now()
		burst(co, 0, ingMax)
		cl.Sim.RunUntil(base + 1)
		submit(co, ingMax)
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
// for the batch's own deadline. Batch 1 waits behind a full batch in flight,
// arms its timer at the end of its burst, fills by size in the next and leaves
// the timer pending; batch 2 opens at t = 1; the pending timer fires at
// t = BatchWait on a batch one tick too young. Batch 2 must stamp at
// 1 + BatchWait, not a full BatchWait after that firing.
func TestIngressTimerArmsForBatchDeadline(t *testing.T) {
	eachC(t, func(t *testing.T, c int) {
		cl, co := ingressCluster(c, true)
		holdInFlight(cl)
		base := cl.Sim.Now()
		burst(co, 0, ingMax) // stamped by size; in flight from here on
		submit(co, ingMax)
		burst(co, ingMax+1, ingMax-1)
		if got := stampedAt(co); got != 2 {
			t.Fatalf("stamped %d slots at t=0, want 2 (two full batches)", got)
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
// a stamping member of a group of three, over client-stamped command IDs
// (CmdID, as a deployment's clients stamp them): buffer, pack, stamp, index,
// forward, share.
func BenchmarkIngressStampBatch(b *testing.B) {
	cfg := NewCluster(ClusterOpts{NAcceptors: 3, F: 1, Seed: 1, CoordsPerShard: 3}).Cfg
	co := NewCoordinator(discardEnv{}, cfg)
	co.IngressBatchMax = ingMax
	co.leading = true
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		for range ingMax {
			sub := ingressSub(i)
			sub.Cmd.ID = CmdID(sub.Client, sub.Req)
			deliver(co, sub.Client, sub)
			i++
		}
		co.OnMessage(300, msg.P2b{Inst: co.seqInst(uint64(i/ingMax - 1))})
	}
	if got := stampedAt(co); got != uint64(i/ingMax) {
		b.Fatalf("stamped %d slots for %d submissions", got, i)
	}
}
