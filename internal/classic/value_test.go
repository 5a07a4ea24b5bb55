package classic

import (
	"bytes"
	"math/rand"
	"testing"

	"mcpaxos/internal/batch"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
)

// Two batches headed by one command share their ID (batch.BatchID) but are
// two values. Member 100 stamps [x, y] at slot 1; its stamp shares to 101
// are lost, as are its and 102's first slot-1 2as to acceptor 202 and
// acceptor 201's slot-1 2b to learner 300. Member 101 then gets x, z and x
// again in one burst, takes over, and stamps [x, z] at slot 1 under the same
// ID. Acceptors 200 and 201 have voted [x, y], which learner 301 learns. If
// classic compares values by ID, acceptor 202 counts 102's re-sent [x, y] 2a
// as a match for 101's [x, z] and votes [x, z], and learner 300 counts that
// vote with 200's [x, y] and learns [x, z]: the learners diverge.
func TestBatchesHeadedByOneCommandAreTwoValues(t *testing.T) {
	cl := NewCluster(ClusterOpts{NAcceptors: 3, NLearners: 2, F: 1, Seed: 71,
		MaxInflight: 8, CoordsPerShard: 3})
	for _, co := range cl.Coords {
		co.IngressBatchMax, co.IngressBatchWait = ingMax, ingWait
	}
	cl.LeadAll()
	warmUp(t, cl)

	const slot = 1
	lost102 := false
	cl.Sim.SetDrop(func(from, to msg.NodeID, m msg.Message, _ *rand.Rand) bool {
		switch mm := m.(type) {
		case msg.Propose:
			return mm.HasSeq && from == 100 && to == 101
		case msg.P2a:
			if mm.Inst != slot || to != 202 {
				return false
			}
			if from == 102 {
				first := !lost102
				lost102 = true
				return first
			}
			return from == 100
		case msg.P2b:
			return mm.Inst == slot && from == 201 && to == 300
		}
		return false
	})
	x, y, z := relayCmd(7, 1), relayCmd(7, 2), relayCmd(8, 1)
	sub := func(c cstruct.Cmd) msg.Message { return msg.Propose{Cmd: c} }
	deliver(cl.Coords[0], 7, sub(x), sub(y))
	cl.Sim.Run()
	deliver(cl.Coords[1], 7, sub(x), sub(z), sub(x))
	cl.Sim.Run()

	a, okA := cl.Learners[0].Learned(slot)
	b, okB := cl.Learners[1].Learned(slot)
	if !okA || !okB {
		t.Fatalf("instance %d learned at learner 300: %v, at 301: %v; want both", slot, okA, okB)
	}
	// The payload comparison keeps this test red should Cmd.Equal ever
	// compare IDs alone again: the equality under test cannot judge itself.
	if !a.Equal(b) || !bytes.Equal(a.Payload, b.Payload) {
		t.Fatalf("learners disagree on instance %d:\n 300 learned %d % x\n 301 learned %d % x",
			slot, a.ID, a.Payload, b.ID, b.Payload)
	}
}

// prefer is a total order over values: of two values exactly one beats the
// other unless they are Equal, so a group's members always converge on one.
func TestPreferOrdersDistinctValues(t *testing.T) {
	x, y := relayCmd(7, 1), relayCmd(7, 2)
	vals := []cstruct.Cmd{
		x, y, Noop(1), Noop(2),
		batch.Pack([]cstruct.Cmd{x, y}), batch.Pack([]cstruct.Cmd{x, relayCmd(8, 1)}),
		{ID: x.ID, Key: x.Key, Op: cstruct.OpRead}, {ID: x.ID, Key: "j", Op: x.Op},
		{ID: x.ID, Key: x.Key, Op: x.Op, Payload: []byte{}},
	}
	for _, a := range vals {
		for _, b := range vals {
			if got, want := prefer(a, b) || prefer(b, a), !a.Equal(b); got != want {
				t.Errorf("prefer(%v, %v) or its converse = %v, want %v", a, b, got, want)
			}
			if prefer(a, b) && prefer(b, a) {
				t.Errorf("%v and %v each beat the other", a, b)
			}
		}
	}
}
