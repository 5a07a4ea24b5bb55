package smr

import (
	"fmt"
	"testing"

	"mcpaxos/internal/batch"
	"mcpaxos/internal/core"
	"mcpaxos/internal/cstruct"
)

func TestReplicaUnpacksBatch(t *testing.T) {
	r := NewReplica(NewKVStore())
	cmds := []cstruct.Cmd{
		SetCmd(1, "a", "1"),
		SetCmd(2, "b", "2"),
		DelCmd(3, "a"),
	}
	b := batch.Pack(cmds)
	if res := r.ApplyOnce(b); res != "batch:3" {
		t.Fatalf("batch apply = %q", res)
	}
	if r.Applied() != 3 {
		t.Fatalf("Applied = %d, want 3 constituents", r.Applied())
	}
	kv := r.Machine().(*KVStore)
	if _, ok := kv.Get("a"); ok {
		t.Errorf("del inside batch not applied")
	}
	if v, _ := kv.Get("b"); v != "2" {
		t.Errorf("set inside batch not applied: %q", v)
	}
	// Constituent results are cached under their own IDs.
	if res, ok := r.Result(2); !ok || res != "ok" {
		t.Errorf("constituent result = %q/%v", res, ok)
	}
	// Re-applying the batch or a constituent is a no-op.
	r.ApplyOnce(b)
	r.ApplyOnce(cmds[0])
	if r.Applied() != 3 {
		t.Errorf("reapply changed Applied: %d", r.Applied())
	}
}

func TestReplicaBatchConstituentDedup(t *testing.T) {
	r := NewReplica(NewBank())
	dep := DepositCmd(1, "acct", 10)
	// The command arrives solo first, then again inside a batch: it must
	// apply exactly once.
	r.ApplyOnce(dep)
	r.ApplyOnce(batch.Pack([]cstruct.Cmd{dep, DepositCmd(2, "acct", 5)}))
	if got := r.Machine().(*Bank).Balance("acct"); got != 15 {
		t.Errorf("balance = %d, want 15", got)
	}
}

// TestReplicatedBatchedKVConvergence drives batch commands through a full
// multicoordinated deployment: replicas must converge to the same state a
// command-at-a-time deployment reaches. Every batch carries batch.Key, so the
// key-based relation orders the batches totally.
func TestReplicatedBatchedKVConvergence(t *testing.T) {
	cl := core.NewCluster(core.ClusterOpts{
		NCoords: 3, NAcceptors: 3, F: 1, Seed: 1, NLearners: 3,
		Set: cstruct.NewHistorySet(cstruct.KeyConflict),
	})
	replicas := make([]*Replica, len(cl.Learners))
	for i, id := range cl.Cfg.Learners {
		replicas[i] = NewReplica(NewKVStore())
		l := core.NewLearner(cl.Sim.Env(id), cl.Cfg, replicas[i].UpdateFn())
		cl.Sim.Register(id, l)
		cl.Learners[i] = l
	}
	cl.Start(0)

	const n, batchSize = 32, 8
	ref := NewKVStore()
	var pending []cstruct.Cmd
	for i := 0; i < n; i++ {
		c := SetCmd(uint64(1+i), fmt.Sprintf("k%d", i%5), fmt.Sprintf("v%d", i))
		ref.Apply(c)
		pending = append(pending, c)
		if len(pending) == batchSize {
			cl.Props[0].Propose(batch.Pack(pending))
			pending = nil
			cl.Sim.Run()
		}
	}
	if replicas[0].Applied() != n {
		t.Fatalf("replica 0 applied %d/%d", replicas[0].Applied(), n)
	}
	want := ref.Snapshot()
	for i, r := range replicas {
		if got := r.Machine().Snapshot(); got != want {
			t.Errorf("replica %d state:\n  %s\nwant:\n  %s", i, got, want)
		}
	}
}
