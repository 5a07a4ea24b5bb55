package smr

import (
	"fmt"
	"testing"

	"mcpaxos/internal/core"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/snapshot"
)

func TestKVStoreOps(t *testing.T) {
	kv := NewKVStore()
	if res := kv.Apply(SetCmd(1, "a", "1")); res != "ok" {
		t.Fatalf("set: %s", res)
	}
	if v, ok := kv.Get("a"); !ok || v != "1" {
		t.Fatalf("get a = %q/%v", v, ok)
	}
	kv.Apply(SetCmd(2, "b", "2"))
	if kv.Len() != 2 {
		t.Errorf("len = %d", kv.Len())
	}
	kv.Apply(DelCmd(3, "a"))
	if _, ok := kv.Get("a"); ok {
		t.Errorf("delete failed")
	}
	if res := kv.Apply(cstruct.Cmd{ID: 4, Key: "x"}); res != "err:empty" {
		t.Errorf("empty payload: %s", res)
	}
	if res := kv.Apply(cstruct.Cmd{ID: 5, Key: "x", Payload: []byte{99}}); res != "err:opcode" {
		t.Errorf("bad opcode: %s", res)
	}
}

func TestKVSnapshotDeterministic(t *testing.T) {
	a, b := NewKVStore(), NewKVStore()
	a.Apply(SetCmd(1, "x", "1"))
	a.Apply(SetCmd(2, "y", "2"))
	b.Apply(SetCmd(2, "y", "2"))
	b.Apply(SetCmd(1, "x", "1"))
	if a.Snapshot() != b.Snapshot() {
		t.Errorf("snapshots differ for commuting applies: %q vs %q", a.Snapshot(), b.Snapshot())
	}
}

func TestBankOps(t *testing.T) {
	bank := NewBank()
	if res := bank.Apply(DepositCmd(1, "alice", 100)); res != "ok" {
		t.Fatalf("deposit: %s", res)
	}
	if res := bank.Apply(WithdrawCmd(2, "alice", 150)); res != "err:funds" {
		t.Errorf("overdraft allowed: %s", res)
	}
	if res := bank.Apply(WithdrawCmd(3, "alice", 60)); res != "ok" {
		t.Errorf("withdraw: %s", res)
	}
	if got := bank.Balance("alice"); got != 40 {
		t.Errorf("balance = %d, want 40", got)
	}
	if res := bank.Apply(cstruct.Cmd{ID: 9, Key: "x", Payload: []byte{1}}); res != "err:payload" {
		t.Errorf("short payload: %s", res)
	}
}

func TestBankDepositsCommute(t *testing.T) {
	a, b := NewBank(), NewBank()
	d1, d2 := DepositCmd(1, "acct", 10), DepositCmd(2, "acct", 20)
	a.Apply(d1)
	a.Apply(d2)
	b.Apply(d2)
	b.Apply(d1)
	if a.Snapshot() != b.Snapshot() {
		t.Errorf("deposit order changed the state")
	}
}

func TestReplicaAppliesOnce(t *testing.T) {
	r := NewReplica(NewKVStore())
	c := SetCmd(1, "k", "v")
	first := r.ApplyOnce(c)
	second := r.ApplyOnce(c)
	if first != "ok" || second != "ok" {
		t.Errorf("results: %q %q", first, second)
	}
	if r.Applied() != 1 {
		t.Errorf("Applied = %d, want 1", r.Applied())
	}
	if res, ok := r.Result(1); !ok || res != "ok" {
		t.Errorf("Result = %q/%v", res, ok)
	}
}

// Installing a snapshot is one step: the machine takes the snapshot's state,
// the order becomes the snapshot's, and every command in it counts as applied
// with the snapshot's result — a re-learn above the frontier is deduplicated,
// not re-applied.
func TestReplicaInstall(t *testing.T) {
	src := NewKVStore()
	src.Apply(SetCmd(1, "k", "v1"))
	src.Apply(SetCmd(2, "k", "v2"))
	snap := snapshot.Snapshot{Frontier: 2, State: src.MarshalState(), Order: []uint64{1, 2},
		Replies: []snapshot.Reply{{CmdID: 2, Inst: 1, Result: "first"}}}

	kv := NewKVStore()
	r := NewReplica(kv)
	r.ApplyOnce(SetCmd(1, "k", "v1")) // applied here before falling behind
	if err := r.Install(snap); err != nil {
		t.Fatalf("install: %v", err)
	}
	if r.Applied() != 2 || fmt.Sprint(r.Order()) != "[1 2]" {
		t.Fatalf("after install: applied %d, order %v; want 2 and [1 2]", r.Applied(), r.Order())
	}
	if v, _ := kv.Get("k"); v != "v2" {
		t.Fatalf("machine holds k=%q, want the snapshot's v2", v)
	}
	if res := r.ApplyOnce(SetCmd(2, "k", "v3")); res != "first" {
		t.Fatalf("re-learned command 2 answered %q, want the snapshot's result", res)
	}
	if v, _ := kv.Get("k"); v != "v2" || r.Applied() != 2 {
		t.Fatalf("re-learn reached the machine: k=%q, applied %d", v, r.Applied())
	}
	if res, _ := r.Result(1); res != "ok" {
		t.Errorf("command 1 applied here has result %q after install, want its own %q", res, "ok")
	}

	bad := snap
	bad.State = []byte{0xff}
	if err := NewReplica(NewKVStore()).Install(bad); err == nil {
		t.Error("a state the machine refuses was installed")
	}
}

// TestReplicatedKVConvergence runs a full multicoordinated deployment with
// replicas attached to every learner and checks state convergence.
func TestReplicatedKVConvergence(t *testing.T) {
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
	const n = 25
	for i := 0; i < n; i++ {
		cl.Props[0].Propose(SetCmd(uint64(1+i), fmt.Sprintf("k%d", i%5), fmt.Sprintf("v%d", i)))
		cl.Sim.Run()
	}
	ref := replicas[0].Machine().Snapshot()
	if replicas[0].Applied() != n {
		t.Fatalf("replica 0 applied %d/%d", replicas[0].Applied(), n)
	}
	for i, r := range replicas[1:] {
		if got := r.Machine().Snapshot(); got != ref {
			t.Errorf("replica %d diverged:\n  %s\n  %s", i+1, got, ref)
		}
	}
}

// TestReplicatedBankConcurrentProposers checks convergence under concurrent
// per-account traffic from several proposers.
func TestReplicatedBankConcurrentProposers(t *testing.T) {
	cl := core.NewCluster(core.ClusterOpts{
		NCoords: 3, NAcceptors: 5, F: 1, E: 1, Seed: 2, NLearners: 2, NProposers: 2,
		Set: cstruct.NewHistorySet(cstruct.KeyConflict),
	})
	replicas := make([]*Replica, len(cl.Learners))
	for i, id := range cl.Cfg.Learners {
		replicas[i] = NewReplica(NewBank())
		l := core.NewLearner(cl.Sim.Env(id), cl.Cfg, replicas[i].UpdateFn())
		cl.Sim.Register(id, l)
		cl.Learners[i] = l
	}
	cl.Start(0)
	id := uint64(1)
	for round := 0; round < 10; round++ {
		cl.Props[0].Propose(DepositCmd(id, "alice", 10))
		id++
		cl.Props[1].Propose(DepositCmd(id, "bob", 5))
		id++
		cl.Sim.Run()
	}
	if replicas[0].Machine().Snapshot() != replicas[1].Machine().Snapshot() {
		t.Fatalf("bank replicas diverged: %q vs %q",
			replicas[0].Machine().Snapshot(), replicas[1].Machine().Snapshot())
	}
	bank := replicas[0].Machine().(*Bank)
	if bank.Balance("alice") != 100 || bank.Balance("bob") != 50 {
		t.Errorf("balances wrong: alice=%d bob=%d", bank.Balance("alice"), bank.Balance("bob"))
	}
}

func TestReplicaOrderRespectsConflicts(t *testing.T) {
	cl := core.NewCluster(core.ClusterOpts{
		NCoords: 3, NAcceptors: 3, F: 1, Seed: 1, NLearners: 2,
		Set: cstruct.NewHistorySet(cstruct.AlwaysConflict),
	})
	replicas := make([]*Replica, len(cl.Learners))
	for i, id := range cl.Cfg.Learners {
		replicas[i] = NewReplica(NewKVStore())
		l := core.NewLearner(cl.Sim.Env(id), cl.Cfg, replicas[i].UpdateFn())
		cl.Sim.Register(id, l)
		cl.Learners[i] = l
	}
	cl.Start(0)
	for i := 0; i < 10; i++ {
		cl.Props[0].Propose(SetCmd(uint64(1+i), "k", fmt.Sprintf("v%d", i)))
		cl.Sim.Run()
	}
	a, b := replicas[0].Order(), replicas[1].Order()
	if len(a) != 10 || len(b) != 10 {
		t.Fatalf("orders incomplete: %v %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("total order diverged: %v vs %v", a, b)
		}
	}
}

func TestKVGetReadsThroughTheMachine(t *testing.T) {
	kv := NewKVStore()
	if got := kv.Apply(GetCmd(1, "x")); got != KVMissing {
		t.Fatalf("get of a missing key = %q, want %q", got, KVMissing)
	}
	kv.Apply(SetCmd(2, "x", "v1"))
	if got := kv.Apply(GetCmd(3, "x")); got != "=v1" {
		t.Fatalf("get = %q, want %q", got, "=v1")
	}
	kv.Apply(DelCmd(4, "x"))
	if got := kv.Apply(GetCmd(5, "x")); got != KVMissing {
		t.Fatalf("get after delete = %q, want %q", got, KVMissing)
	}
}
