package mcpaxos

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"mcpaxos/internal/classic"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/faults"
	"mcpaxos/internal/linearize"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/nemesis"
	"mcpaxos/internal/smr"
)

// This file implements E14, the nemesis experiment: the full
// multicoordinated sharded deployment of E13 run under an adversarial
// network — randomized partitions, asymmetric cuts, coordinator and
// acceptor crashes, loss bursts, dup storms and reorder windows, all
// seed-deterministic — while closed-loop clients drive a mixed get/set/del
// workload through consensus. Every invocation and response is recorded.
// The claim under test is the paper's own (Section 2.1.1): safety holds
// under arbitrary loss, duplication and reordering, and liveness returns
// when the network calms down.
//
// The file also holds what E14 shares with the live run (live_nemesis.go):
// nemesisCmd maps a workload op to its command and history kind, kvResult
// parses an apply result, enact plays one schedule event, and
// verdict.judge is the one judge — every order a prefix of the longest and
// duplicate-free, every acked command in each judged order, an unresolved
// write kept only if the longest order applied it, and a linearizable
// history — keeping the first failure. E14 judges learner 0's merged order
// and adds its own rules: every op resolves, the merger drains, and learner
// 1 agrees with learner 0 on every instance both learned.

// E14Shards is the shard count of the nemesis deployment.
const E14Shards = 2

// E14CoordsPerShard is the coordinator group size per shard: 3 masks one
// coordinator crash per group, so the schedule's crash budget is nonzero.
const E14CoordsPerShard = 3

// E14Row is the outcome of one nemesis run.
type E14Row struct {
	// Seed reproduces the run exactly: workload, schedule and network dice.
	Seed int64
	// Ops is the number of client operations completed; Instances the
	// consensus instances merged.
	Ops, Instances int
	// FaultEvents is the number of schedule events enacted.
	FaultEvents int
	// Msgs counts protocol messages sent; SimSteps the simulated duration.
	Msgs     uint64
	SimSteps int64
	// Net is the injector's accounting of what the network did.
	Net faults.Stats
	// Ok reports a clean run; Failure says what broke otherwise.
	Ok      bool
	Failure string
}

// RunE14One executes one seed of the nemesis experiment in the simulator:
// clients closed-loop clients each issuing opsPerClient operations while
// the schedule generated from the same seed attacks the network.
func RunE14One(seed int64, clients, opsPerClient int) E14Row {
	if opsPerClient%E14Shards != 0 {
		// Per-client shard alternation balances the residue classes only for
		// even op counts; an imbalance would leave the merger gapped forever.
		opsPerClient++
	}
	workload := nemesis.Workload(seed, nemesis.WorkloadOpts{
		Clients: clients, OpsPerClient: opsPerClient, Keys: 4,
	})
	total := clients * opsPerClient

	rep := smr.NewReplica(smr.NewKVStore())
	hist := &linearize.History{}
	var (
		cl       *classic.Cluster
		order    []uint64
		acked    []uint64
		pending  = make(map[uint64]int) // cmd ID → history index
		nextOp   = make(map[uint64]int) // cmd ID → client to continue
		progress = make([]int, clients)
		nextSeq  = make([]uint64, E14Shards)
		submit   func(c int)
	)
	m := smr.NewMerger(func(_ uint64, cmd cstruct.Cmd) {
		order = append(order, cmd.ID)
		res := rep.ApplyOnce(cmd)
		idx, ok := pending[cmd.ID]
		if !ok {
			return
		}
		delete(pending, cmd.ID)
		acked = append(acked, cmd.ID)
		out, found := kvResult(res)
		// The response reaches the client one step after the learn.
		hist.Resolve(idx, out, found, cl.Sim.Now()+1)
		c := nextOp[cmd.ID]
		delete(nextOp, cmd.ID)
		cl.Sim.After(1, func() { submit(c) })
	})
	cl = classic.NewCluster(classic.ClusterOpts{
		NCoords:        E14Shards * E14CoordsPerShard,
		NAcceptors:     3,
		F:              1,
		NLearners:      2,
		Seed:           seed,
		RetryEvery:     16,
		MaxInflight:    4,
		Shards:         E14Shards,
		CoordsPerShard: E14CoordsPerShard,
		OnLearn:        func(inst uint64, cmd cstruct.Cmd) { m.Add(inst, cmd) },
	})
	cl.LeadAll()

	submit = func(c int) {
		i := progress[c]
		if i >= len(workload[c]) {
			return
		}
		progress[c]++
		op := workload[c][i]
		id := uint64(c+1)<<32 | uint64(i)
		shard := (c + i) % E14Shards
		seq := nextSeq[shard]
		nextSeq[shard]++
		cmd, kind := nemesisCmd(id, op)
		pending[id] = hist.Invoke(uint64(c), kind, op.Key, op.Value, cl.Sim.Now())
		nextOp[id] = c
		cl.Prop.ProposeSeq(shard, seq, cmd)
	}

	// The adversary: a fresh injector stream plus the schedule derived from
	// the same seed, both independent of the protocol's own dice.
	inj := faults.New(seed + 1)
	cl.Sim.SetFaults(inj)
	topo := nemesis.Topology{
		Proposers: []msg.NodeID{1},
		Coords: [][]msg.NodeID{
			cl.Cfg.ShardCoords(0), cl.Cfg.ShardCoords(1),
		},
		Acceptors: cl.Cfg.Acceptors,
		Learners:  cl.Cfg.Learners,
		F:         1,
	}
	horizon := int64(total) * 8
	// The sim runs the widened repertoire minus learner kills: the sim
	// cluster's learners have no catch-up peers to rejoin through (that
	// path lives in the deploy layer), so killing one would wedge the
	// single merged history the checker reads.
	schedule := nemesis.ScheduleWith(seed, topo, horizon, nemesis.Options{
		QuorumPartition: true,
		ClockSkew:       true,
		KillPrimary:     true,
		Background:      true,
	})
	for _, ev := range schedule {
		// A recovery is a real restart: an acceptor comes back from its disk,
		// a coordinator from nothing, and repairs.
		cl.Sim.At(cl.Sim.Now()+ev.At, func() { enact(inj, ev, cl.Sim.Crash, cl.Restart) })
	}

	start := cl.Sim.Now()
	for c := 0; c < clients; c++ {
		submit(c)
	}
	cl.Sim.Run()

	row := E14Row{
		Seed:        seed,
		Ops:         rep.Applied(),
		Instances:   int(m.Delivered()),
		FaultEvents: len(schedule),
		Msgs:        cl.Sim.Metrics().TotalSent(),
		SimSteps:    cl.Sim.Now() - start,
		Net:         inj.Stats(),
	}
	var v verdict
	if n := hist.Unresolved(); n != 0 {
		v.fail("%d ops never resolved after quiescence", n)
	}
	if rep.Applied() != total {
		v.fail("applied %d of %d ops", rep.Applied(), total)
	}
	if m.Buffered() != 0 {
		v.fail("merger stranded %d instances", m.Buffered())
	}
	// Learner 1 is judged only where it learned: nothing retransmits to it
	// once learner 0 quiesced the stream, so its order may have holes.
	v.agree(cl.LearnedCmds, cl.Learners[1].Learned)
	v.judge(hist, []uint32{uint32(cl.Cfg.Learners[0])}, [][]uint64{order}, acked, pending)
	row.Ok, row.Failure = v.failure == "", v.failure
	return row
}

// RunE14 sweeps seeds seed, seed+1, … seed+n−1 through the nemesis
// experiment and returns one row per seed.
func RunE14(seed int64, n, clients, opsPerClient int) []E14Row {
	rows := make([]E14Row, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, RunE14One(seed+int64(i), clients, opsPerClient))
	}
	return rows
}

// nemesisCmd maps a workload op to the command that carries it, under ID id
// (0 lets a live client stamp its own), and to the kind the history records.
func nemesisCmd(id uint64, op nemesis.Op) (cstruct.Cmd, linearize.Kind) {
	switch op.Kind {
	case nemesis.OpSet:
		return smr.SetCmd(id, op.Key, op.Value), linearize.Set
	case nemesis.OpDel:
		return smr.DelCmd(id, op.Key), linearize.Del
	default:
		return smr.GetCmd(id, op.Key), linearize.Get
	}
}

// kvResult parses a KV apply result: "=<value>" is a found value, anything
// else (smr.KVMissing, a write's "ok") none.
func kvResult(res string) (val string, found bool) {
	if strings.HasPrefix(res, "=") {
		return res[1:], true
	}
	return "", false
}

// enact plays one schedule event: the injector takes the network faults,
// crash and restart the node faults.
func enact(inj *faults.Faults, ev nemesis.Event, crash, restart func(msg.NodeID)) {
	if nemesis.Apply(inj, ev) {
		return
	}
	switch ev.Kind {
	case nemesis.FaultCrash:
		crash(ev.Node)
	case nemesis.FaultRecover:
		restart(ev.Node)
	}
}

// verdict is the judgement of one nemesis run: the first rule it broke, or
// "" for a clean run.
type verdict struct{ failure string }

func (v *verdict) fail(f string, args ...any) {
	if v.failure == "" {
		v.failure = fmt.Sprintf(f, args...)
	}
}

// agree is E14's learner-agreement rule: wherever other learned an instance
// at all, it learned a value Equal to what learned holds. Instances are
// checked in order, so a run with several disagreements reports the lowest.
func (v *verdict) agree(learned map[uint64]cstruct.Cmd, other func(inst uint64) (cstruct.Cmd, bool)) {
	for _, inst := range slices.Sorted(maps.Keys(learned)) {
		if o, ok := other(inst); ok && !o.Equal(learned[inst]) {
			l := learned[inst]
			v.fail("learners disagree on instance %d: %v %q vs %v %q", inst, l, l.Payload, o, o.Payload)
		}
	}
}

// judge applies the rules both clocks share to a finished run. orders[i] is
// learner learners[i]'s merged order, acked the commands whose reply
// arrived, and unresolved the history index of every op that drew none, by
// command ID. The orders must be prefixes of the longest, with no command
// twice, and hold every acked command. An unresolved read constrains
// nothing and leaves the history; an unresolved write stays (Ret = ∞) if
// the longest order applied it, and otherwise is proven side-effect-free
// and leaves. What remains must be linearizable. judge returns the longest
// order's length.
func (v *verdict) judge(hist *linearize.History, learners []uint32, orders [][]uint64, acked []uint64, unresolved map[uint64]int) int {
	li := 0
	for i, o := range orders {
		if len(o) > len(orders[li]) {
			li = i
		}
	}
	long := orders[li]
	in := make([]map[uint64]bool, len(orders))
	for i, o := range orders {
		for j, id := range o {
			if long[j] != id {
				v.fail("learner %d order diverges at position %d: %d vs %d", learners[i], j, long[j], id)
				break
			}
		}
		in[i] = make(map[uint64]bool, len(o))
		for _, id := range o {
			if in[i][id] {
				v.fail("learner %d merged command %d twice", learners[i], id)
			}
			in[i][id] = true
		}
	}
	for _, id := range acked {
		for i := range orders {
			if !in[i][id] {
				v.fail("acked command %d missing from learner %d's order", id, learners[i])
			}
		}
	}
	for id, idx := range unresolved {
		if hist.Op(idx).Kind == linearize.Get || !in[li][id] {
			hist.Discard(idx)
		}
	}
	if r := linearize.Check(hist.Ops()); !r.Ok {
		v.fail("history not linearizable (key %s): %s", r.Key, r.Info)
	}
	return len(long)
}
