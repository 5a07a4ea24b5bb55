package mcpaxos

import (
	"fmt"
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
// workload through consensus. Every invocation and response is recorded and
// the run is judged by a linearizability checker (internal/linearize) plus
// the structural invariants: every op resolves, learners never disagree on
// an instance, the merged order has no duplicates, and the merger drains.
// The claim under test is the paper's own (Section 2.1.1): safety holds
// under arbitrary loss, duplication and reordering, and liveness returns
// when the network calms down.

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
		out, found := "", false
		if strings.HasPrefix(res, "=") {
			out, found = res[1:], true
		}
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
		var (
			cmd  cstruct.Cmd
			kind linearize.Kind
		)
		switch op.Kind {
		case nemesis.OpSet:
			cmd, kind = smr.SetCmd(id, op.Key, op.Value), linearize.Set
		case nemesis.OpDel:
			cmd, kind = smr.DelCmd(id, op.Key), linearize.Del
		default:
			cmd, kind = smr.GetCmd(id, op.Key), linearize.Get
		}
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
		ev := ev
		cl.Sim.At(cl.Sim.Now()+ev.At, func() {
			if nemesis.Apply(inj, ev) {
				return
			}
			switch ev.Kind {
			case nemesis.FaultCrash:
				cl.Sim.Crash(ev.Node)
			case nemesis.FaultRecover:
				// A real restart: an acceptor comes back from its disk, a
				// coordinator from nothing, and repairs.
				cl.Restart(ev.Node)
			}
		})
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
		Ok:          true,
	}
	fail := func(f string, args ...any) {
		if row.Ok {
			row.Ok, row.Failure = false, fmt.Sprintf(f, args...)
		}
	}
	if n := hist.Unresolved(); n != 0 {
		fail("%d ops never resolved after quiescence", n)
	}
	if rep.Applied() != total {
		fail("applied %d of %d ops", rep.Applied(), total)
	}
	if m.Buffered() != 0 {
		fail("merger stranded %d instances", m.Buffered())
	}
	seen := make(map[uint64]bool, len(order))
	for _, id := range order {
		if seen[id] {
			fail("command %d merged twice", id)
		}
		seen[id] = true
	}
	// Learner agreement: every instance the passive learner decided must
	// match learner 0 (its completeness is not guaranteed — nothing
	// retransmits to a learner once learner 0 quiesced the stream).
	for inst, cmd := range cl.LearnedCmds {
		if other, ok := cl.Learners[1].Learned(inst); ok && other.ID != cmd.ID {
			fail("learners disagree on instance %d: %d vs %d", inst, cmd.ID, other.ID)
		}
	}
	if r := linearize.Check(hist.Ops()); !r.Ok {
		fail("history not linearizable (key %s): %s", r.Key, r.Info)
	}
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
