package mcpaxos

import (
	"fmt"

	"mcpaxos/internal/ballot"
	"mcpaxos/internal/batch"
	"mcpaxos/internal/classic"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/smr"
)

// This file implements E13, the multicoordinated-shards experiment: the
// paper's headline idea — a classic round served by several coordinators,
// acceptors accepting on a quorum of matching 2a forwards (Section 4.1) —
// composed with the scale machinery of E10–E12 (batching, pipelining, the
// sharded instance space). Each of the 2 shards is driven by a coordinator
// group of c members over the same batched, sequence-numbered stream; the
// sweep measures drain time and msgs/cmd for c ∈ {1, 3}, with and without
// killing one coordinator per shard mid-stream. The claim: under c = 3 the
// crash masks completely — the stream drains in the same rounds, zero round
// changes, identical merged order — where c = 1 pays a round change and a
// re-proposal stall, and the redundancy price is only the extra 2a/propose
// fan-out (~c× on those message types), not latency.

// E13Shards is the fixed shard count of the E13 sweep.
const E13Shards = 2

// E13Row is one sweep point of the multicoordinated-shards experiment.
type E13Row struct {
	// Mode names the configuration: c=<n> with an optional +crash.
	Mode string
	// CoordsPerShard is the coordinator group size per shard.
	CoordsPerShard int
	// Crash reports whether one group member per shard was killed
	// mid-stream.
	Crash bool
	// Commands is the number of client commands applied by the replica.
	Commands int
	// Instances is the number of consensus instances delivered in order.
	Instances int
	// Msgs counts every protocol message sent during the drain.
	Msgs uint64
	// SimSteps is the simulated time from first submission to quiescence
	// (communication steps under unit latency).
	SimSteps int64
	// MsgsPerCmd is Msgs per command.
	MsgsPerCmd float64
	// RoundChanges counts the shards whose serving round advanced past the
	// pre-drain baseline (observed at the acceptors) plus every
	// re-establishment a coordinator paid on top of its first: the
	// crash-masking claim is 0 under c = 3.
	RoundChanges int
	// Promotions counts collision-triggered acceptor promotions
	// (Section 4.2); conflict-free runs report 0.
	Promotions int
	// WritesPerInstPerAcc is the acceptors' synchronous disk writes during
	// the drain per instance per acceptor: the paper charges a
	// multicoordinated round what a classic one costs, 1 (Section 4.4).
	WritesPerInstPerAcc float64
	// Order is the merged total order of applied command IDs, for
	// order-equality checks across sweep points.
	Order []uint64
}

// RunE13One drains `commands` through 2 shards at the given group size,
// optionally killing one group member per shard mid-stream, and reports the
// drain accounting plus the merged delivery order.
func RunE13One(seed int64, commands, coordsPerShard int, crash bool, batchSize, window int) E13Row {
	shards := E13Shards
	nCoords := shards * coordsPerShard
	if coordsPerShard == 1 {
		// Single-coordinated shards need a standby per shard for the
		// post-crash failover that multicoordination makes unnecessary.
		nCoords = shards * 2
	}
	rep := smr.NewReplica(smr.NewKVStore())
	var order []uint64
	m := smr.NewMerger(func(_ uint64, cmd cstruct.Cmd) {
		if sub, ok := batch.Unpack(cmd); ok {
			for _, c := range sub {
				order = append(order, c.ID)
			}
		} else {
			order = append(order, cmd.ID)
		}
		rep.ApplyOnce(cmd)
	})
	cl := classic.NewCluster(classic.ClusterOpts{
		NCoords: nCoords, NAcceptors: 3, F: 1, Seed: seed,
		Shards: shards, CoordsPerShard: coordsPerShard, MaxInflight: window,
		OnLearn: func(inst uint64, cmd cstruct.Cmd) { m.Add(inst, cmd) },
	})
	m.OnRelease = func(upTo uint64) { cl.Learners[0].Release(upTo) }
	cl.LeadAll()

	base := make([]ballot.Ballot, shards)
	for k := range base {
		base[k] = cl.ShardRound(k)
	}
	cl.Sim.Metrics().Reset()
	for _, d := range cl.Disks {
		d.ResetWrites()
	}
	start := cl.Sim.Now()
	router := batch.NewRouter(shards, batchSize, 0, cl.Sim.Now, func(shard int, seq uint64, c cstruct.Cmd) {
		cl.Prop.ProposeSeq(shard, seq, c)
	})
	for i := 0; i < commands; i++ {
		router.Route(e10Cmd(i))
	}
	router.FlushAll()

	if crash {
		// Two communication steps in: proposals delivered, the first 2a
		// wave in flight — then one group member per shard dies (the
		// primaries, the worst case for c = 1).
		cl.Sim.RunUntil(cl.Sim.Now() + 2)
		for k := 0; k < shards; k++ {
			cl.Sim.Crash(cl.Cfg.Coords[k])
		}
		if coordsPerShard == 1 {
			// No group to mask the crash: each shard's standby must take
			// over with a fresh round and re-propose the stalled stream.
			for k := 0; k < shards; k++ {
				cl.Coords[shards+k].BecomeLeader()
			}
		}
	}
	cl.Sim.Run()

	mode := fmt.Sprintf("c=%d", coordsPerShard)
	if crash {
		mode += "+crash"
	}
	roundChanges := cl.RoundChanges()
	for k := 0; k < shards; k++ {
		if base[k].Less(cl.ShardRound(k)) {
			roundChanges++
		}
	}
	row := E13Row{
		Mode:           mode,
		CoordsPerShard: coordsPerShard,
		Crash:          crash,
		Commands:       rep.Applied(),
		Instances:      int(m.Delivered()),
		Msgs:           cl.Sim.Metrics().TotalSent(),
		SimSteps:       cl.Sim.Now() - start,
		RoundChanges:   roundChanges,
		Order:          order,
	}
	for _, a := range cl.Accs {
		row.Promotions += a.Promotions()
	}
	if row.Commands != commands || m.Buffered() != 0 {
		// Refuse to report a broken run as a masking or throughput number.
		row.Mode += "(INCOMPLETE)"
	}
	if row.Commands > 0 {
		row.MsgsPerCmd = float64(row.Msgs) / float64(row.Commands)
	}
	if row.Instances > 0 {
		row.WritesPerInstPerAcc = float64(cl.TotalDiskWrites()) / float64(row.Instances*len(cl.Accs))
	}
	return row
}

// RunE13 sweeps coordinator group size × crash over the batched, sharded
// command path: {c=1, c=3} × {no crash, one coordinator killed per shard}.
func RunE13(seed int64, commands, batchSize, window int) []E13Row {
	rows := make([]E13Row, 0, 4)
	for _, c := range []int{1, 3} {
		for _, crash := range []bool{false, true} {
			rows = append(rows, RunE13One(seed, commands, c, crash, batchSize, window))
		}
	}
	return rows
}
