package experiments

import (
	"fmt"
	"os"
)

// This file implements E12, the sharded-instance-space scaling experiment:
// the paper removes the single-coordinator bottleneck on the round axis
// (multicoordination); this measures removing it on the instance axis. The
// instance space is partitioned Mencius-style across N concurrent leaders —
// leader k exclusively sequences instances ≡ k (mod N) — each with its own
// pipeline window and batch stream; learners learn per instance as always
// and the SMR merger (internal/smr.Merger) restores the single total order
// by instance number. With the per-leader pipeline window fixed, the
// aggregate window grows N×, so the simulated wall-clock (communication
// steps) to drain the same command stream drops roughly N× — the throughput
// multiplication every prior lever (batching, pipelining, group commit) now
// inherits.

// E12Row is one sweep point of the sharding experiment.
type E12Row struct {
	// Mode names the configuration: shards=N.
	Mode string
	// Shards is the number of concurrent leaders.
	Shards int
	// Commands is the number of client commands pushed through.
	Commands int
	// Instances is the number of consensus instances consumed.
	Instances int
	// Msgs counts every protocol message sent.
	Msgs uint64
	// SimSteps is the simulated time from first submission to the last
	// learn (communication steps under unit latency).
	SimSteps int64
	// CmdsPerStep is Commands/SimSteps: throughput in the simulator's
	// hardware-independent currency.
	CmdsPerStep float64
	// MsgsPerCmd is Msgs per command.
	MsgsPerCmd float64
	// MaxMergeBuffer is the merger's high-water mark of instances held back
	// by a cross-shard gap.
	MaxMergeBuffer int
}

// RunE12Sharded pushes the command stream through N concurrent shard-leaders
// at a fixed batch size and per-leader pipeline window, and reports the
// simulated time to drain it.
func RunE12Sharded(seed int64, commands, shards, batchSize, window int) E12Row {
	d, _ := drain(drainSpec{seed: seed, commands: commands, shards: shards, batch: batchSize, window: window})
	row := E12Row{
		Mode:           d.mode(fmt.Sprintf("shards=%d", shards)),
		Shards:         shards,
		Commands:       d.commands,
		Instances:      d.instances,
		Msgs:           d.msgs,
		SimSteps:       d.steps,
		MaxMergeBuffer: d.m.MaxBuffered,
	}
	if row.SimSteps > 0 {
		row.CmdsPerStep = float64(row.Commands) / float64(row.SimSteps)
	}
	if row.Commands > 0 {
		row.MsgsPerCmd = float64(row.Msgs) / float64(row.Commands)
	}
	return row
}

// RunE12Scaling sweeps the leader count at fixed batch size and per-leader
// window: the scaling claim is CmdsPerStep growing with Shards.
func RunE12Scaling(seed int64, commands int, shardCounts []int, batchSize, window int) []E12Row {
	out := make([]E12Row, 0, len(shardCounts))
	for _, n := range shardCounts {
		out = append(out, RunE12Sharded(seed, commands, n, batchSize, window))
	}
	return out
}

// E12DurableRow reports the stable-storage half of the sharded run: every
// shard's accepts land in each acceptor's one replayable log, one append per
// accepted instance.
type E12DurableRow struct {
	Shards   int
	Commands int
	// Fsyncs is the total physical data-file fsyncs across acceptor WALs.
	Fsyncs uint64
	// ShardAccepts is, per shard, the instances accepted across all
	// acceptors, read back from the acceptors after the run.
	ShardAccepts []uint64
	// FsyncsPerCmdPerAcc normalizes as in E11.
	FsyncsPerCmdPerAcc float64
}

// RunE12Durable runs the sharded stream over WAL-backed acceptors and
// reports the per-shard accepts behind the shared fsyncs: N concurrent
// leaders, one log per acceptor.
func RunE12Durable(dir string, seed int64, commands, shards, batchSize, window int) (E12DurableRow, error) {
	d, err := drain(drainSpec{seed: seed, commands: commands, shards: shards, batch: batchSize, window: window,
		walDir: dir})
	if err != nil {
		return E12DurableRow{}, err
	}
	row := E12DurableRow{
		Shards:       shards,
		Commands:     d.commands,
		Fsyncs:       d.fsyncs,
		ShardAccepts: make([]uint64, shards),
	}
	for inst := range d.cl.LearnedCmds {
		for _, a := range d.cl.Accs {
			if _, _, ok := a.Vote(inst); ok {
				row.ShardAccepts[d.cl.Cfg.ShardOf(inst)]++
			}
		}
	}
	if row.Commands > 0 {
		row.FsyncsPerCmdPerAcc = float64(row.Fsyncs) / (float64(row.Commands) * float64(len(d.cl.Accs)))
	}
	if !d.complete {
		return row, fmt.Errorf("e12: incomplete durable run: applied %d/%d, %d buffered",
			row.Commands, commands, d.m.Buffered())
	}
	return row, nil
}

// RunE12 runs the scaling sweep and the durable run,
// creating WAL directories under a temporary root that is removed
// afterwards.
func RunE12(seed int64, commands int, shardCounts []int, batchSize, window int) ([]E12Row, E12DurableRow, error) {
	if len(shardCounts) == 0 {
		return nil, E12DurableRow{}, fmt.Errorf("e12: empty shard-count sweep")
	}
	rows := RunE12Scaling(seed, commands, shardCounts, batchSize, window)
	root, err := os.MkdirTemp("", "mcpaxos-e12-*")
	if err != nil {
		return rows, E12DurableRow{}, err
	}
	defer os.RemoveAll(root)
	durShards := shardCounts[len(shardCounts)-1]
	dur, err := RunE12Durable(root, seed, commands, durShards, batchSize, window)
	return rows, dur, err
}
