package experiments

import "fmt"

// This file implements E10, the heavy-traffic throughput experiment: the
// same command stream is pushed through a Classic Paxos SMR deployment
// one-command-per-instance sequentially, pipelined at several window
// depths, and batched at several batch sizes. Batching amortizes the
// per-instance quorum exchange and acceptor disk write across many
// commands; pipelining overlaps the instances' communication steps. The
// numbers below are protocol work per command — the hardware-independent
// half of the throughput claim; bench_test.go measures the wall-clock half.

// E10Row is one sweep point of the batching/pipelining experiment.
type E10Row struct {
	// Mode names the configuration: sequential, pipeline=D or batch=B.
	Mode string
	// Commands is the number of client commands pushed through.
	Commands int
	// Instances is the number of consensus instances consumed.
	Instances int
	// Msgs counts every protocol message sent.
	Msgs uint64
	// DiskWrites counts synchronous acceptor disk writes.
	DiskWrites uint64
	// SimSteps is the simulated time from first submission to the last
	// learn (communication steps under unit latency).
	SimSteps int64
	// MsgsPerCmd and WritesPerCmd are Msgs and DiskWrites per command.
	MsgsPerCmd, WritesPerCmd float64
}

// e10Drain runs one E10 mode on the deployment every mode shares: one
// leader, three acceptors, one learner, command-at-a-time totally ordered
// SMR. DiskWrites counts from the cluster's birth, phase 1 included.
func e10Drain(mode string, s drainSpec) E10Row {
	d, _ := drain(s) // in-memory disks: nothing to open
	row := E10Row{
		Mode:       d.mode(mode),
		Commands:   d.commands,
		Instances:  d.instances,
		Msgs:       d.msgs,
		DiskWrites: d.leadWrites + d.writes,
		SimSteps:   d.steps,
	}
	if d.commands > 0 {
		row.MsgsPerCmd = float64(row.Msgs) / float64(d.commands)
		row.WritesPerCmd = float64(row.DiskWrites) / float64(d.commands)
	}
	return row
}

// RunE10Sequential is the baseline: one command per instance, each proposed
// only after the previous one is learned (no batching, no pipelining).
func RunE10Sequential(seed int64, commands int) E10Row {
	return e10Drain("sequential", drainSpec{seed: seed, commands: commands, batch: 1, sequential: true})
}

// RunE10Pipelined submits the whole stream up front with the coordinator's
// pipeline window set to depth: up to depth instances overlap in flight.
func RunE10Pipelined(seed int64, commands, depth int) E10Row {
	return e10Drain(fmt.Sprintf("pipeline=%d", depth), drainSpec{seed: seed, commands: commands, batch: 1, window: depth})
}

// RunE10Batched groups the stream into batches of batchSize commands; each
// batch is one consensus instance (pipeline left unbounded, as batching
// subsumes it at equal aggregate size).
func RunE10Batched(seed int64, commands, batchSize int) E10Row {
	return e10Drain(fmt.Sprintf("batch=%d", batchSize), drainSpec{seed: seed, commands: commands, batch: batchSize})
}

// RunE10Throughput sweeps the three modes.
func RunE10Throughput(seed int64, commands int, depths, batchSizes []int) []E10Row {
	out := []E10Row{RunE10Sequential(seed, commands)}
	for _, d := range depths {
		out = append(out, RunE10Pipelined(seed, commands, d))
	}
	for _, b := range batchSizes {
		out = append(out, RunE10Batched(seed, commands, b))
	}
	return out
}
