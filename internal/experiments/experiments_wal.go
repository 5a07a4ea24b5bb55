package experiments

import (
	"fmt"
	"os"
	"path/filepath"
)

// This file implements E11, the durable group-commit experiment: E10's
// command stream runs again, but the acceptors now write through a real
// on-disk WAL (internal/wal) instead of the simulated in-memory Disk. The
// measured currency changes from logical synchronous writes to physical
// fsyncs: unbatched, every accepted value costs each acceptor one fsync
// (the paper's Section 4.4 floor); with batching, one group-commit fsync
// covers a whole batch of commands, driving fsyncs per command per acceptor
// to 1/B. This is the stable-storage half of the heavy-traffic story — the
// message-count half is E10.

// E11Row is one sweep point of the durable group-commit experiment.
type E11Row struct {
	// Mode names the configuration: sequential or batch=B.
	Mode string
	// Commands is the number of client commands pushed through.
	Commands int
	// Instances is the number of consensus instances consumed.
	Instances int
	// Writes is the total logical stable writes across all acceptor WALs.
	Writes uint64
	// Fsyncs is the total physical data-file fsyncs across all acceptor
	// WALs.
	Fsyncs uint64
	// WritesPerCmdPerAcc and FsyncsPerCmdPerAcc normalize per command per
	// acceptor, the paper's unit (E6 reports the simulated counterpart).
	WritesPerCmdPerAcc, FsyncsPerCmdPerAcc float64
}

// e11Drain runs one E11 mode: E10's deployment with every acceptor on a
// real log file under s.walDir, counted from the start of the drain.
func e11Drain(mode string, s drainSpec) (E11Row, error) {
	d, err := drain(s)
	if err != nil {
		return E11Row{}, err
	}
	row := E11Row{Mode: d.mode(mode), Commands: d.commands, Instances: d.instances,
		Writes: d.writes, Fsyncs: d.fsyncs}
	if d.commands > 0 {
		denom := float64(d.commands) * float64(len(d.cl.Accs))
		row.WritesPerCmdPerAcc = float64(row.Writes) / denom
		row.FsyncsPerCmdPerAcc = float64(row.Fsyncs) / denom
	}
	return row, nil
}

// RunE11Sequential is the durable baseline: one command per instance, each
// proposed only after the previous one is learned. Every accept is one
// group-commit batch of its own, so fsyncs per command per acceptor is 1 —
// the paper's one-write-per-accept floor made physical.
func RunE11Sequential(dir string, seed int64, commands int) (E11Row, error) {
	return e11Drain("sequential", drainSpec{seed: seed, commands: commands, batch: 1, sequential: true, walDir: dir})
}

// RunE11Batched groups the stream into batches of batchSize commands: each
// batch is one consensus instance, so each acceptor persists it with one
// group-commit write — one fsync per B commands.
func RunE11Batched(dir string, seed int64, commands, batchSize int) (E11Row, error) {
	return e11Drain(fmt.Sprintf("batch=%d", batchSize), drainSpec{seed: seed, commands: commands, batch: batchSize, walDir: dir})
}

// RunE11GroupCommit sweeps the durable modes. Log directories are created
// under a fresh temporary directory that is removed afterwards.
func RunE11GroupCommit(seed int64, commands int, batchSizes []int) ([]E11Row, error) {
	root, err := os.MkdirTemp("", "mcpaxos-e11-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	row, err := RunE11Sequential(filepath.Join(root, "seq"), seed, commands)
	if err != nil {
		return nil, err
	}
	out := []E11Row{row}
	for _, bs := range batchSizes {
		row, err := RunE11Batched(filepath.Join(root, fmt.Sprintf("batch%d", bs)), seed, commands, bs)
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}
