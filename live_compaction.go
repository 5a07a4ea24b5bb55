package mcpaxos

import (
	"fmt"
	"path/filepath"
	"time"
)

// This file is the E16 harness: disk and memory accounting for the snapshot
// & log-compaction subsystem on the live path. One run drives a write stream
// through the full deployment and samples, at fixed command windows, the
// acceptors' on-disk WAL footprint and the learners' resident (retained)
// log. With SnapshotEvery = 0 both grow monotonically with the run length;
// with compaction on, the watermark protocol truncates behind the snapshots
// and both plateau at a bound set by the knobs, not by history size.

// E16Sample is one windowed measurement of an E16 run.
type E16Sample struct {
	// Commands completed when the sample was taken.
	Commands int
	// WALSegs / WALSnaps / WALBytes sum the acceptors' on-disk footprint.
	WALSegs, WALSnaps int
	WALBytes          int64
	// SnapFiles / SnapBytes sum the learners' snapshot stores.
	SnapFiles int
	SnapBytes int64
	// ResidentLog is the largest retained learner log (instances); Watermark
	// and Saves the compaction progress behind it.
	ResidentLog int
	Watermark   uint64
	Saves       uint64
}

// E16Run is one arm of the E16 experiment.
type E16Run struct {
	// SnapshotEvery is the arm's compaction interval (0 = compaction off).
	SnapshotEvery int
	// Samples are the windowed measurements, in command order; the last one
	// is taken after traffic stops and the watermark settles.
	Samples []E16Sample
	Elapsed time.Duration
}

// RunE16Compaction drives `commands` single-command writes through the live
// deployment with the given compaction interval (0 disables compaction) and
// samples the disk/memory footprint every `commands/windows` commands.
// walDir hosts the acceptors' WALs and, when compaction is on, the
// learners' durable snapshots.
func RunE16Compaction(commands, every, windows int, walDir string) (E16Run, error) {
	run := E16Run{SnapshotEvery: every}
	if windows < 1 {
		windows = 8
	}
	spec := LocalSpec(2, 3, 3, 2, 1)
	// Single-command instances: this experiment accounts storage per decided
	// instance, so commands and instances stay comparable (batching would
	// shrink the log 8× for both arms without changing the claim).
	spec.BatchMax = 1
	spec.Window = 4
	spec.RetryEvery = 50 * time.Millisecond
	spec.WALDir = walDir
	spec.SnapshotEvery = every
	if every > 0 {
		spec.Retain = every / 2
		spec.SnapshotDir = filepath.Join(walDir, "snaps")
	}
	spec, err := spec.ResolveEphemeral()
	if err != nil {
		return run, err
	}
	rep, err := OpenReplica(spec)
	if err != nil {
		return run, err
	}
	defer rep.Close()
	cli, err := DialClient(spec, spec.Clients[0].ID)
	if err != nil {
		return run, err
	}
	defer cli.Close()

	sample := func(done int) E16Sample {
		s := E16Sample{Commands: done}
		s.WALSegs, s.WALSnaps, s.WALBytes = rep.WALDiskStats()
		cs := rep.CompactionStats()
		s.SnapFiles, s.SnapBytes = cs.SnapFiles, cs.SnapBytes
		s.ResidentLog, s.Watermark, s.Saves = cs.ResidentLog, cs.Watermark, cs.Saves
		return s
	}

	start := time.Now()
	window := commands / windows
	if window < 1 {
		window = 1
	}
	// Cap the in-flight burst independently of the sampling window, and keep
	// it small relative to the fsync-bound decide rate: when the tail of a
	// deep burst waits longer than the learners' gap-watch threshold
	// (4×RetryEvery), the watch misreads queueing as a stall and fires
	// resync/fallback traffic that amplifies the load it is reacting to —
	// a feedback loop that can push commands past their deadline at long
	// run lengths. E16 measures storage, not peak throughput.
	const burst = 32
	done := 0
	for done < commands {
		next := done + window
		if next > commands {
			next = commands
		}
		for done < next {
			n := next - done
			if n > burst {
				n = burst
			}
			calls := make([]*Call, 0, n)
			for i := 0; i < n; i++ {
				c := done + i
				calls = append(calls, cli.Set(fmt.Sprintf("k%d", c%64), fmt.Sprintf("v%d", c)))
			}
			if err := cli.Wait(calls, 60*time.Second); err != nil {
				return run, fmt.Errorf("e16 window at %d: %w", done, err)
			}
			done += n
		}
		run.Samples = append(run.Samples, sample(done))
	}
	// Quiet tail: with traffic stopped the watermark catches up to the
	// frontiers and truncation finishes; the settled sample is the honest
	// end-state footprint. Done gossip rides the gap-watch cadence
	// (4×RetryEvery), so "settled" means stable across several gossip
	// periods — and WAL bytes must hold still too, or the sample can land
	// between the last truncation and the physical compaction it triggers,
	// with tombstones still inflating the log.
	if every > 0 {
		settleUntil := time.Now().Add(10 * time.Second)
		prevWM, prevBytes := uint64(0), int64(-1)
		stable := 0
		for time.Now().Before(settleUntil) {
			cs := rep.CompactionStats()
			_, _, bytes := rep.WALDiskStats()
			if cs.Watermark == prevWM && cs.Watermark > 0 && bytes == prevBytes {
				if stable++; stable >= 3 {
					break
				}
			} else {
				stable = 0
			}
			prevWM, prevBytes = cs.Watermark, bytes
			time.Sleep(250 * time.Millisecond)
		}
	}
	run.Samples = append(run.Samples, sample(done))
	run.Elapsed = time.Since(start)
	return run, nil
}

// E16Bounded judges the compaction arm of an E16 run against its baseline:
// the resident log and the WAL footprint must end below the baseline's —
// a plateau, not monotone growth. It returns a failure description or "".
func E16Bounded(base, comp E16Run) string {
	if len(base.Samples) == 0 || len(comp.Samples) == 0 {
		return "empty run"
	}
	bf, cf := base.Samples[len(base.Samples)-1], comp.Samples[len(comp.Samples)-1]
	if cf.Saves == 0 || cf.Watermark == 0 {
		return fmt.Sprintf("compaction never engaged: saves=%d watermark=%d", cf.Saves, cf.Watermark)
	}
	if cf.ResidentLog >= bf.ResidentLog {
		return fmt.Sprintf("resident log not bounded: %d with compaction vs %d baseline",
			cf.ResidentLog, bf.ResidentLog)
	}
	if cf.WALBytes >= bf.WALBytes {
		return fmt.Sprintf("WAL bytes not bounded: %d with compaction vs %d baseline",
			cf.WALBytes, bf.WALBytes)
	}
	return ""
}
