package mcpaxos

// Benchmark harness: one benchmark per experiment (E1-E9), regenerating the
// paper's quantitative claims. Custom metrics carry the paper-shaped
// numbers (steps, quorum sizes, shares, collision fractions); ns/op mostly
// reflects simulator speed and is not a claim of the paper.
//
// Run: go test -bench=. -benchmem
// Tables: go run ./cmd/paxosbench

import (
	"fmt"
	"testing"
)

func BenchmarkE1StepsToLearn(b *testing.B) {
	var last E1Result
	for i := 0; i < b.N; i++ {
		last = RunE1StepsToLearn(int64(i + 1))
	}
	b.ReportMetric(float64(last.Steps[ProtocolClassic]), "classic-steps")
	b.ReportMetric(float64(last.Steps[ProtocolFast]), "fast-steps")
	b.ReportMetric(float64(last.Steps[ProtocolMulti]), "multicoord-steps")
	b.ReportMetric(float64(last.Steps[ProtocolGeneralized]), "generalized-steps")
}

func BenchmarkE2QuorumSizes(b *testing.B) {
	ns := []int{3, 5, 7, 9, 11, 13}
	var rows []E2Row
	for i := 0; i < b.N; i++ {
		rows = RunE2QuorumSizes(ns)
	}
	for _, r := range rows {
		if r.N == 5 {
			b.ReportMetric(float64(r.Classic), "n5-classic-quorum")
			b.ReportMetric(float64(r.FastMajority), "n5-fast-quorum")
		}
	}
}

func BenchmarkE3Availability(b *testing.B) {
	var rows []E3Row
	for i := 0; i < b.N; i++ {
		rows = RunE3Availability(int64(i + 1))
	}
	surviving := 0
	for _, r := range rows {
		if r.Kind == "multicoordinated(3)" && r.CoordCrashes == 1 && r.Progress && !r.RoundChanged {
			surviving = 1
		}
	}
	b.ReportMetric(float64(surviving), "mc-survives-1-crash")
}

func BenchmarkE4LoadBalance(b *testing.B) {
	var r E4Result
	for i := 0; i < b.N; i++ {
		r = RunE4LoadBalance(int64(i+1), 3, 5, 120)
	}
	b.ReportMetric(r.MaxCoordShare, "mc-coord-share")
	b.ReportMetric(r.MaxAccShare, "mc-acceptor-share")
	b.ReportMetric(r.FastAccShare, "fast-acceptor-share")
}

func BenchmarkE5CollisionRecovery(b *testing.B) {
	var rows []E5Row
	for i := 0; i < b.N; i++ {
		rows = RunE5CollisionRecovery(int64(i + 1))
	}
	for _, r := range rows {
		b.ReportMetric(float64(r.TotalSteps), r.Scenario+"-steps")
	}
}

func BenchmarkE6DiskWrites(b *testing.B) {
	var r E6Result
	for i := 0; i < b.N; i++ {
		r = RunE6DiskWrites(int64(i+1), 20)
	}
	b.ReportMetric(r.WritesPerCommandPerAcceptor[ProtocolMulti], "mc-writes-per-cmd")
	b.ReportMetric(r.WritesPerCommandPerAcceptor[ProtocolFast], "fast-writes-per-cmd")
	b.ReportMetric(float64(r.RecoveryWrites), "recovery-writes")
}

func BenchmarkE7ConflictSweep(b *testing.B) {
	rhos := []float64{0, 0.5, 1}
	var rows []E7Row
	for i := 0; i < b.N; i++ {
		rows = RunE7ConflictSweep(int64(i+1), rhos, 6)
	}
	for _, r := range rows {
		name := fmt.Sprintf("%s-rho%.0f%%-collisions", r.Protocol, r.ConflictRate*100)
		b.ReportMetric(r.CollisionFrac, name)
	}
}

func BenchmarkE8LeaderFailover(b *testing.B) {
	var r E8Result
	for i := 0; i < b.N; i++ {
		r = RunE8LeaderFailover(int64(i + 1))
	}
	b.ReportMetric(float64(r.ClassicGap), "classic-failover-gap")
	b.ReportMetric(float64(r.MultiGap), "mc-failover-gap")
	b.ReportMetric(float64(r.BaselineGap), "baseline-gap")
}

func BenchmarkAblationCoordQuorum(b *testing.B) {
	var rows []AblationCoordRow
	for i := 0; i < b.N; i++ {
		rows = RunAblationCoordQuorum(int64(i+1), []int{1, 3, 5})
	}
	for _, r := range rows {
		b.ReportMetric(float64(r.Steps), fmt.Sprintf("nc%d-steps", r.NCoords))
		b.ReportMetric(float64(r.ToleratedCrashes), fmt.Sprintf("nc%d-tolerated", r.NCoords))
	}
}

func BenchmarkAblationRndPersistence(b *testing.B) {
	var rows []AblationRndRow
	for i := 0; i < b.N; i++ {
		rows = RunAblationRndPersistence(int64(i+1), 10)
	}
	for _, r := range rows {
		name := "volatile-rnd-writes"
		if r.PersistRnd {
			name = "persist-rnd-writes"
		}
		b.ReportMetric(r.WritesPerAcceptor, name)
	}
}

// E10: heavy-traffic throughput. Each iteration pushes the same 256-command
// stream through one deployment, so ns/op is directly comparable across the
// modes: batch=32 must be ≥2× faster than unbatched (it measures ~10-30×,
// since 32 commands share one instance's quorum exchange and disk write).
const e10Commands = 256

func reportE10(b *testing.B, r E10Row) {
	b.ReportMetric(float64(e10Commands)*float64(b.N)/b.Elapsed().Seconds(), "cmds/s")
	b.ReportMetric(r.MsgsPerCmd, "msgs/cmd")
	b.ReportMetric(float64(r.SimSteps), "sim-steps")
	if r.Commands != e10Commands {
		b.Fatalf("incomplete run: %+v", r)
	}
}

func BenchmarkE10ThroughputUnbatched(b *testing.B) {
	var r E10Row
	for i := 0; i < b.N; i++ {
		r = RunE10Sequential(int64(i+1), e10Commands)
	}
	reportE10(b, r)
}

func BenchmarkE10ThroughputPipelined8(b *testing.B) {
	var r E10Row
	for i := 0; i < b.N; i++ {
		r = RunE10Pipelined(int64(i+1), e10Commands, 8)
	}
	reportE10(b, r)
}

func BenchmarkE10ThroughputPipelined32(b *testing.B) {
	var r E10Row
	for i := 0; i < b.N; i++ {
		r = RunE10Pipelined(int64(i+1), e10Commands, 32)
	}
	reportE10(b, r)
}

func BenchmarkE10ThroughputBatch8(b *testing.B) {
	var r E10Row
	for i := 0; i < b.N; i++ {
		r = RunE10Batched(int64(i+1), e10Commands, 8)
	}
	reportE10(b, r)
}

func BenchmarkE10ThroughputBatch32(b *testing.B) {
	var r E10Row
	for i := 0; i < b.N; i++ {
		r = RunE10Batched(int64(i+1), e10Commands, 32)
	}
	reportE10(b, r)
}

func BenchmarkE9SpontaneousOrder(b *testing.B) {
	jitters := []int64{0, 3, 6}
	var rows []E9Row
	for i := 0; i < b.N; i++ {
		rows = RunE9SpontaneousOrder(int64(i+1), jitters, 8)
	}
	for _, r := range rows {
		b.ReportMetric(r.FastCollisionFrac, fmt.Sprintf("fast-j%d-collisions", r.Jitter))
		b.ReportMetric(r.MultiCollisionFrac, fmt.Sprintf("mc-j%d-collisions", r.Jitter))
	}
}

// E11: durable group commit. The cluster benchmarks push a command stream
// through WAL-backed acceptors doing real fsyncs, so ns/op is durable
// throughput; fsyncs/cmd/acc is the paper-shaped claim (1 unbatched, 1/B at
// batch B).
const e11Commands = 64

func reportE11(b *testing.B, r E11Row, err error) {
	if err != nil {
		b.Fatal(err)
	}
	if r.Commands != e11Commands {
		b.Fatalf("incomplete run: %+v", r)
	}
	b.ReportMetric(float64(e11Commands)*float64(b.N)/b.Elapsed().Seconds(), "cmds/s")
	b.ReportMetric(r.FsyncsPerCmdPerAcc, "fsyncs/cmd/acc")
}

func BenchmarkE11DurableUnbatched(b *testing.B) {
	var (
		r   E11Row
		err error
	)
	for i := 0; i < b.N; i++ {
		r, err = RunE11Sequential(b.TempDir(), int64(i+1), e11Commands)
	}
	reportE11(b, r, err)
}

func BenchmarkE11DurableBatch32(b *testing.B) {
	var (
		r   E11Row
		err error
	)
	for i := 0; i < b.N; i++ {
		r, err = RunE11Batched(b.TempDir(), int64(i+1), e11Commands, 32)
	}
	reportE11(b, r, err)
}

// E12: sharded instance space. Each iteration drains the same 256-command
// stream (batch=8, per-leader window 4) through N concurrent shard-leaders;
// sim-steps is the hardware-independent drain time and must fall roughly N×
// as leaders are added at a fixed per-leader pipeline window.
const e12Commands = 256

func benchE12(b *testing.B, shards int) {
	var r E12Row
	for i := 0; i < b.N; i++ {
		r = RunE12Sharded(int64(i+1), e12Commands, shards, 8, 4)
	}
	if r.Commands != e12Commands {
		b.Fatalf("incomplete run: %+v", r)
	}
	b.ReportMetric(float64(e12Commands)*float64(b.N)/b.Elapsed().Seconds(), "cmds/s")
	b.ReportMetric(r.CmdsPerStep, "cmds/step")
	b.ReportMetric(float64(r.SimSteps), "sim-steps")
}

func BenchmarkE12Shards1(b *testing.B) { benchE12(b, 1) }
func BenchmarkE12Shards2(b *testing.B) { benchE12(b, 2) }
func BenchmarkE12Shards4(b *testing.B) { benchE12(b, 4) }
func BenchmarkE12Shards8(b *testing.B) { benchE12(b, 8) }

// E13: multicoordinated shards. Each iteration drains the same 192-command
// stream (2 shards, batch=8, window 4) through coordinator groups of size
// c, optionally killing one group member per shard mid-stream; round
// changes is the masking claim (0 under c=3 even with the crash) and
// msgs/cmd the redundancy price.
const e13Commands = 192

func benchE13(b *testing.B, coordsPerShard int, crash bool) {
	var r E13Row
	for i := 0; i < b.N; i++ {
		r = RunE13One(int64(i+1), e13Commands, coordsPerShard, crash, 8, 4)
	}
	if r.Commands != e13Commands {
		b.Fatalf("incomplete run: %+v", r)
	}
	b.ReportMetric(float64(e13Commands)*float64(b.N)/b.Elapsed().Seconds(), "cmds/s")
	b.ReportMetric(float64(r.SimSteps), "sim-steps")
	b.ReportMetric(r.MsgsPerCmd, "msgs/cmd")
	b.ReportMetric(float64(r.RoundChanges), "round-changes")
}

func BenchmarkE13Coords1(b *testing.B)      { benchE13(b, 1, false) }
func BenchmarkE13Coords1Crash(b *testing.B) { benchE13(b, 1, true) }
func BenchmarkE13Coords3(b *testing.B)      { benchE13(b, 3, false) }
func BenchmarkE13Coords3Crash(b *testing.B) { benchE13(b, 3, true) }
