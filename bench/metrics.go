package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
)

// metricDef is one named metric of the benchmark: BENCHMARK.json at the repo
// root is generated from these tables (-benchmark-json), and every run and the
// smoke test hold the two in agreement (benchmarkJSONDrift).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// runSeconds is the measured time of one contract run, split evenly over
// defaultReps repetitions (5 × 3 s). They are the defaults of -seconds and
// -reps, so a bare `bench/run.sh` measures exactly what the driver measures.
//
// The issue asked for 3 × 8 s. A repetition that collapses into a round-change
// storm (see README, known cliffs; the run shape's RetryEvery keeps HEAD clear
// of the one found so far) stays collapsed until its deployment is torn down:
// five short repetitions bound what one collapse contaminates, and their
// median — the value of record — shrugs off two of them where a median of
// three shrugs off one.
const (
	runSeconds  = 15
	defaultReps = 5
)

// endToEnd lists what a client of the deployment sees. Bound is the share of
// the parent's value by which the metric may worsen before -compare (and the
// driver) call it a regression. Two sets of ten runs of unchanged code on this
// shared 2-core VM spread p50_ms by up to 6.3 % (quartile distance over median),
// p90_ms by up to 10.3 % and goodput_ops_s by up to 8.1 %, all three on
// sharded_closed, whose level moves with the host from minute to minute (set B
// read 4-6 % worse than set A); the open loops spread by under 3 % and setup_s
// by under 0.4 %. The driver's contract wants a bound of three such spreads, so
// that noise does not read as a regression, and caps it at 25 %: the issue's
// 10 % on p50_ms and goodput_ops_s would be less than two. p90_ms sits at the
// cap, setup_s carries the largest bound as the contract asks.
//
// The tail is a window's p90, not its p99: one 10-25 ms host stall delays 2-5
// due ops of an open loop at once, which is all a 1-s window's p99 rests on at
// 200-500 ops/s, and the closed loops' p99 follows whether a round change fell
// in the window; across ten runs the p99 spread by 10-22 % (40 % on
// durable_mixed) where the p90 spread by 0.4-11 %. The p99 is reported per-layer.
//
// Four more of the issue's end-to-end metrics are per-layer metrics instead:
// fail_share is 0 at HEAD (the contract wants end-to-end metrics that are
// never 0; the result line carries attempted/failed), stall_ms and
// outage_p50_ms mean something only on coord_kill while a contract run must
// print every end-to-end metric on every workload, and cpu_us_per_op spreads
// by 10-20 % from run to run on every workload — on a shared VM CPU time per
// op moves with what the neighbours do to the caches — which no useful bound
// holds. They are deploy.fail_share, deploy.stall_ms, deploy.outage_p50_ms and
// proc.cpu_us_per_op.
var endToEnd = []metricDef{
	{"p50_ms", "ms", lower, 0.20},
	{"p90_ms", "ms", lower, 0.25},
	{"goodput_ops_s", "ops/s", higher, 0.25},
	{"setup_s", "s", lower, 0.25},
}

// failShareBound is the absolute rise in deploy.fail_share that -compare
// treats as a regression.
const failShareBound = 0.01

// perLayer lists the per-module numbers, prefixed by module. They carry no
// bound: they explain a move in an end-to-end metric, they do not gate.
var perLayer = []metricDef{
	// deploy — live counters of Client.Stats and Replica, measured window.
	{Name: "deploy.fail_share", Unit: "ratio", Better: lower},
	{Name: "deploy.p99_ms", Unit: "ms", Better: lower},
	{Name: "deploy.stall_ms", Unit: "ms", Better: lower},
	{Name: "deploy.outage_p50_ms", Unit: "ms", Better: lower},
	{Name: "deploy.client_retries_per_kop", Unit: "count", Better: lower},
	{Name: "deploy.client_rotations_per_kop", Unit: "count", Better: lower},
	{Name: "deploy.dup_replies_per_op", Unit: "count", Better: lower},
	{Name: "deploy.replay_probes_per_kop", Unit: "count", Better: lower},
	{Name: "deploy.round_changes", Unit: "count", Better: lower},
	{Name: "deploy.restamped_per_kop", Unit: "count", Better: lower},
	{Name: "deploy.filled_per_kop", Unit: "count", Better: lower},
	{Name: "deploy.learner_lag_ops_max", Unit: "count", Better: lower},
	{Name: "deploy.merge_buffered_max", Unit: "count", Better: lower},
	// batch — live ops per stamped instance; driver on a virtual clock, whose
	// waits are exact and so in protocol ticks (1 tick = Tick = 1 ms), not in
	// measured milliseconds.
	{Name: "batch.ops_per_instance", Unit: "count", Better: higher},
	{Name: "batch.wait_ticks_p50", Unit: "ticks", Better: lower},
	{Name: "batch.wait_ticks_p99", Unit: "ticks", Better: lower},
	{Name: "batch.route_ns_per_op", Unit: "ns", Better: lower},
	{Name: "batch.pack_ns_per_op", Unit: "ns", Better: lower},
	{Name: "batch.unpack_ns_per_op", Unit: "ns", Better: lower},
	// classic — the protocol engine on the deterministic simulator.
	{Name: "classic.msgs_per_op", Unit: "count", Better: lower},
	{Name: "classic.steps_to_learn", Unit: "count", Better: lower},
	{Name: "classic.acceptor_writes_per_op", Unit: "count", Better: lower},
	{Name: "classic.sim_round_changes", Unit: "count", Better: lower},
	{Name: "classic.step_ns_per_event", Unit: "ns", Better: lower},
	// transport — live NetStats; driver on two loopback TCP endpoints.
	{Name: "transport.wire_bytes_per_op", Unit: "B", Better: lower},
	{Name: "transport.frames_per_op", Unit: "count", Better: lower},
	{Name: "transport.encode_ns_per_frame", Unit: "ns", Better: lower},
	{Name: "transport.decode_ns_per_frame", Unit: "ns", Better: lower},
	{Name: "transport.codec_decode_allocs_per_msg", Unit: "count", Better: lower},
	{Name: "transport.tcp_hop_us_p50", Unit: "us", Better: lower},
	{Name: "transport.tcp_hop_us_p99", Unit: "us", Better: lower},
	{Name: "transport.tcp_frames_per_s", Unit: "1/s", Better: higher},
	// runtime — mailbox and timer of the goroutine host.
	{Name: "runtime.mailbox_hop_ns", Unit: "ns", Better: lower},
	{Name: "runtime.timer_late_ms_p50", Unit: "ms", Better: lower},
	{Name: "runtime.timer_late_ms_p99", Unit: "ms", Better: lower},
	// wal (+storage) — live disk footprint; driver on a real directory.
	{Name: "wal.bytes_per_op", Unit: "B", Better: lower},
	{Name: "wal.segments_end", Unit: "count", Better: lower},
	{Name: "wal.append_ms_p50", Unit: "ms", Better: lower},
	{Name: "wal.append_ms_p99", Unit: "ms", Better: lower},
	{Name: "wal.group_append_ms_p50", Unit: "ms", Better: lower},
	{Name: "wal.records_per_fsync", Unit: "count", Better: higher},
	{Name: "wal.bytes_per_rec", Unit: "B", Better: lower},
	{Name: "wal.encode_ns_per_rec", Unit: "ns", Better: lower},
	{Name: "wal.replay_ms_per_krec", Unit: "ms", Better: lower},
	// smr — merge, apply and reply cache.
	{Name: "smr.merge_ns_per_op", Unit: "ns", Better: lower},
	{Name: "smr.apply_ns_per_op", Unit: "ns", Better: lower},
	{Name: "smr.replycache_ns_per_op", Unit: "ns", Better: lower},
	// snapshot — live CompactionStats; driver at fixed state sizes.
	{Name: "snapshot.saves", Unit: "count", Better: lower},
	{Name: "snapshot.bytes_end", Unit: "B", Better: lower},
	{Name: "snapshot.resident_log_max", Unit: "count", Better: lower},
	{Name: "snapshot.encode_ms_at_10k", Unit: "ms", Better: lower},
	{Name: "snapshot.save_ms_at_10k", Unit: "ms", Better: lower},
	{Name: "snapshot.bytes_at_10k", Unit: "B", Better: lower},
	{Name: "snapshot.bytes_at_50k", Unit: "B", Better: lower},
	// catchup — learner 301 killed and restarted after the traced window.
	{Name: "catchup.resync_ms", Unit: "ms", Better: lower},
	{Name: "catchup.escalations", Unit: "count", Better: lower},
	// proc — getrusage and runtime.MemStats of the whole in-process deployment.
	{Name: "proc.cpu_us_per_op", Unit: "us", Better: lower},
	{Name: "proc.allocs_per_op", Unit: "count", Better: lower},
	{Name: "proc.alloc_bytes_per_op", Unit: "B", Better: lower},
	{Name: "proc.gc_pause_ms_total", Unit: "ms", Better: lower},
	{Name: "proc.heap_mb_peak", Unit: "MB", Better: lower},
	{Name: "proc.goroutines_max", Unit: "count", Better: lower},
	// gen — how late the open-loop generator sent (validity, not a target).
	{Name: "gen.late_ms_p99", Unit: "ms", Better: lower},
	{Name: "gen.late_ms_max", Unit: "ms", Better: lower},
	// trace / attrib — tracing overhead and where the p50 goes.
	{Name: "trace.overhead_pct", Unit: "%", Better: lower},
	{Name: "attrib.blocking_path_ms", Unit: "ms", Better: lower},
	{Name: "attrib.unexplained_ms", Unit: "ms", Better: lower},
}

// benchmarkFile is the shape of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDoc `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

type workloadDoc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func benchmarkJSON() benchmarkFile {
	bf := benchmarkFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		if !w.Ungated {
			bf.Workloads = append(bf.Workloads, workloadDoc{w.Name, w.Why})
		}
	}
	return bf
}

// benchmarkJSONDrift reports whether the BENCHMARK.json at path says anything
// other than the tables here do. Every run checks it, so the file the driver
// reads and the metrics the program prints cannot drift apart unnoticed.
func benchmarkJSONDrift(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	b, err := json.Marshal(benchmarkJSON())
	if err != nil {
		return err
	}
	var onDisk, fromTables any
	if err := json.Unmarshal(raw, &onDisk); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := json.Unmarshal(b, &fromTables); err != nil {
		return err
	}
	if !reflect.DeepEqual(onDisk, fromTables) {
		return fmt.Errorf("%s differs from the tables in bench/metrics.go and bench/workload.go: regenerate it with `bash bench/run.sh -benchmark-json > BENCHMARK.json`", path)
	}
	return nil
}
