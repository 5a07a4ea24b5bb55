package main

import (
	"time"
)

// span is one timed call (or, for calls that take nanoseconds, one chunk of N
// consecutive calls) into a module's public API: the benchmark's own tracing,
// recorded around the calls from outside the program.
type span struct {
	Name    string `json:"name"`
	Parent  string `json:"parent"`
	Op      int    `json:"op"` // index of the (first) op in the driver's stream
	N       int    `json:"n"`  // calls covered
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
}

// recorder keeps spans in memory; they are written once, when the pass ends.
type recorder struct {
	epoch time.Time
	spans []span
}

// record adds the span [t0, t1) of n calls starting at op.
func (r *recorder) record(name, parent string, op, n int, t0, t1 time.Time) {
	if r.epoch.IsZero() {
		r.epoch = t0
	}
	r.spans = append(r.spans, span{name, parent, op, n, int64(t0.Sub(r.epoch)), int64(t1.Sub(t0))})
}

// traceFile is the schema of bench/out/trace_<workload>.json.
type traceFile struct {
	Workload string           `json:"workload"`
	Seed     int64            `json:"seed"`
	Ops      []traceOp        `json:"ops"`      // one span per client op of the traced repetition
	Timeline []map[string]any `json:"timeline"` // 1-Hz readings of every live counter
	Drivers  []span           `json:"driver_spans"`
}

type traceOp struct {
	ID     uint64 `json:"id"`
	Client int    `json:"client"`
	Kind   string `json:"kind"`
	DueUs  int64  `json:"due_us"`
	SentUs int64  `json:"sent_us"`
	DoneUs int64  `json:"done_us"`
	OK     bool   `json:"ok"`
}

func writeTrace(path string, w workload, traced repResult, rec *recorder) error {
	tf := traceFile{Workload: w.Name, Seed: traced.Seed, Drivers: rec.spans}
	for _, o := range traced.ops {
		tf.Ops = append(tf.Ops, traceOp{o.id, o.client, opName(o.cmd),
			o.due.Microseconds(), o.sent.Microseconds(), o.done.Microseconds(), o.ok})
	}
	for _, s := range traced.timeline {
		row := map[string]any{"t_ms": ms(s.t)}
		for i, n := range counterNames {
			row[n] = s.c[i]
		}
		for i, n := range gaugeNames {
			row[n] = s.g[i]
		}
		tf.Timeline = append(tf.Timeline, row)
	}
	return writeJSON(path, tf)
}
