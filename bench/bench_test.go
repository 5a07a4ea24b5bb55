package main

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// BENCHMARK.json at the repo root is generated from the metric and workload
// tables (-benchmark-json); the two must not drift apart.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	if err := benchmarkJSONDrift("../BENCHMARK.json"); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
}

// Every workload runs end to end at a fraction of its size — one 1-s
// repetition per pass, drivers at 1/50 — passes its correctness gate, and
// prints every metric exactly once with its unit.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			opt := options{seed: 1, reps: 1, warm: 300 * time.Millisecond, win: time.Second, scale: 50, outDir: t.TempDir()}
			var out bytes.Buffer
			res := runWorkload(&out, w, opt, passBoth)
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("correct=%v failed=%d of %d\n%s", res.Correct, res.Failed, res.Attempted, out.String())
			}
			printed := map[string][]string{}
			for _, line := range strings.Split(out.String(), "\n") {
				if f := strings.Fields(line); strings.HasPrefix(line, "  ") && len(f) >= 3 {
					printed[f[0]] = append(printed[f[0]], f[2])
				}
			}
			for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
				if got := printed[m.Name]; len(got) != 1 || got[0] != m.Unit {
					t.Errorf("%s printed with units %v, want exactly once with %q", m.Name, got, m.Unit)
				}
			}
		})
	}
}

// The classic driver runs on the deterministic simulator: its counts must be
// bit-identical across two runs of one seed, so a later change can cite them.
func TestClassicDriverRepeatsExactly(t *testing.T) {
	run := func(w workload) map[string]float64 {
		out := map[string]float64{}
		cmds := newGen(w, 7, 1000).stream(driverOps / 50)
		flushes := driveBatch(w, cmds, &recorder{}, out)
		if err := driveClassic(w, 7, flushes, len(cmds), &recorder{}, out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, w := range workloads {
		a, b := run(w), run(w)
		for _, name := range []string{"batch.wait_ticks_p50", "batch.wait_ticks_p99", "classic.msgs_per_op",
			"classic.steps_to_learn", "classic.acceptor_writes_per_op", "classic.sim_round_changes"} {
			if a[name] != b[name] {
				t.Errorf("%s %s: %v then %v", w.Name, name, a[name], b[name])
			}
		}
		if a["classic.msgs_per_op"] == 0 || a["classic.steps_to_learn"] < 3 {
			t.Errorf("%s: implausible classic counts %v", w.Name, a)
		}
	}
}

// -compare passes a set against itself and fails on a metric past its bound,
// on sets measured differently, and on a gated workload gone missing or
// without values.
func TestCompareSets(t *testing.T) {
	set := func(p50 float64) resultSet {
		e2e := map[string]stat{}
		for _, m := range endToEnd {
			e2e[m.Name] = stat{Value: 1}
		}
		e2e["p50_ms"] = stat{Value: p50}
		return resultSet{how: how{Seed: 1, Reps: 5, WindowS: 3, WarmupS: 1, CoresHeld: 2},
			Workloads: []workloadResult{{Workload: "steady_open", Correct: true, Attempted: 100, EndToEnd: e2e}}}
	}
	base, bound := set(3), endToEnd[0].Bound // p50_ms
	unheld, empty, void := set(3), set(3), set(3)
	unheld.CoresHeld = 0
	empty.Workloads = nil
	void.Workloads[0].EndToEnd["p50_ms"] = stat{}
	for _, c := range []struct {
		name     string
		old, new resultSet
		want     int
	}{
		{"same", base, set(3), 0},
		{"inside the bound", base, set(3 * (1 + bound/2)), 0},
		{"past the bound", base, set(3 * (1 + bound*2)), 1},
		{"measured differently", base, unheld, 1},
		{"workload missing", base, empty, 1},
		{"nothing measured", base, void, 1},
		{"nothing to hold against", empty, empty, 1},
	} {
		var out bytes.Buffer
		if got := compareSets(&out, c.old, c.new); got != c.want {
			t.Errorf("%s: exit code %d, want %d\n%s", c.name, got, c.want, out.String())
		}
	}
}
