// Command bench is the benchmark of record for the live multicoordinated
// stack: it stands a real ClusterSpec deployment up on loopback TCP through
// the public embedding API, drives four named workloads from a seeded
// generator, checks the outputs, and prints every metric by name with its
// unit. End-to-end numbers come from untraced repetitions; a traced pass and
// per-module drivers give the per-layer numbers. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

// options are the knobs of one invocation.
type options struct {
	seed   int64
	reps   int
	warm   time.Duration // warmup, but for the smoke test
	win    time.Duration
	scale  int // divides the drivers' sizes; 1 for a real run
	held   int // cores kept awake by holdCPUs
	outDir string
}

// warmup is the load run on each fresh deployment before its measured window.
const warmup = time.Second

func main() { os.Exit(run()) }

// run is main behind an exit code, so deferred clean-up runs before exit.
func run() int {
	var (
		name      = flag.String("workload", "", "run one workload (default: all four)")
		seed      = flag.Int64("seed", 1, "workload seed: same seed, same inputs")
		seconds   = flag.Int("seconds", runSeconds, "measured seconds per run, split evenly over the repetitions")
		trace     = flag.Int("trace", -1, "0: untraced repetitions, end-to-end metrics; 1: traced pass and drivers, per-layer metrics; default both")
		reps      = flag.Int("reps", defaultReps, "untraced repetitions per workload")
		compare   = flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
		selfcheck = flag.Bool("selfcheck", false, "run the full set twice and compare the two")
		emit      = flag.Bool("benchmark-json", false, "print BENCHMARK.json and exit")
		hold      = flag.Bool("hold-cpu", false, "internal: be one of holdCPUs' busy loops")
	)
	flag.Parse()
	if *hold {
		holdCPU()
	}
	if *emit {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		must(enc.Encode(benchmarkJSON()))
		return 0
	}
	if *compare {
		if flag.NArg() != 2 {
			fatalf("usage: -compare old.json new.json")
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	if *reps < 1 || *seconds < 1 {
		fatalf("-reps and -seconds must be at least 1")
	}
	if err := benchmarkJSONDrift("BENCHMARK.json"); err != nil {
		fatalf("%v", err)
	}
	opt := options{seed: *seed, reps: *reps, warm: warmup, scale: 1, outDir: "bench/out",
		win: time.Duration(*seconds) * time.Second / time.Duration(*reps)}
	if opt.win < time.Second {
		fatalf("measured window %v is below one second", opt.win)
	}
	ws := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fatalf("unknown workload %q", *name)
		}
		ws = []workload{w}
	}
	must(os.MkdirAll(opt.outDir, 0o755))
	passes := passBoth
	switch *trace {
	case 0:
		passes = passUntraced
	case 1:
		passes = passTraced
	}

	release, held := holdCPUs()
	defer release()
	opt.held = held
	if *selfcheck {
		// Ungated workloads cannot fail the comparison: leave them out.
		ws = slices.DeleteFunc(slices.Clone(ws), func(w workload) bool { return w.Ungated && *name == "" })
		first := runSet(os.Stdout, ws, opt, passUntraced)
		second := runSet(os.Stdout, ws, opt, passUntraced)
		return compareSets(os.Stdout, first, second)
	}
	set := runSet(os.Stdout, ws, opt, passes)
	path := filepath.Join(opt.outDir, "result_"+set.GitSHA+".json")
	must(writeJSON(path, set))
	fmt.Printf("results written to %s\n", path)
	if *name != "" && *trace >= 0 {
		// The driver's contract: the last line of standard output is one
		// JSON object with the pass's metrics.
		must(json.NewEncoder(os.Stdout).Encode(set.Workloads[0].contractLine(*trace == 1)))
	}
	if !set.correct() {
		return 1
	}
	return 0
}

const (
	passUntraced = 1 << iota
	passTraced
	passBoth = passUntraced | passTraced
)

// resultSet is what one invocation measured; it is the schema of
// bench/out/result_<gitsha>.json and the input of -compare.
type resultSet struct {
	GitSHA    string `json:"git_sha"`
	NProc     int    `json:"nproc"`
	GoVersion string `json:"go_version"`
	how
	Workloads []workloadResult `json:"workloads"`
}

// how is the way a set was measured. Two sets compare only when it is equal.
type how struct {
	Seed      int64   `json:"seed"`
	Reps      int     `json:"reps"`
	WindowS   float64 `json:"window_s"`
	WarmupS   float64 `json:"warmup_s"`
	CoresHeld int     `json:"cores_held"`
}

func (s resultSet) correct() bool {
	for _, w := range s.Workloads {
		if !w.Correct {
			return false
		}
	}
	return true
}

// stat is a metric's value of record — the median over the repetitions —
// with their extremes beside it.
type stat struct {
	Value float64 `json:"value"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

// workloadResult is one workload's rows and medians.
type workloadResult struct {
	Workload  string             `json:"workload"`
	Loop      string             `json:"loop"`
	Shape     string             `json:"shape"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Reps      []repResult        `json:"repetitions"`
	EndToEnd  map[string]stat    `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
}

// contractLine is the result object the driver reads.
func (r workloadResult) contractLine(traced bool) map[string]any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if traced {
		for _, m := range perLayer {
			metrics[m.Name] = value{r.PerLayer[m.Name], m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			metrics[m.Name] = value{r.EndToEnd[m.Name].Value, m.Unit}
		}
	}
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics}
}

func runSet(out io.Writer, ws []workload, opt options, passes int) resultSet {
	set := resultSet{GitSHA: gitSHA(), NProc: runtime.NumCPU(), GoVersion: runtime.Version(),
		how: how{opt.seed, opt.reps, opt.win.Seconds(), opt.warm.Seconds(), opt.held}}
	heldNote := fmt.Sprintf("%d cores held awake by idle-priority busy loops", opt.held)
	if opt.held == 0 {
		heldNote = "cores NOT held awake (compare only with other unheld runs)"
	}
	fmt.Fprintf(out, "mcpaxos benchmark of record: %d cores, GOMAXPROCS=%d, %s, seed %d, %d x (%v warm-up + %v measured), %s\n",
		set.NProc, runtime.GOMAXPROCS(0), set.GoVersion, opt.seed, opt.reps, opt.warm, opt.win, heldNote)
	for _, w := range ws {
		set.Workloads = append(set.Workloads, runWorkload(out, w, opt, passes))
	}
	return set
}

// runWorkload runs the requested passes of one workload and prints them.
func runWorkload(out io.Writer, w workload, opt options, passes int) workloadResult {
	store := "memory acceptors"
	if w.Durable {
		store = "WAL + snapshots on disk"
	}
	res := workloadResult{Workload: w.Name, Loop: w.loop(), Correct: true,
		Shape: fmt.Sprintf("%d shard(s) x %d coordinators, %d acceptors (%s), %d learners, %.0f%% Get / %.0f%% Set of %d B",
			w.Shards, coordsPerShard, nAcceptors, store, nLearners, w.GetShare*100, (1-w.GetShare)*100, w.ValueBytes)}
	fmt.Fprintf(out, "\n== %s: %s\n   %s; injected network delay 0 ms, so latency is processor + timer time\n",
		w.Name, res.Loop, res.Shape)
	add := func(r repResult) {
		res.Reps = append(res.Reps, r)
		res.Correct = res.Correct && r.Correct
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		printRep(out, len(res.Reps), r)
	}
	if passes&passUntraced != 0 {
		for i := 0; i < opt.reps; i++ {
			add(runRep(w, opt, opt.seed+int64(i), false))
		}
		res.EndToEnd = ofRecord(res.Reps)
		printEndToEnd(out, res)
	}
	if passes&passTraced != 0 {
		if len(res.Reps) == 0 {
			// No untraced pass in this invocation: run the one untraced
			// repetition the traced one is held against.
			add(runRep(w, opt, opt.seed, false))
		}
		// The traced repetition and the first untraced one share a seed, so
		// the two differ in the tracing alone.
		baseP50 := res.Reps[0].E2E["p50_ms"]
		traced := runRep(w, opt, opt.seed, true)
		add(traced)
		rec := &recorder{}
		drv, err := runDrivers(w, opt, rec)
		if err != nil {
			fmt.Fprintf(out, "drivers: %v\n", err)
			res.Correct = false
		}
		res.PerLayer = perLayerMetrics(w, traced, drv, baseP50)
		printPerLayer(out, res.PerLayer)
		path := filepath.Join(opt.outDir, "trace_"+w.Name+".json")
		if err := writeTrace(path, w, traced, rec); err != nil {
			fmt.Fprintf(out, "trace: %v\n", err)
			res.Correct = false
		} else {
			fmt.Fprintf(out, "trace written to %s\n", path)
		}
	}
	fmt.Fprintf(out, "%s: correct=%v attempted=%d failed=%d\n", w.Name, res.Correct, res.Attempted, res.Failed)
	return res
}

// ofRecord reduces the repetitions to each end-to-end metric's value of
// record: the median over all of them, a collapsed one counting like any other
// (its failed ops read as at least the request timeout), with the least and
// the greatest beside it. A repetition whose set-up failed has no values; it
// shows in attempted/failed and fails the correctness gate.
func ofRecord(reps []repResult) map[string]stat {
	out := map[string]stat{}
	for _, m := range endToEnd {
		var vs []float64
		for _, r := range reps {
			if v, ok := r.E2E[m.Name]; ok {
				vs = append(vs, v)
			}
		}
		lo, hi := minMax(vs)
		out[m.Name] = stat{Value: median(vs), Min: lo, Max: hi}
	}
	return out
}

// perLayerMetrics merges the traced repetition's live numbers with the
// drivers' and derives the attribution rows.
func perLayerMetrics(w workload, traced repResult, drv map[string]float64, baseP50 float64) map[string]float64 {
	out := map[string]float64{}
	for _, m := range perLayer {
		out[m.Name] = 0
	}
	for k, v := range traced.Live {
		out[k] = v
	}
	for k, v := range drv {
		out[k] = v
	}
	if baseP50 > 0 {
		out["trace.overhead_pct"] = (traced.E2E["p50_ms"] - baseP50) / baseP50 * 100
	}
	// The steps that block a command: one batch wait, four TCP hops (client →
	// coordinator → acceptor → learner → client), about eight mailbox hops,
	// the vote's durable append where there is a WAL, and the apply.
	path := out["batch.wait_ticks_p50"]*ms(tick) + 4*out["transport.tcp_hop_us_p50"]/1e3 +
		8*out["runtime.mailbox_hop_ns"]/1e6 + out["smr.apply_ns_per_op"]/1e6
	if w.Durable {
		path += out["wal.group_append_ms_p50"]
	}
	out["attrib.blocking_path_ms"] = path
	out["attrib.unexplained_ms"] = baseP50 - path
	return out
}

func printRep(out io.Writer, n int, r repResult) {
	kind := "untraced"
	if r.Traced {
		kind = "traced"
	}
	fmt.Fprintf(out, "rep %d (%s, seed %d): correct=%v attempted=%d failed=%d", n, kind, r.Seed, r.Correct, r.Attempted, r.Failed)
	for _, m := range endToEnd {
		if v, ok := r.E2E[m.Name]; ok {
			fmt.Fprintf(out, " %s=%.4g", m.Name, v)
		}
	}
	if r.Disturbed {
		fmt.Fprintf(out, " disturbed(gen.late_ms_max=%.1f)", r.Live["gen.late_ms_max"])
	}
	if r.GateErr != "" {
		fmt.Fprintf(out, " error: %s", r.GateErr)
	}
	fmt.Fprintln(out)
}

func printEndToEnd(out io.Writer, res workloadResult) {
	samples := 0
	for _, r := range res.Reps {
		samples += r.Samples
	}
	fmt.Fprintf(out, "end-to-end, median of %d repetitions (%d latency samples; p90_ms is the median over 1-s windows of each window's p90):\n",
		len(res.Reps), samples)
	for _, m := range endToEnd {
		s := res.EndToEnd[m.Name]
		fmt.Fprintf(out, "  %-36s %14.4f %-6s (min %.4f, max %.4f)\n", m.Name, s.Value, m.Unit, s.Min, s.Max)
	}
	fmt.Fprintf(out, "  %-36s %14.4f %-6s (%d failed of %d attempted)\n", "fail_share",
		perOp(float64(res.Failed), res.Attempted), "ratio", res.Failed, res.Attempted)
}

func printPerLayer(out io.Writer, vals map[string]float64) {
	fmt.Fprintln(out, "per-layer (live counters of the traced repetition; drivers replay the workload's stream through each module):")
	for _, m := range perLayer {
		fmt.Fprintf(out, "  %-36s %14.4f %s\n", m.Name, vals[m.Name], m.Unit)
	}
}

// gitSHA names the commit the binary was built from, when the build could
// see one.
func gitSHA() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 12 {
				return s.Value[:12]
			}
		}
	}
	return "nogit"
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func must(err error) {
	if err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}
