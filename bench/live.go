package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"mcpaxos"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/smr"
)

// opRec is the benchmark's span for one client op: when it was due, when the
// generator sent it, when its Call resolved, and with what. Records are kept
// in memory in every run — the correctness gate replays them — and written
// to the trace file by the traced pass. Times count from the load start.
type opRec struct {
	id        uint64
	cmd       cstruct.Cmd
	client    int
	due, sent time.Duration
	done      time.Duration
	// late is how long after it could have been sent the op was sent: after
	// its due time in an open loop, after the caller's previous op resolved
	// in a closed one.
	late   time.Duration
	ok     bool
	result string
}

// latency is what the caller saw: from the due time (open loop; equals the
// submit time in a closed loop). A failed op misses every latency limit, so
// it counts as at least the request timeout.
func (o *opRec) latency() time.Duration {
	l := o.done - o.due
	if !o.ok && l < requestTimeout {
		l = requestTimeout
	}
	return l
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Cumulative counters sampled around the measured window; a live metric is
// the delta between two samples.
const (
	cCPU = iota // process user+sys CPU, ns
	cRetries
	cRotations
	cDupReplies
	cReplayProbes
	cBytesOut
	cFramesOut
	cFramesIn
	cEncodeNs
	cDecodeNs
	cStamped
	cRestamped
	cFilled
	cRoundChanges
	cMallocs
	cAllocBytes
	cGCPauseNs
	nCounters
)

// Gauges sampled with the counters; the traced pass reports their maxima
// over its 1-Hz timeline.
const (
	gAppliedA = iota
	gAppliedB
	gMergeBuffered
	gHeapInuse
	gGoroutines
	gSnapSaves
	gSnapBytes
	gResidentLog
	gWALSegments
	gWALBytes
	nGauges
)

var counterNames = [nCounters]string{"cpu_ns", "client_retries", "client_rotations", "dup_replies",
	"replay_probes", "wire_bytes_out", "frames_out", "frames_in", "encode_ns", "decode_ns",
	"stamped", "restamped", "filled", "round_changes", "mallocs", "alloc_bytes", "gc_pause_ns"}

var gaugeNames = [nGauges]string{"applied_300", "applied_301", "merge_buffered", "heap_inuse",
	"goroutines", "snapshot_saves", "snapshot_bytes", "resident_log", "wal_segments", "wal_bytes"}

// sample is one reading of every live counter and gauge.
type sample struct {
	t time.Duration
	c [nCounters]float64
	g [nGauges]float64
}

// deployment is one live cluster on loopback TCP, every node in this process.
type deployment struct {
	w       workload
	rep     *mcpaxos.Replica
	clients []*mcpaxos.Client
	dir     string // WAL + snapshot scratch; "" for memory acceptors
	setup   time.Duration
	ops     []*opRec // every op proposed so far, warm-up writes included
}

// scratchDir makes a fresh directory for WAL, snapshot or driver files under
// the output directory: inside the checkout (the benchmark writes nowhere
// else) and on its disk.
func scratchDir(outDir, prefix string) (string, error) {
	root := filepath.Join(outDir, "scratch")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, prefix)
}

// openDeployment stands the workload's cluster up through the embedding API
// and times it: spec creation to every client's per-shard warm-up write acked.
func openDeployment(w workload, outDir string) (*deployment, error) {
	t0 := time.Now()
	d := &deployment{w: w}
	spec := mcpaxos.LocalSpec(w.Shards, coordsPerShard, nAcceptors, nLearners, nClients)
	spec.Window = window
	spec.SnapshotEvery = snapshotEvery
	spec.RequestTimeout = requestTimeout
	spec.RetryEvery = retryEvery
	spec.FillAfter = fillAfter
	if w.Durable {
		dir, err := scratchDir(outDir, w.Name+"-")
		if err != nil {
			return nil, err
		}
		d.dir = dir
		spec.WALDir = filepath.Join(dir, "wal")
		spec.SnapshotDir = filepath.Join(dir, "snap")
	}
	spec, err := spec.ResolveEphemeral()
	if err != nil {
		d.close()
		return nil, err
	}
	if d.rep, err = mcpaxos.OpenReplica(spec); err != nil {
		d.close()
		return nil, err
	}
	for _, c := range spec.Clients {
		cli, err := mcpaxos.DialClient(spec, c.ID)
		if err != nil {
			d.close()
			return nil, err
		}
		d.clients = append(d.clients, cli)
	}
	// A client spreads its submissions round-robin over the shards, so
	// Shards writes per client reach every shard's group from every client.
	var calls []*mcpaxos.Call
	for ci, cli := range d.clients {
		for s := 0; s < w.Shards; s++ {
			cmd := smr.SetCmd(0, "warm", "x")
			call := cli.Propose(cmd)
			cmd.ID = call.ID
			d.ops = append(d.ops, &opRec{id: call.ID, cmd: cmd, client: ci, ok: true, result: "ok"})
			calls = append(calls, call)
		}
	}
	if err := d.clients[0].Wait(calls, 10*time.Second); err != nil {
		d.close()
		return nil, fmt.Errorf("warm-up write: %w", err)
	}
	d.setup = time.Since(t0)
	return d, nil
}

// close tears the deployment down under a watchdog — a collapsed deployment
// has been seen to spin in Close for minutes — and removes its scratch
// directory. It reports whether everything stopped in time.
func (d *deployment) close() bool {
	done := make(chan struct{})
	go func() {
		for _, c := range d.clients {
			c.Close()
		}
		if d.rep != nil {
			d.rep.Close()
		}
		close(done)
	}()
	ok := true
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		ok = false
	}
	if d.dir != "" {
		os.RemoveAll(d.dir)
	}
	return ok
}

// cpuNanos is the process's user+sys CPU time so far.
func cpuNanos() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Utime.Nano() + ru.Stime.Nano())
}

// sample reads every live counter. Coordinator and client counters travel
// through the nodes' mailboxes, so a sample costs a few mailbox round trips.
func (d *deployment) sample(start time.Time) sample {
	s := sample{t: time.Since(start)}
	s.c[cCPU] = cpuNanos()
	net := d.rep.NetStats()
	for _, cli := range d.clients {
		st := cli.Stats()
		s.c[cRetries] += float64(st.Retries)
		s.c[cRotations] += float64(st.Rotations)
		s.c[cDupReplies] += float64(st.DupReplies)
		s.c[cReplayProbes] += float64(st.ReplayProbes)
		net = net.Plus(cli.NetStats())
	}
	s.c[cBytesOut], s.c[cFramesOut], s.c[cFramesIn] = float64(net.BytesOut), float64(net.FramesOut), float64(net.FramesIn)
	s.c[cEncodeNs], s.c[cDecodeNs] = float64(net.EncodeNanos), float64(net.DecodeNanos)
	stamped, restamped, filled := d.rep.IngressCounts()
	s.c[cStamped], s.c[cRestamped], s.c[cFilled] = float64(stamped), float64(restamped), float64(filled)
	s.c[cRoundChanges] = float64(d.rep.RoundChanges())
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s.c[cMallocs], s.c[cAllocBytes], s.c[cGCPauseNs] = float64(m.Mallocs), float64(m.TotalAlloc), float64(m.PauseTotalNs)

	for i, id := range []uint32{learnerA, learnerB} {
		if n, err := d.rep.Applied(id); err == nil {
			s.g[gAppliedA+i] = float64(n)
		}
		if _, buffered, err := d.rep.Progress(id); err == nil && float64(buffered) > s.g[gMergeBuffered] {
			s.g[gMergeBuffered] = float64(buffered)
		}
	}
	s.g[gHeapInuse], s.g[gGoroutines] = float64(m.HeapInuse), float64(runtime.NumGoroutine())
	cs := d.rep.CompactionStats()
	s.g[gSnapSaves], s.g[gSnapBytes], s.g[gResidentLog] = float64(cs.Saves), float64(cs.SnapBytes), float64(cs.ResidentLog)
	segs, _, bytes := d.rep.WALDiskStats()
	s.g[gWALSegments], s.g[gWALBytes] = float64(segs), float64(bytes)
	return s
}

// repResult is one repetition: a fresh deployment, warm-up, measured window,
// correctness gate, teardown.
type repResult struct {
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	GateErr   string             `json:"gate_error,omitempty"`
	Disturbed bool               `json:"disturbed"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Samples   int                `json:"latency_samples"`
	E2E       map[string]float64 `json:"end_to_end"`
	Live      map[string]float64 `json:"live"`

	ops      []*opRec
	timeline []sample
}

// failedRep is the row of a repetition that could not run or be torn down:
// everything attempted counts as failed.
func failedRep(seed int64, traced bool, err error) repResult {
	return repResult{Seed: seed, Traced: traced, GateErr: err.Error(), Attempted: 1, Failed: 1,
		E2E: map[string]float64{}, Live: map[string]float64{"deploy.fail_share": 1}}
}

// runRep runs one repetition of w: opt.warm of warm-up, then the measured
// window opt.win. The traced pass adds the 1-Hz counter timeline and the
// catch-up probe.
func runRep(w workload, opt options, seed int64, traced bool) repResult {
	warm, win := opt.warm, opt.win
	d, err := openDeployment(w, opt.outDir)
	if err != nil {
		return failedRep(seed, traced, fmt.Errorf("setup: %w", err))
	}
	res := repResult{Seed: seed, Traced: traced, E2E: map[string]float64{}, Live: map[string]float64{}}
	res.E2E["setup_s"] = d.setup.Seconds()

	start := time.Now()
	wEnd := warm + win
	// Hard wall deadline: past it every unanswered op is failed and the
	// repetition moves on, whatever state the deployment is in.
	hard := make(chan struct{})
	hardTimer := time.AfterFunc(wEnd+requestTimeout+5*time.Second, func() { close(hard) })
	defer hardTimer.Stop()

	mon := &monitor{d: d, start: start, traced: traced}
	monDone := make(chan struct{})
	go func() { mon.run(warm, win); close(monDone) }()
	ops := runLoad(d, seed, start, wEnd, w.Callers, hard)
	<-monDone
	d.ops = append(d.ops, ops...)
	res.ops, res.timeline = ops, mon.timeline

	res.measure(w, mon, ops)
	var gateErr error
	if w.Kill {
		// The killed coordinator comes back once the load has drained, not
		// under it: at HEAD one restart in five to ten under 200 ops/s sets
		// off a round-change storm that fails every later op (README, known
		// cliffs), and a gated workload must be one on which no op fails.
		if err := d.rep.Restart(killedCoord); err != nil {
			gateErr = fmt.Errorf("restart coordinator %d: %w", killedCoord, err)
		}
	}
	if gateErr == nil {
		gateErr = d.gate(w.Kill)
	}
	if gateErr == nil && traced {
		gateErr = d.catchupProbe(seed, res.Live, hard)
	}
	if !d.close() && gateErr == nil {
		gateErr = fmt.Errorf("teardown: Close still running after 5s")
		res.Failed = res.Attempted
		res.Live["deploy.fail_share"] = 1
	}
	res.Correct = gateErr == nil
	if gateErr != nil {
		res.GateErr = gateErr.Error()
	}
	return res
}

// monitor samples the live counters at the window's edges (every second too
// in the traced pass) and carries out the coordinator kill, all on one
// goroutine so samples and the fault are sequenced.
type monitor struct {
	d      *deployment
	start  time.Time
	traced bool

	first, last sample
	// preKill/postKill bracket Replica.Kill: the killed node's counters
	// vanish with it, so deltas are summed on either side of the bracket.
	preKill, postKill sample
	killAt            time.Duration
	timeline          []sample
}

func (m *monitor) run(warm, win time.Duration) {
	type event struct {
		at time.Duration
		fn func()
	}
	read := func() sample {
		s := m.d.sample(m.start)
		m.timeline = append(m.timeline, s)
		return s
	}
	events := []event{
		{warm, func() { m.first = read() }},
		{warm + win, func() { m.last = read() }},
	}
	if m.traced {
		for t := warm + time.Second; t < warm+win; t += time.Second {
			events = append(events, event{t, func() { read() }})
		}
	}
	if m.d.w.Kill {
		events = append(events, event{warm + win/3, func() {
			m.preKill = m.d.sample(m.start)
			m.killAt = time.Since(m.start)
			m.d.rep.Kill(killedCoord)
			m.postKill = m.d.sample(m.start)
		}})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].at < events[j].at })
	for _, e := range events {
		time.Sleep(time.Until(m.start.Add(e.at)))
		e.fn()
	}
}

// delta sums each counter's growth over the measured window, skipping the
// discontinuity a kill leaves.
func (m *monitor) delta() [nCounters]float64 {
	var out [nCounters]float64
	segs := [][2]sample{{m.first, m.last}}
	if m.d.w.Kill {
		segs = [][2]sample{{m.first, m.preKill}, {m.postKill, m.last}}
	}
	for _, s := range segs {
		for i := range out {
			out[i] += s[1].c[i] - s[0].c[i]
		}
	}
	return out
}

// runLoad drives the workload from start until end and returns one record
// per op, once every op has resolved (or the hard deadline has passed).
// callers > 0 selects the closed loop.
func runLoad(d *deployment, seed int64, start time.Time, end time.Duration, callers int, hard <-chan struct{}) []*opRec {
	streams := nClients
	if callers > 0 {
		streams = callers
	}
	out := make([][]*opRec, streams)
	var wg sync.WaitGroup
	for k := 0; k < streams; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := newGen(d.w, seed, k)
			if callers > 0 {
				out[k] = closedCaller(d.clients[k%nClients], k%nClients, g, start, end, hard)
			} else {
				out[k] = openClient(d.clients[k], k, g, d.w.Rate, start, end, hard)
			}
		}()
	}
	wg.Wait()
	var ops []*opRec
	for _, o := range out {
		ops = append(ops, o...)
	}
	return ops
}

// resolve waits for the op's call and fills in its outcome.
func (o *opRec) resolve(call *mcpaxos.Call, start time.Time, hard <-chan struct{}) {
	select {
	case <-call.Done():
		res, err := call.Result()
		o.done, o.ok, o.result = o.sent+call.Latency(), err == nil, res
	case <-hard:
		o.done = time.Since(start)
	}
}

// closedCaller is one caller of a closed loop: it submits its next op only
// once the previous one has resolved.
func closedCaller(cli *mcpaxos.Client, ci int, g *gen, start time.Time, end time.Duration, hard <-chan struct{}) []*opRec {
	var ops []*opRec
	free := time.Since(start) // when the caller became free to submit
	for {
		cmd := g.next()
		now := time.Since(start)
		if now >= end {
			return ops
		}
		o := &opRec{cmd: cmd, client: ci, due: now, sent: now, late: now - free}
		call := cli.Propose(o.cmd)
		o.id, o.cmd.ID = call.ID, call.ID
		o.resolve(call, start, hard)
		free = time.Since(start)
		ops = append(ops, o)
		select {
		case <-hard:
			return ops
		default:
		}
	}
}

// openClient is one client's half of an open loop: a scheduler that sends
// op i of the merged stream at i/rate seconds whatever the deployment is
// doing, and a FIFO collector on Call.Done — no goroutine per op.
func openClient(cli *mcpaxos.Client, ci int, g *gen, rate int, start time.Time, end time.Duration, hard <-chan struct{}) []*opRec {
	total := int(int64(end) * int64(rate) / int64(time.Second))
	type pending struct {
		o    *opRec
		call *mcpaxos.Call
	}
	// Sized to the client's whole schedule, so the scheduler never blocks
	// on a slow collector.
	ch := make(chan pending, total/nClients+1)
	var ops []*opRec
	collected := make(chan struct{})
	go func() {
		for p := range ch {
			p.o.resolve(p.call, start, hard)
			ops = append(ops, p.o)
		}
		close(collected)
	}()
	for i := ci; i < total; i += nClients {
		due := time.Duration(int64(i) * int64(time.Second) / int64(rate))
		time.Sleep(time.Until(start.Add(due)))
		o := &opRec{cmd: g.next(), client: ci, due: due, sent: time.Since(start)}
		o.late = o.sent - o.due
		call := cli.Propose(o.cmd)
		o.id, o.cmd.ID = call.ID, call.ID
		ch <- pending{o, call}
	}
	close(ch)
	<-collected
	return ops
}

// measure turns the repetition's op records and counter samples into its
// end-to-end and live per-layer metrics.
func (r *repResult) measure(w workload, m *monitor, ops []*opRec) {
	wStart, wEnd := m.first.t, m.last.t
	winS := (wEnd - wStart).Seconds()
	// The last two thirds of the window are where coord_kill has coordinator
	// 100 down; the other workloads report the same stretch, undisturbed.
	outageFrom := wStart + (wEnd-wStart)/3
	if w.Kill {
		outageFrom = m.killAt
	}
	var lat, late []float64
	var doneAt []time.Duration
	var outage []float64
	// 1-s windows of the measured window, by due time. The edge samples land
	// a few ms off the whole second, hence the rounding; a trailing part of a
	// second joins the last window.
	buckets := make([][]float64, max(1, int((wEnd-wStart+time.Second/2)/time.Second)))
	completed := 0
	for _, o := range ops {
		if o.ok && o.done >= wStart && o.done < wEnd {
			completed++
			doneAt = append(doneAt, o.done)
		}
		if o.due < wStart || o.due >= wEnd {
			continue
		}
		r.Attempted++
		if !o.ok {
			r.Failed++
		}
		l := ms(o.latency())
		lat = append(lat, l)
		late = append(late, ms(o.late))
		k := min(int((o.due-wStart)/time.Second), len(buckets)-1)
		buckets[k] = append(buckets[k], l)
		if o.due >= outageFrom {
			outage = append(outage, l)
		}
	}
	r.Samples = len(lat)
	if r.Attempted == 0 {
		r.Attempted, r.Failed = 1, 1 // nothing was even due: the run is void
	}
	sort.Float64s(lat)
	r.E2E["p50_ms"] = percentile(lat, 50)
	var p90s, p99s []float64
	for _, b := range buckets {
		if len(b) > 0 {
			sort.Float64s(b)
			p90s, p99s = append(p90s, percentile(b, 90)), append(p99s, percentile(b, 99))
		}
	}
	r.E2E["p90_ms"] = median(p90s)
	r.E2E["goodput_ops_s"] = float64(completed) / winS
	dc := m.delta()

	live := r.Live
	live["deploy.fail_share"] = float64(r.Failed) / float64(r.Attempted)
	live["deploy.p99_ms"] = median(p99s)
	// The longest gap between consecutive completions, from the kill on where
	// there is one.
	sort.Slice(doneAt, func(i, j int) bool { return doneAt[i] < doneAt[j] })
	prev, stall := max(wStart, m.killAt), time.Duration(0)
	for _, t := range doneAt {
		if t >= prev {
			stall, prev = max(stall, t-prev), t
		}
	}
	live["deploy.stall_ms"] = ms(max(stall, wEnd-prev))
	live["deploy.outage_p50_ms"] = median(outage)
	kop := float64(completed) / 1000
	perK := func(c int) float64 {
		if kop == 0 {
			return 0
		}
		return dc[c] / kop
	}
	live["deploy.client_retries_per_kop"] = perK(cRetries)
	live["deploy.client_rotations_per_kop"] = perK(cRotations)
	live["deploy.dup_replies_per_op"] = perOp(dc[cDupReplies], completed)
	live["deploy.replay_probes_per_kop"] = perK(cReplayProbes)
	live["deploy.round_changes"] = dc[cRoundChanges]
	live["deploy.restamped_per_kop"] = perK(cRestamped)
	live["deploy.filled_per_kop"] = perK(cFilled)
	if dc[cStamped] > 0 {
		live["batch.ops_per_instance"] = float64(completed) / dc[cStamped]
	}
	live["transport.wire_bytes_per_op"] = perOp(dc[cBytesOut], completed)
	live["transport.frames_per_op"] = perOp(dc[cFramesOut], completed)
	if dc[cFramesOut] > 0 {
		live["transport.encode_ns_per_frame"] = dc[cEncodeNs] / dc[cFramesOut]
	}
	if dc[cFramesIn] > 0 {
		live["transport.decode_ns_per_frame"] = dc[cDecodeNs] / dc[cFramesIn]
	}
	live["proc.cpu_us_per_op"] = perOp(dc[cCPU]/1e3, completed)
	live["proc.allocs_per_op"] = perOp(dc[cMallocs], completed)
	live["proc.alloc_bytes_per_op"] = perOp(dc[cAllocBytes], completed)
	live["proc.gc_pause_ms_total"] = dc[cGCPauseNs] / 1e6
	live["wal.bytes_per_op"] = perOp(m.last.g[gWALBytes]-m.first.g[gWALBytes], completed)
	live["wal.segments_end"] = m.last.g[gWALSegments]
	live["snapshot.saves"] = m.last.g[gSnapSaves] - m.first.g[gSnapSaves]
	live["snapshot.bytes_end"] = m.last.g[gSnapBytes]
	for _, s := range m.timeline {
		lag := s.g[gAppliedA] - s.g[gAppliedB]
		live["deploy.learner_lag_ops_max"] = max(live["deploy.learner_lag_ops_max"], lag, -lag)
		live["deploy.merge_buffered_max"] = max(live["deploy.merge_buffered_max"], s.g[gMergeBuffered])
		live["snapshot.resident_log_max"] = max(live["snapshot.resident_log_max"], s.g[gResidentLog])
		live["proc.heap_mb_peak"] = max(live["proc.heap_mb_peak"], s.g[gHeapInuse]/(1<<20))
		live["proc.goroutines_max"] = max(live["proc.goroutines_max"], s.g[gGoroutines])
	}
	sort.Float64s(late)
	live["gen.late_ms_p99"] = percentile(late, 99)
	live["gen.late_ms_max"] = percentile(late, 100)
	// An open-loop generator that ran this late means the host, not the
	// deployment, set the latencies: flag the repetition, keep it.
	r.Disturbed = w.open() && live["gen.late_ms_max"] > 25
}

// catchupProbe measures recovery after the traced window: learner 301 is
// killed, one second of closed-loop load runs without it, and the clock runs
// from its restart until its catch-up pull reports synced and it has applied
// as much as learner 300. Escalations are snapshot installs it needed.
func (d *deployment) catchupProbe(seed int64, live map[string]float64, hard <-chan struct{}) error {
	d.rep.Kill(learnerB)
	before := d.rep.CatchupStats().SnapInstalls
	start := time.Now()
	d.ops = append(d.ops, runLoad(d, seed+7919, start, time.Second, nClients, hard)...)
	t0 := time.Now()
	if err := d.rep.Restart(learnerB); err != nil {
		return fmt.Errorf("catch-up probe: restart learner: %w", err)
	}
	for {
		synced, _ := d.rep.CatchupSynced(learnerB)
		a, _ := d.rep.Applied(learnerA)
		b, _ := d.rep.Applied(learnerB)
		if synced && a == b {
			break
		}
		if time.Since(t0) > 10*time.Second {
			return fmt.Errorf("catch-up probe: learner %d not synced after 10s (applied %d vs %d)", learnerB, b, a)
		}
		time.Sleep(time.Millisecond)
	}
	live["catchup.resync_ms"] = ms(time.Since(t0))
	live["catchup.escalations"] = float64(d.rep.CatchupStats().SnapInstalls - before)
	return d.gate(false)
}
