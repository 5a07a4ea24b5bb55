package main

import (
	"fmt"
	"math"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"mcpaxos/internal/ballot"
	"mcpaxos/internal/batch"
	"mcpaxos/internal/classic"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/node"
	mcrt "mcpaxos/internal/runtime"
	"mcpaxos/internal/smr"
	"mcpaxos/internal/snapshot"
	"mcpaxos/internal/storage"
	"mcpaxos/internal/transport"
	"mcpaxos/internal/wal"
)

// The per-module drivers replay the workload's own command stream, single
// threaded, through each module's public API and time the calls from
// outside. Calls that take microseconds or more get one span each; calls
// that take nanoseconds are timed a chunk at a time, because reading the
// clock around each would measure the clock.
const (
	driverOps = 20000 // commands in the replayed stream
	chunk     = 256   // calls per span for nanosecond-scale calls
)

// sink keeps the compiler from discarding a timed call's result.
var sink int

// runDrivers runs every module's driver for w. opt.scale divides the sizes
// (the smoke test runs at 1/50).
func runDrivers(w workload, opt options, rec *recorder) (map[string]float64, error) {
	seed, scale := opt.seed, opt.scale
	out := map[string]float64{}
	cmds := newGen(w, seed, 1000).stream(driverOps / scale)
	flushes := driveBatch(w, cmds, rec, out)
	if err := driveClassic(w, seed, flushes, len(cmds), rec, out); err != nil {
		return out, err
	}
	if err := driveTransport(cmds, scale, rec, out); err != nil {
		return out, err
	}
	driveRuntime(scale, rec, out)
	// Only durable_mixed's live path has a WAL; the driver still runs for every
	// workload, on its vote records (64 B or 256 B values, batched as its
	// arrivals batch).
	if err := driveWAL(flushes, opt, rec, out); err != nil {
		return out, err
	}
	driveSMR(w, cmds, rec, out)
	if err := driveSnapshot(w, opt, rec, out); err != nil {
		return out, err
	}
	return out, nil
}

// timeChunks calls fn(i) for i in [0, n), one span per chunk of calls, and
// returns the mean wall nanoseconds per call.
func timeChunks(rec *recorder, name, parent string, n int, fn func(i int)) float64 {
	var total time.Duration
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		t0 := time.Now()
		for i := lo; i < hi; i++ {
			fn(i)
		}
		t1 := time.Now()
		rec.record(name, parent, lo, hi-lo, t0, t1)
		total += t1.Sub(t0)
	}
	return perOp(float64(total), n)
}

// flushed is one batch (or lone command) the ingress batcher emitted.
type flushed struct {
	shard int
	seq   uint64
	cmd   cstruct.Cmd
}

// restOfPathUs is how long after its batch flushes a closed-loop caller gets
// its reply and submits again, in the batch driver's virtual closed loop. It
// stands in for everything downstream of the batcher (about 1 ms at HEAD).
const restOfPathUs = 1000

// driveBatch feeds batch.Router the workload's arrival schedule on a virtual
// microsecond clock — op i of an open loop arrives at i/rate; a closed-loop
// caller submits again restOfPathUs after its batch flushed — so the batch
// wait is exact, repeats bit for bit, and is reported in protocol ticks. It then times Route, Pack and
// Unpack on the wall clock. It returns the flush sequence for the classic
// and wal drivers.
func driveBatch(w workload, cmds []cstruct.Cmd, rec *recorder, out map[string]float64) []flushed {
	const parent = "driver:batch"
	n := len(cmds)
	waitUs := int64(batchWait / time.Microsecond)
	var (
		clock    int64
		flushes  []flushed
		waits    = make([]float64, 0, n)
		arrival  = make([]int64, n)
		index    = make(map[uint64]int, n) // command ID → position in cmds
		deadline = make([]int64, w.Shards) // when each shard's timer fires; -1 unarmed
		onFlush  = func(int) {}
	)
	for i, c := range cmds {
		index[c.ID] = i
	}
	for k := range deadline {
		deadline[k] = -1
	}
	router := batch.NewRouter(w.Shards, batchMax, waitUs, func() int64 { return clock },
		func(shard int, seq uint64, c cstruct.Cmd) {
			flushes = append(flushes, flushed{shard, seq, c})
			deadline[shard] = -1
			inner, ok := batch.Unpack(c)
			if !ok {
				inner = []cstruct.Cmd{c}
			}
			for _, ic := range inner {
				i := index[ic.ID]
				waits = append(waits, float64(clock-arrival[i])/float64(tick/time.Microsecond))
				onFlush(i)
			}
		})
	// fireNext runs the earliest batch timer due by virtual time t, if any.
	fireNext := func(t int64) bool {
		next := int64(-1)
		for _, d := range deadline {
			if d >= 0 && d <= t && (next < 0 || d < next) {
				next = d
			}
		}
		if next < 0 {
			return false
		}
		clock = next
		router.Tick()
		return true
	}
	fireUntil := func(t int64) {
		for fireNext(t) {
		}
	}
	// Each client spreads its own submissions round-robin over the shards.
	var sent [nClients]int
	route := func(i, client int, t int64) {
		fireUntil(t)
		clock, arrival[i] = t, t
		shard := sent[client] % w.Shards
		sent[client]++
		if router.PendingShard(shard) == 0 {
			deadline[shard] = t + waitUs
		}
		router.RouteTo(shard, cmds[i])
	}
	if w.open() {
		for i := range cmds {
			route(i, i%nClients, int64(i)*1e6/int64(w.Rate))
		}
	} else {
		// Virtual closed loop: a caller's next arrival is unknown (-1) until
		// the batch holding its op has flushed.
		next := make([]int64, w.Callers)
		caller := make([]int, n)
		for k := range next {
			next[k] = int64(k) * 100
		}
		onFlush = func(i int) { next[caller[i]] = clock + restOfPathUs }
		for i := range cmds {
			k := -1
			for k < 0 {
				for c, t := range next {
					if t >= 0 && (k < 0 || t < next[k]) {
						k = c
					}
				}
				if k < 0 { // every caller is waiting on a batch timer
					fireNext(math.MaxInt64)
				}
			}
			t := next[k]
			next[k], caller[i] = -1, k
			route(i, k%nClients, t)
		}
	}
	fireUntil(math.MaxInt64)
	sort.Float64s(waits)
	out["batch.wait_ticks_p50"] = percentile(waits, 50)
	out["batch.wait_ticks_p99"] = percentile(waits, 99)

	static := batch.NewRouter(w.Shards, batchMax, waitUs, func() int64 { return 0 },
		func(int, uint64, cstruct.Cmd) { sink++ })
	out["batch.route_ns_per_op"] = timeChunks(rec, "batch.Router.Route", parent, n, func(i int) { static.Route(cmds[i]) })
	groups := n / batchMax
	packed := make([]cstruct.Cmd, groups)
	perGroup := timeChunks(rec, "batch.Pack", parent, groups, func(i int) {
		packed[i] = batch.Pack(cmds[i*batchMax : (i+1)*batchMax])
	})
	out["batch.pack_ns_per_op"] = perGroup / batchMax
	perGroup = timeChunks(rec, "batch.Unpack", parent, groups, func(i int) {
		inner, _ := batch.Unpack(packed[i])
		sink += len(inner)
	})
	out["batch.unpack_ns_per_op"] = perGroup / batchMax
	return flushes
}

// driveClassic runs the flush sequence through classic.NewCluster on the
// deterministic simulator (unit latency, the workload's shape, one proposal
// every four steps so the pipeline never queues): the counts are exact and
// repeat bit for bit for a seed. For coord_kill's shape shard 0's first
// coordinator crashes a third of the way in and stays down.
func driveClassic(w workload, seed int64, flushes []flushed, ops int, rec *recorder, out map[string]float64) error {
	const parent = "driver:classic"
	const spacing = 4
	cl := classic.NewCluster(classic.ClusterOpts{
		NCoords: w.Shards * coordsPerShard, NAcceptors: nAcceptors, NLearners: nLearners, F: 1, Seed: seed,
		MaxInflight: window, Shards: w.Shards, CoordsPerShard: coordsPerShard,
	})
	cl.LeadAll()
	cl.Sim.Metrics().Reset()
	writes0 := cl.TotalDiskWrites()
	base := cl.Sim.Now()
	proposedAt := make(map[uint64]int64, len(flushes))
	for k, f := range flushes {
		at := base + int64(k)*spacing
		proposedAt[f.cmd.ID] = at
		cl.Sim.At(at, func() { cl.Prop.ProposeSeq(f.shard, f.seq, f.cmd) })
	}
	if w.Kill {
		victim := cl.Cfg.Coords[0]
		cl.Sim.At(base+int64(len(flushes)/3)*spacing, func() { cl.Sim.Crash(victim) })
	}
	events := 0
	var total time.Duration
	for more := true; more; {
		t0 := time.Now()
		n := 0
		for n < chunk && more {
			if more = cl.Sim.Step(); more {
				n++
			}
		}
		t1 := time.Now()
		rec.record("sim.Sim.Step", parent, events, n, t0, t1)
		events += n
		total += t1.Sub(t0)
	}
	if len(cl.LearnedCmds) != len(flushes) {
		return fmt.Errorf("classic driver: learned %d of %d instances", len(cl.LearnedCmds), len(flushes))
	}
	var steps float64
	for inst, c := range cl.LearnedCmds {
		steps += float64(cl.LearnTime[inst] - proposedAt[c.ID])
	}
	out["classic.msgs_per_op"] = perOp(float64(cl.Sim.Metrics().TotalSent()), ops)
	out["classic.steps_to_learn"] = perOp(steps, len(flushes))
	out["classic.acceptor_writes_per_op"] = perOp(float64(cl.TotalDiskWrites()-writes0), ops)
	out["classic.sim_round_changes"] = float64(cl.RoundChanges())
	out["classic.step_ns_per_event"] = perOp(float64(total), events)
	return nil
}

// voteMsgs are the four messages on a command's blocking path, shaped like
// the workload's commands.
func voteMsgs(i int, c cstruct.Cmd) [4]msg.Message {
	rnd := ballot.Ballot{MCount: 1, MinCount: 1, ID: 100, RType: 1}
	val := cstruct.NewSingleValue(c)
	result := "ok"
	if c.Op == cstruct.OpRead {
		result = "=" + string(make([]byte, 256))
	}
	return [4]msg.Message{
		msg.Propose{Cmd: c, Client: 1, Req: uint64(i)},
		msg.P2a{Inst: uint64(i), Rnd: rnd, Coord: 100, Val: val},
		msg.P2b{Inst: uint64(i), Rnd: rnd, Acc: 200, Val: val},
		msg.Reply{CmdID: c.ID, From: learnerA, Inst: uint64(i), Result: result},
	}
}

// driveTransport measures the codec's decode allocations, then one TCP hop
// (Send to the receive callback, one message in flight) and the pipelined
// frame rate between two transport.TCP endpoints on loopback.
func driveTransport(cmds []cstruct.Cmd, scale int, rec *recorder, out map[string]float64) error {
	const parent = "driver:transport"
	codec := transport.Codec{Set: cstruct.SingleValueSet{}}
	var frames [][]byte
	for i, c := range cmds[:min(len(cmds), 1000)] {
		for _, m := range voteMsgs(i, c) {
			b, err := codec.Encode(m)
			if err != nil {
				return fmt.Errorf("transport driver: encode %T: %w", m, err)
			}
			frames = append(frames, b)
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, b := range frames {
		if _, err := codec.Decode(b); err != nil {
			return fmt.Errorf("transport driver: decode: %w", err)
		}
	}
	runtime.ReadMemStats(&m1)
	out["transport.codec_decode_allocs_per_msg"] = perOp(float64(m1.Mallocs-m0.Mallocs), len(frames))

	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		lnA.Close()
		return err
	}
	addrs := map[msg.NodeID]string{1: lnA.Addr().String(), 2: lnB.Addr().String()}
	const inflight = 256 // well under the transport's 1024-deep send queue, so nothing is dropped
	arrived := make(chan time.Time, inflight)
	a := transport.NewTCPOnListener(1, lnA, addrs, codec, func(msg.NodeID, msg.Message) {})
	b := transport.NewTCPOnListener(2, lnB, addrs, codec, func(msg.NodeID, msg.Message) { arrived <- time.Now() })
	defer a.Close()
	defer b.Close()
	send := func(i int) error {
		return a.Send(2, voteMsgs(i, cmds[i%len(cmds)])[1])
	}
	for i := 0; i < 16; i++ { // dial and warm the connection
		if err := send(i); err != nil {
			return fmt.Errorf("transport driver: %w", err)
		}
		<-arrived
	}
	hops := make([]float64, 5000/scale)
	for i := range hops {
		t0 := time.Now()
		if err := send(i); err != nil {
			return fmt.Errorf("transport driver: %w", err)
		}
		t1 := <-arrived
		rec.record("transport.TCP.Send", parent, i, 1, t0, t1)
		hops[i] = float64(t1.Sub(t0)) / 1e3
	}
	sort.Float64s(hops)
	out["transport.tcp_hop_us_p50"] = percentile(hops, 50)
	out["transport.tcp_hop_us_p99"] = percentile(hops, 99)

	total := 100000 / scale
	t0 := time.Now()
	for sent, got := 0, 0; got < total; {
		for sent < total && sent-got < inflight {
			if err := send(sent); err != nil {
				return fmt.Errorf("transport driver: %w", err)
			}
			sent++
		}
		<-arrived
		got++
	}
	t1 := time.Now()
	rec.record("transport.TCP.Send(pipelined)", parent, 0, total, t0, t1)
	out["transport.tcp_frames_per_s"] = float64(total) / t1.Sub(t0).Seconds()
	return nil
}

// probe is the handler the runtime driver hosts: it reports when a message
// or a timer reached it.
type probe struct {
	env  node.Env
	seen chan time.Time
}

func (p *probe) OnMessage(msg.NodeID, msg.Message) { p.seen <- time.Now() }
func (p *probe) OnTimer(int)                       { p.seen <- time.Now() }

// driveRuntime measures one mailbox hop (Agent.Inject to the handler, one
// message in flight) and how late a 2-tick timer fires at Tick 1 ms — the
// batch timer's configuration.
func driveRuntime(scale int, rec *recorder, out map[string]float64) {
	const parent = "driver:runtime"
	network := mcrt.NewNetwork()
	network.Tick = tick
	defer network.Stop()
	p := &probe{seen: make(chan time.Time, 1)}
	agent := network.Spawn(9000, func(env node.Env) node.Handler { p.env = env; return p })

	hops := make([]float64, 20000/scale)
	for i := range hops {
		t0 := time.Now()
		agent.Inject(1, msg.Heartbeat{From: 1, Epoch: uint64(i)})
		t1 := <-p.seen
		hops[i] = float64(t1.Sub(t0))
		if i%chunk == 0 {
			rec.record("runtime.Agent.Inject", parent, i, 1, t0, t1)
		}
	}
	sort.Float64s(hops)
	out["runtime.mailbox_hop_ns"] = percentile(hops, 50)

	ticks := int64(batchWait / tick)
	late := make([]float64, 300/scale)
	for i := range late {
		t0 := time.Now()
		p.env.SetTimer(ticks, 1)
		t1 := <-p.seen
		rec.record("runtime.Env.SetTimer", parent, i, 1, t0, t1)
		late[i] = ms(t1.Sub(t0) - batchWait)
	}
	sort.Float64s(late)
	out["runtime.timer_late_ms_p50"] = percentile(late, 50)
	out["runtime.timer_late_ms_p99"] = percentile(late, 99)
}

// voteRecs is what an acceptor persists for one accepted instance: the vote
// and the high-water mark riding along in the same write.
func voteRecs(i int, c cstruct.Cmd) []wal.Rec {
	return []wal.Rec{
		{Key: fmt.Sprintf("vote/%d", i), Val: storage.VoteRec{
			Inst: uint64(i), VRnd: ballot.Ballot{MCount: 1, MinCount: 1, ID: 100, RType: 1}, Cmds: []cstruct.Cmd{c}}},
		{Key: storage.KeyMaxInst, Val: uint64(i)},
	}
}

// driveWAL appends the workload's votes to a real log: one appender (each
// append its own fsync, the live acceptor's situation), six concurrent
// appenders (group commit), then with fsync stubbed out to isolate encode and
// write, and finally replays that log with wal.Open.
func driveWAL(flushes []flushed, opt options, rec *recorder, out map[string]float64) error {
	const parent = "driver:wal"
	scale := opt.scale
	dir, err := scratchDir(opt.outDir, "wal-driver-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	recs := func(i int) []wal.Rec { return voteRecs(i, flushes[i%len(flushes)].cmd) }

	log, err := wal.Open(dir+"/synced", wal.Options{})
	if err != nil {
		return err
	}
	single := make([]float64, 300/scale)
	for i := range single {
		t0 := time.Now()
		if err := log.Append(recs(i)); err != nil {
			log.Close()
			return err
		}
		t1 := time.Now()
		rec.record("wal.WAL.Append", parent, i, 1, t0, t1)
		single[i] = ms(t1.Sub(t0))
	}
	sort.Float64s(single)
	out["wal.append_ms_p50"] = percentile(single, 50)
	out["wal.append_ms_p99"] = percentile(single, 99)

	const appenders = 6
	each := 100 / scale
	fsyncs0 := log.Fsyncs()
	grouped := make([][]float64, appenders)
	var wg sync.WaitGroup
	var appendErr error
	var once sync.Once
	for g := 0; g < appenders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				t0 := time.Now()
				if err := log.Append(recs(len(single) + g*each + i)); err != nil {
					once.Do(func() { appendErr = err })
					return
				}
				grouped[g] = append(grouped[g], ms(time.Since(t0)))
			}
		}()
	}
	wg.Wait()
	fsyncs := log.Fsyncs() - fsyncs0
	if err := log.Close(); err != nil && appendErr == nil {
		appendErr = err
	}
	if appendErr != nil {
		return appendErr
	}
	var all []float64
	for _, g := range grouped {
		all = append(all, g...)
	}
	sort.Float64s(all)
	out["wal.group_append_ms_p50"] = percentile(all, 50)
	out["wal.records_per_fsync"] = perOp(float64(len(all)), int(fsyncs))

	nosync := wal.Options{Sync: func(*os.File) error { return nil }}
	log, err = wal.Open(dir+"/nosync", nosync)
	if err != nil {
		return err
	}
	n := 5000 / scale
	var total time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := log.Append(recs(i)); err != nil {
			log.Close()
			return err
		}
		t1 := time.Now()
		if i%chunk == 0 {
			rec.record("wal.WAL.Append(nosync)", parent, i, 1, t0, t1)
		}
		total += t1.Sub(t0)
	}
	_, _, bytes := log.DiskStats()
	if err := log.Close(); err != nil {
		return err
	}
	out["wal.encode_ns_per_rec"] = perOp(float64(total), n)
	out["wal.bytes_per_rec"] = perOp(float64(bytes), n)
	t0 := time.Now()
	log, err = wal.Open(dir+"/nosync", nosync)
	if err != nil {
		return err
	}
	t1 := time.Now()
	rec.record("wal.Open", parent, 0, n, t0, t1)
	out["wal.replay_ms_per_krec"] = ms(t1.Sub(t0)) / (float64(n) / 1000)
	return log.Close()
}

// driveSMR times the learner side: Merger.Add with the shards' instances
// arriving a few rounds out of order, ApplyOnce on a KVStore, and the reply
// cache's Put and Get.
func driveSMR(w workload, cmds []cstruct.Cmd, rec *recorder, out map[string]float64) {
	const parent = "driver:smr"
	n := len(cmds)
	// Within each block of four rounds the highest shard's instances come
	// first and shard 0's last, so the merger buffers behind shard 0.
	order := make([]int, 0, n)
	block := w.Shards * 4
	for lo := 0; lo < n; lo += block {
		for s := w.Shards - 1; s >= 0; s-- {
			for i := lo + s; i < min(lo+block, n); i += w.Shards {
				order = append(order, i)
			}
		}
	}
	merger := smr.NewMerger(func(uint64, cstruct.Cmd) { sink++ })
	out["smr.merge_ns_per_op"] = timeChunks(rec, "smr.Merger.Add", parent, n, func(i int) {
		merger.Add(uint64(order[i]), cmds[order[i]])
	})
	replica := smr.NewReplica(smr.NewKVStore())
	out["smr.apply_ns_per_op"] = timeChunks(rec, "smr.Replica.ApplyOnce", parent, n, func(i int) {
		sink += len(replica.ApplyOnce(cmds[i]))
	})
	cache := smr.NewReplyCache(512, clientShift)
	out["smr.replycache_ns_per_op"] = timeChunks(rec, "smr.ReplyCache.Put+Get", parent, n, func(i int) {
		cache.Put(cmds[i].ID, uint64(i), "ok")
		if r, ok := cache.Get(cmds[i].ID); ok {
			sink += len(r.Result)
		}
	})
}

// driveSnapshot cuts a snapshot the way a learner does — machine state,
// the whole apply order, the reply cache — after 10k and 50k applied ops:
// the order grows with the run, so the cut's cost does too.
func driveSnapshot(w workload, opt options, rec *recorder, out map[string]float64) error {
	const parent = "driver:snapshot"
	small, large := 10000/opt.scale, 50000/opt.scale
	cmds := newGen(w, opt.seed, 1001).stream(large)
	kv := smr.NewKVStore()
	replica := smr.NewReplica(kv)
	cache := smr.NewReplyCache(512, clientShift)
	order := make([]uint64, 0, large)
	apply := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			cache.Put(cmds[i].ID, uint64(i), replica.ApplyOnce(cmds[i]))
			order = append(order, cmds[i].ID)
		}
	}
	encode := func() []byte {
		exported := cache.Export()
		replies := make([]snapshot.Reply, len(exported))
		for i, e := range exported {
			replies[i] = snapshot.Reply{CmdID: e.CmdID, Inst: e.Inst, Result: e.Result}
		}
		return snapshot.Encode(snapshot.Snapshot{
			Frontier: uint64(len(order)), State: kv.MarshalState(),
			Order: append([]uint64(nil), order...), Replies: replies,
		})
	}
	dir := ""
	if w.Durable {
		var err error
		if dir, err = scratchDir(opt.outDir, "snapshot-driver-"); err != nil {
			return err
		}
		defer os.RemoveAll(dir)
	}
	store, err := snapshot.OpenStore(dir)
	if err != nil {
		return err
	}
	apply(0, small)
	t0 := time.Now()
	blob := encode()
	t1 := time.Now()
	rec.record("snapshot.Encode", parent, small, 1, t0, t1)
	if err := store.Save(uint64(small), blob); err != nil {
		return err
	}
	t2 := time.Now()
	rec.record("snapshot.Store.Save", parent, small, 1, t1, t2)
	out["snapshot.encode_ms_at_10k"] = ms(t1.Sub(t0))
	out["snapshot.save_ms_at_10k"] = ms(t2.Sub(t1))
	out["snapshot.bytes_at_10k"] = float64(len(blob))
	apply(small, large)
	t0 = time.Now()
	blob = encode()
	rec.record("snapshot.Encode", parent, large, 1, t0, time.Now())
	out["snapshot.bytes_at_50k"] = float64(len(blob))
	return nil
}
