package main

import (
	"fmt"
	"math/rand"
	"time"

	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/smr"
)

// workload is one named traffic mix on one deployment shape. Names are fixed:
// later issues cite them.
type workload struct {
	Name string
	Why  string

	Shards     int
	Durable    bool    // WALDir + SnapshotDir on the real disk
	GetShare   float64 // share of Get ops; the rest are Set
	ValueBytes int

	// Open loops send Rate ops/s on a schedule and time each op from when it
	// was due; closed loops run Callers callers that each wait for a reply.
	Rate    int
	Callers int
	// Ungated keeps the workload out of BENCHMARK.json: the tool measures and
	// reports it like the others, the driver does not hold it to the bounds.
	Ungated bool
	// Kill crash-stops coordinator 100 (shard 0's stamping primary) a third of
	// the way into the measured window and leaves it down for the rest, so two
	// ops in three are due during the outage and p50_ms and p90_ms are what
	// such an op pays. It is restarted once the load has drained.
	Kill bool
}

func (w workload) open() bool { return w.Rate > 0 }

// loop describes the load for the output header.
func (w workload) loop() string {
	if w.open() {
		return fmt.Sprintf("open loop, %d ops/s over %d clients, latency from due time", w.Rate, nClients)
	}
	return fmt.Sprintf("closed loop, %d callers over %d clients, latency from submit", w.Callers, nClients)
}

// Deployment shape shared by every workload (see README "Run shape").
const (
	nClients       = 2
	coordsPerShard = 3
	nAcceptors     = 3
	nLearners      = 2
	window         = 8 // ClusterSpec.Window, the coordinators' pipeline bound
	snapshotEvery  = 256
	requestTimeout = 2 * time.Second
	// retryEvery is ClusterSpec.RetryEvery, ten times its default of 25 ms. A
	// client retransmits after twice this, to the next member of the shard's
	// group; with the primary alive that makes two stampers, their collisions
	// make round changes, and at the default a host stall of 50 ms is enough
	// to tip an open loop into a round-change storm it never leaves (README,
	// known cliffs). At 250 ms only a lost message or a dead coordinator is
	// retransmitted for, and no op fails. Coordinator retransmission (4 x
	// RetryEvery) scales with it.
	retryEvery = 250 * time.Millisecond
	// fillAfter is ClusterSpec.FillAfter, pinned to the 4 x 25 ms it defaults
	// to, so that it does not scale with retryEvery: a learner nudges a fill
	// after two to three such periods at a frozen frontier, and at 4 x 250 ms
	// an uneven pair of shard frontiers would hold ops past requestTimeout.
	fillAfter = 100 * time.Millisecond
	nKeys     = 1024

	learnerA, learnerB = 300, 301
	killedCoord        = 100
)

// Spec defaults the benchmark leaves alone but the drivers must mirror.
const (
	batchMax  = 8
	batchWait = 2 * time.Millisecond
	tick      = time.Millisecond
)

var workloads = []workload{
	{
		Name:   "steady_open",
		Why:    "latency headline: 500 ops/s open loop, 1 shard, memory acceptors; batches never fill, so the batch timer, 4 TCP hops and the mailbox hops are the p50; wal and cross-shard merge idle",
		Shards: 1, ValueBytes: 64, Rate: 500,
	},
	{
		Name:   "sharded_closed",
		Why:    "2 shards, 6 closed-loop callers: the only workload where per-shard stamping and smr.Merger cross-shard ordering (gap buffering, no-op fills) do work; goodput is callers / latency",
		Shards: 2, ValueBytes: 64, Callers: 6,
	},
	{
		Name:   "durable_mixed",
		Why:    "WAL and snapshots on the real disk, 50% Get / 50% Set of 256 B, 6 closed-loop callers: wal group commit, gob record encode and fsync dominate; reads ride beside writes",
		Shards: 1, Durable: true, GetShare: 0.5, ValueBytes: 256, Callers: 6,
		// It follows the shared disk's fsync latency: ten runs of unchanged code
		// spread its p50_ms by 13-23 % and its goodput_ops_s by 17-27 %, which
		// no bound the contract allows (25 % at most) holds with a margin.
		Ungated: true,
	},
	{
		Name:   "coord_kill",
		Why:    "availability claim on the deployed code: 200 ops/s open loop, shard 0's stamping primary killed a third into each window and down for the rest, requests sent on schedule through the outage",
		Shards: 1, ValueBytes: 64, Rate: 200, Kill: true,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// gen is the seeded input generator: keys k0..k1023, values cut from a
// seeded text pool, and a Get/Set op stream. The same (seed, stream) pair
// yields the same commands; the deployment receives nothing else.
type gen struct {
	w    workload
	rng  *rand.Rand
	pool []byte
}

var keys = func() []string {
	ks := make([]string, nKeys)
	for i := range ks {
		ks[i] = fmt.Sprintf("k%d", i)
	}
	return ks
}()

// newGen derives one independent op stream from the run seed; stream numbers
// the schedulers, callers and drivers of a repetition.
func newGen(w workload, seed int64, stream int) *gen {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(stream)))
	pool := make([]byte, 64<<10)
	const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	for i := range pool {
		pool[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return &gen{w: w, rng: rng, pool: pool}
}

// next returns the stream's next command, unstamped (ID 0).
func (g *gen) next() cstruct.Cmd {
	key := keys[g.rng.Intn(nKeys)]
	if g.w.GetShare > 0 && g.rng.Float64() < g.w.GetShare {
		return smr.GetCmd(0, key)
	}
	off := g.rng.Intn(len(g.pool) - g.w.ValueBytes)
	return smr.SetCmd(0, key, string(g.pool[off:off+g.w.ValueBytes]))
}

// stream returns n commands stamped with IDs the way a client stamps them
// (client<<40 | seq), for the per-module drivers.
func (g *gen) stream(n int) []cstruct.Cmd {
	out := make([]cstruct.Cmd, n)
	for i := range out {
		out[i] = g.next()
		out[i].ID = uint64(1+i%nClients)<<clientShift | uint64(i/nClients+1)
	}
	return out
}

// clientShift mirrors deploy's command-ID layout: the issuing client sits
// above bit 40.
const clientShift = 40
