package experiments

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"mcpaxos/internal/deploy"
)

// This file implements E15, the multi-client scaling experiment: N separate
// Client processes share one live deployment over loopback TCP, each driving
// a windowed closed loop of KV writes. Sequence numbers are assigned
// server-side at the shard's ingress coordinator, so the clients never
// coordinate with each other — aggregate throughput must grow with the
// client count instead of being capped by a single sequencing feeder. It is
// the bench harness behind `paxosbench -exp e15`.

// E15ClientResult is one client process's share of an E15 run.
type E15ClientResult struct {
	// ID is the client's node ID.
	ID uint32
	// Commands is the number of writes this client issued and resolved.
	Commands int
	// P50 and P99 are this client's proposal-to-reply latency percentiles.
	P50, P99 time.Duration
}

// E15Row is one point of the E15 sweep: a fresh deployment driven by a fixed
// number of concurrent client processes.
type E15Row struct {
	// Clients is the number of concurrent Client processes.
	Clients int
	// Workers is the closed-loop window per client: each worker keeps
	// exactly one command in flight.
	Workers int
	// Commands is the total across all clients.
	Commands int
	// Elapsed is the wall time from first proposal to last reply.
	Elapsed time.Duration
	// Aggregate is Commands per second of Elapsed across all clients.
	Aggregate float64
	// Retries and Rotations sum the clients' retransmission counters over
	// the measured window (warmup excluded — its socket dials race the
	// first sends); a healthy loopback run reports 0 for both.
	Retries, Rotations uint64
	// PerClient holds each client's own latency percentiles.
	PerClient []E15ClientResult
}

// RunLiveMulti stands up one deployment on loopback TCP and drives it with
// `clients` independent Client processes, each running `workers` closed-loop
// workers until the client has issued perClient commands. Every command is a
// KV write; every reply is awaited, so the total in-flight window is
// clients×workers.
func RunLiveMulti(shards, coordsPerShard, nAcceptors, clients, perClient, workers int) (E15Row, error) {
	row := E15Row{Clients: clients, Workers: workers, Commands: clients * perClient}
	spec := deploy.LocalSpec(shards, coordsPerShard, nAcceptors, 2, clients)
	spec.Window = 8
	spec, err := spec.ResolveEphemeral()
	if err != nil {
		return row, err
	}
	rep, err := deploy.Open(spec)
	if err != nil {
		return row, err
	}
	defer rep.Close()

	clis := make([]*deploy.Client, clients)
	for i := range clis {
		if clis[i], err = deploy.Dial(spec, spec.Clients[i].ID); err != nil {
			return row, err
		}
		defer clis[i].Close()
	}

	// Unmeasured warmup: each client writes once per shard (its submission
	// path round-robins shards, so `shards` writes touch every one),
	// establishing the rounds and dialing the sockets before measurement.
	for i, cli := range clis {
		warm := make([]*deploy.Call, shards)
		for s := range warm {
			warm[s] = cli.Set(fmt.Sprintf("warmup-%d-%d", i, s), "x")
		}
		if err := cli.Wait(warm, 30*time.Second); err != nil {
			return row, fmt.Errorf("warmup client %d: %w", spec.Clients[i].ID, err)
		}
	}

	type clientLat struct {
		lat []time.Duration
		err error
	}
	lats := make([]clientLat, clients)
	warm := make([]deploy.ClientStats, clients)
	for i, cli := range clis {
		warm[i] = cli.Stats()
	}
	start := time.Now()
	var wg sync.WaitGroup
	for i, cli := range clis {
		wg.Add(1)
		go func(i int, cli *deploy.Client) {
			defer wg.Done()
			var (
				mu  sync.Mutex
				all = make([]time.Duration, 0, perClient)
			)
			var cwg sync.WaitGroup
			for w := 0; w < workers; w++ {
				n := perClient / workers
				if w < perClient%workers {
					n++
				}
				cwg.Add(1)
				go func(w, n int) {
					defer cwg.Done()
					for k := 0; k < n; k++ {
						call := cli.Set(fmt.Sprintf("c%d-w%d-%d", i, w, k%16), "v")
						if _, err := call.Result(); err != nil {
							mu.Lock()
							if lats[i].err == nil {
								lats[i].err = fmt.Errorf("client %d worker %d: %w", i, w, err)
							}
							mu.Unlock()
							return
						}
						mu.Lock()
						all = append(all, call.Latency())
						mu.Unlock()
					}
				}(w, n)
			}
			cwg.Wait()
			lats[i].lat = all
		}(i, cli)
	}
	wg.Wait()
	row.Elapsed = time.Since(start)

	for i, cl := range lats {
		if cl.err != nil {
			return row, cl.err
		}
		slices.Sort(cl.lat)
		row.PerClient = append(row.PerClient, E15ClientResult{
			ID:       spec.Clients[i].ID,
			Commands: len(cl.lat),
			P50:      percentile(cl.lat, 50),
			P99:      percentile(cl.lat, 99),
		})
		st := clis[i].Stats()
		row.Retries += st.Retries - warm[i].Retries
		row.Rotations += st.Rotations - warm[i].Rotations
	}
	row.Aggregate = float64(row.Commands) / row.Elapsed.Seconds()
	return row, nil
}

// RunE15 sweeps the client count over fresh deployments — one per point, so
// a later point never rides the earlier points' established rounds or warmed
// replay caches.
func RunE15(shards, coordsPerShard, nAcceptors int, clientCounts []int, perClient, workers int) ([]E15Row, error) {
	rows := make([]E15Row, 0, len(clientCounts))
	for _, n := range clientCounts {
		row, err := RunLiveMulti(shards, coordsPerShard, nAcceptors, n, perClient, workers)
		if err != nil {
			return rows, fmt.Errorf("%d clients: %w", n, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// percentile returns the p-th percentile of sorted latencies (nearest-rank).
func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := (len(sorted)*p + 99) / 100
	if idx < 1 {
		idx = 1
	}
	if idx > len(sorted) {
		idx = len(sorted)
	}
	return sorted[idx-1]
}
