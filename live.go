package mcpaxos

import (
	"fmt"
	"sort"
	"time"
)

// This file implements the live-TCP latency experiment: the batched,
// sharded, multicoordinated stack of E10–E13 assembled by the embedding API
// (Replica/Client over real loopback sockets, wall-clock ticks), measured in
// proposal-to-apply latency percentiles instead of simulated communication
// steps. It is the bench harness behind `paxosbench -exp live`.

// LiveResult is one live-TCP latency run.
type LiveResult struct {
	// Commands is the number of client commands applied and answered.
	Commands int
	// Shards and CoordsPerShard name the deployment shape.
	Shards, CoordsPerShard int
	// BatchMax is the per-shard ingress batch size at the stamping
	// coordinator (ClusterSpec.BatchMax).
	BatchMax int
	// P50, P90, P99 and Max are proposal-to-reply latency percentiles.
	P50, P90, P99, Max time.Duration
	// Elapsed is the wall time from first proposal to last reply.
	Elapsed time.Duration
	// Throughput is Commands per second of Elapsed.
	Throughput float64
	// Retries and DupReplies are the client's retransmission and
	// duplicate-suppression counters; ReplayProbes counts the retry rounds
	// that also solicited the learners' reply caches.
	Retries, DupReplies, ReplayProbes uint64
	// RoundChanges sums post-establishment round changes across the
	// coordinators: a healthy run reports 0.
	RoundChanges int
	// WireBytes totals the bytes every endpoint (replica nodes + client)
	// wrote to the wire during the measured run; BytesPerCmd is that per
	// client command — the codec-efficiency headline.
	WireBytes   uint64
	BytesPerCmd float64
	// EncodeNsPerFrame and DecodeNsPerFrame average the codec time per
	// frame across all endpoints.
	EncodeNsPerFrame, DecodeNsPerFrame float64
}

// RunLiveLatency stands up a full deployment on loopback TCP (every node in
// this process, each behind its own socket), drives `commands` KV writes
// through the client's shard-routed path — batched server-side, at each
// shard's stamping coordinator — and reports latency percentiles. With
// coordsPerShard ≥ 2 each shard is served by a multicoordinated group; the
// client sends to the shard's primary and rotates through the group on
// silence.
func RunLiveLatency(shards, coordsPerShard, nAcceptors, commands, batchMax int) (LiveResult, error) {
	spec := LocalSpec(shards, coordsPerShard, nAcceptors, 2, 1)
	spec.BatchMax = batchMax
	spec.Window = 8
	spec, err := spec.ResolveEphemeral()
	if err != nil {
		return LiveResult{}, err
	}
	rep, err := OpenReplica(spec)
	if err != nil {
		return LiveResult{}, err
	}
	defer rep.Close()
	cli, err := DialClient(spec, spec.Clients[0].ID)
	if err != nil {
		return LiveResult{}, err
	}
	defer cli.Close()

	// One unmeasured warmup write lets every shard's round establish and the
	// sockets dial, so the percentiles report steady state rather than
	// bring-up.
	if err := cli.Wait([]*Call{cli.Set("warmup", "x")}, 30*time.Second); err != nil {
		return LiveResult{}, err
	}
	netBefore := rep.NetStats().Plus(cli.NetStats())

	start := time.Now()
	calls := make([]*Call, 0, commands)
	for i := 0; i < commands; i++ {
		calls = append(calls, cli.Set(fmt.Sprintf("key-%d", i%16), fmt.Sprintf("v%d", i)))
	}
	if err := cli.Wait(calls, 30*time.Second); err != nil {
		return LiveResult{}, err
	}
	elapsed := time.Since(start)
	net := rep.NetStats().Plus(cli.NetStats())
	wireBytes := net.BytesOut - netBefore.BytesOut
	framesOut := net.FramesOut - netBefore.FramesOut
	framesIn := net.FramesIn - netBefore.FramesIn

	lat := make([]time.Duration, 0, len(calls))
	for _, c := range calls {
		lat = append(lat, c.Latency())
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	st := cli.Stats()
	res := LiveResult{
		Commands: commands, Shards: spec.Shards, CoordsPerShard: spec.CoordsPerShard,
		BatchMax:   batchMax,
		P50:        percentile(lat, 50),
		P90:        percentile(lat, 90),
		P99:        percentile(lat, 99),
		Max:        lat[len(lat)-1],
		Elapsed:    elapsed,
		Throughput: float64(commands) / elapsed.Seconds(),
		Retries:    st.Retries, DupReplies: st.DupReplies,
		ReplayProbes: st.ReplayProbes,
		RoundChanges: rep.RoundChanges(),
		WireBytes:    wireBytes,
		BytesPerCmd:  float64(wireBytes) / float64(commands),
	}
	if framesOut > 0 {
		res.EncodeNsPerFrame = float64(net.EncodeNanos-netBefore.EncodeNanos) / float64(framesOut)
	}
	if framesIn > 0 {
		res.DecodeNsPerFrame = float64(net.DecodeNanos-netBefore.DecodeNanos) / float64(framesIn)
	}
	return res, nil
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
