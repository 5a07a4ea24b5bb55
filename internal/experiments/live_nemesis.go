package experiments

import (
	"fmt"
	"sync"
	"time"

	"mcpaxos/internal/deploy"
	"mcpaxos/internal/faults"
	"mcpaxos/internal/linearize"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/nemesis"
)

// This file runs the nemesis experiment of experiments_nemesis.go on the
// live path: the same workload generator and fault schedule, but over real
// loopback TCP with wall-clock time — the injector sits on every endpoint's
// send path, node crashes are real Kill/Restart (acceptors recover from
// their WALs), and the history checker judges wall-clock invocation and
// response edges. It is the harness behind `paxosbench -exp nemesis`.
// Op translation, result parsing, event enactment and the judge are E14's
// (experiments_nemesis.go); this file keeps the TCP workers, stableOrders
// and its own rule that no learner ends stalled behind a gap. It judges
// every learner's order.

// LiveNemesisResult is the outcome of one live nemesis run.
type LiveNemesisResult struct {
	// Seed reproduces the workload and schedule.
	Seed int64
	// Ops counts operations issued; Resolved those that drew a reply;
	// Applied the commands in the longest learner's merged order.
	Ops, Resolved, Applied int
	// Batched counts the applied commands that rode in an instance with
	// other commands, at the learner that applied the most of them.
	Batched int
	// Acked counts the ops whose reply arrived before the client's request
	// timeout: the convergence judgment requires each of them applied on
	// every learner.
	Acked int
	// FaultEvents is the number of schedule events enacted.
	FaultEvents int
	// Net is the injector's accounting.
	Net faults.Stats
	// Client is the client endpoint's own accounting (retries, rotations,
	// abandoned batches, replay probes).
	Client deploy.ClientStats
	// Replays counts replies the learners served from their replay caches.
	Replays uint64
	// Catchup sums the learners' catch-up pull activity (including
	// snapshot-shipping escalations).
	Catchup deploy.CatchupStats
	// Compaction is the learners' snapshot/watermark state at the end of the
	// run: how many snapshots were cut, how far truncation advanced, and the
	// largest retained log.
	Compaction deploy.CompactionStats
	// WALSegs / WALSnaps / WALBytes sum the acceptors' on-disk footprint at
	// the end of the run — the quantity the watermark protocol bounds.
	WALSegs, WALSnaps int
	WALBytes          int64
	// Elapsed is the wall time of the whole run.
	Elapsed time.Duration
	// Ok reports a clean run; Failure says what broke otherwise.
	Ok      bool
	Failure string
}

// RunLiveNemesis executes one seed of the nemesis experiment over TCP:
// clients closed-loop workers share one client endpoint, opsPerClient ops
// each, while the schedule partitions links, kills and restarts nodes and
// degrades the network, at ingress batch size batchMax. walDir hosts the
// acceptors' WALs (pass a temp dir).
func RunLiveNemesis(seed int64, clients, opsPerClient, batchMax int, walDir string) (LiveNemesisResult, error) {
	res := LiveNemesisResult{Seed: seed}
	var (
		v  verdict
		mu sync.Mutex // guards v while the schedule runs, and the workers' records
	)

	inj := faults.New(seed + 1)
	spec := deploy.LocalSpec(2, 3, 3, 2, 1)
	spec.BatchMax = batchMax
	spec.RetryEvery = 10 * time.Millisecond
	// Every scheduled fault ends by 3/4 of the horizon; a call still
	// unresolved seconds after that lost its reply for good, so a short
	// timeout only trims the stall tail, never a recoverable op.
	spec.RequestTimeout = 6 * time.Second
	spec.WALDir = walDir
	// Compaction runs throughout, tuned aggressively enough (relative to the
	// bounded op counts of a nemesis seed) that the watermark actually
	// advances mid-schedule: learners snapshot every 16 merged instances,
	// keep 8 below the watermark pullable, and persist their snapshots next
	// to the WALs, where an empty SnapshotDir puts them — so a learner killed
	// and restarted below the watermark rejoins through its own durable
	// snapshot or, when it trails further, a peer's shipped one, and the
	// acceptors' vote history is truncated live while the adversary runs.
	spec.SnapshotEvery = 16
	spec.Retain = 8
	spec.Faults = inj
	spec, err := spec.ResolveEphemeral()
	if err != nil {
		return res, err
	}
	rep, err := deploy.Open(spec)
	if err != nil {
		return res, err
	}
	defer rep.Close()
	cli, err := deploy.Dial(spec, spec.Clients[0].ID)
	if err != nil {
		return res, err
	}
	defer cli.Close()

	// Establish the rounds before the adversary wakes up.
	if err := cli.Wait([]*deploy.Call{cli.Set("warmup", "x")}, 30*time.Second); err != nil {
		return res, fmt.Errorf("warmup: %w", err)
	}

	topo := nemesis.Topology{
		Proposers: []msg.NodeID{msg.NodeID(spec.Clients[0].ID)},
		Coords: [][]msg.NodeID{
			{msg.NodeID(spec.Coords[0].ID), msg.NodeID(spec.Coords[2].ID), msg.NodeID(spec.Coords[4].ID)},
			{msg.NodeID(spec.Coords[1].ID), msg.NodeID(spec.Coords[3].ID), msg.NodeID(spec.Coords[5].ID)},
		},
		Acceptors: []msg.NodeID{msg.NodeID(spec.Acceptors[0].ID), msg.NodeID(spec.Acceptors[1].ID), msg.NodeID(spec.Acceptors[2].ID)},
		Learners:  []msg.NodeID{msg.NodeID(spec.Learners[0].ID), msg.NodeID(spec.Learners[1].ID)},
		F:         1,
	}
	const horizonTicks = 2500 // ~2.5s of hostility at the default 1ms tick
	// The live harness runs the full repertoire: learner kills exercise the
	// catch-up rejoin, quorum partitions stall a shard until the heal, clock
	// skew windows stretch and shrink every timeout, primary kills force the
	// ingress stamping handoff mid-stream, and a background loss floor keeps
	// the discrete faults from ever running on a clean network.
	schedule := nemesis.ScheduleWith(seed, topo, horizonTicks, nemesis.Options{
		KillLearners:    true,
		QuorumPartition: true,
		ClockSkew:       true,
		KillPrimary:     true,
		Background:      true,
	})
	res.FaultEvents = len(schedule)

	start := time.Now()
	var nemesisWG sync.WaitGroup
	nemesisWG.Add(1)
	go func() {
		defer nemesisWG.Done()
		crash := func(n msg.NodeID) { rep.Kill(uint32(n)) }
		// A failed restart (e.g. the port momentarily unbindable) is a node
		// that stays down — the deployment must survive it, but the harness
		// records it rather than hiding it.
		restart := func(n msg.NodeID) {
			if err := rep.Restart(uint32(n)); err != nil {
				mu.Lock()
				v.fail("restart %d: %v", n, err)
				mu.Unlock()
			}
		}
		for _, ev := range schedule {
			time.Sleep(time.Until(start.Add(time.Duration(ev.At) * time.Millisecond)))
			enact(inj, ev, crash, restart)
		}
	}()

	// Closed-loop workers: each issues its op sequence through the shared
	// client endpoint, recording invoke/response edges on the wall clock.
	workload := nemesis.Workload(seed, nemesis.WorkloadOpts{
		Clients: clients, OpsPerClient: opsPerClient, Keys: 4,
	})
	hist := &linearize.History{}
	var (
		unresolved = make(map[uint64]int) // cmd ID → history index
		acked      []uint64               // cmd IDs whose reply arrived in time
	)
	// Pace the workers so their ops span the fault window: an unpaced closed
	// loop finishes in tens of milliseconds on an idle machine, before the
	// first scheduled fault ever fires, and the adversary tests nothing. The
	// pace is one schedule for all of them — op k of every worker is due at
	// k·pace, or as soon as the worker's previous op returns if that is later
	// — so the workers' proposals reach a stamper together, which is when an
	// ingress batch packs more than one command.
	pace := horizonTicks * time.Millisecond * 3 / 4 / time.Duration(opsPerClient)
	paced := time.Now()
	var workerWG sync.WaitGroup
	for c := range workload {
		workerWG.Add(1)
		go func(c int) {
			defer workerWG.Done()
			for k, op := range workload[c] {
				time.Sleep(time.Until(paced.Add(time.Duration(k) * pace)))
				cmd, kind := nemesisCmd(0, op)
				idx := hist.Invoke(uint64(c), kind, op.Key, op.Value, time.Now().UnixNano())
				call := cli.Propose(cmd)
				out, err := call.Result()
				at := time.Now().UnixNano()
				mu.Lock()
				if err != nil {
					// No response: the judge decides whether the op stays.
					unresolved[call.ID] = idx
				} else {
					val, found := kvResult(out)
					hist.Resolve(idx, val, found, at)
					acked = append(acked, call.ID)
				}
				mu.Unlock()
			}
		}(c)
	}
	workerWG.Wait()
	nemesisWG.Wait()
	inj.Clear()
	res.Elapsed = time.Since(start)
	res.Net = inj.Stats()
	res.Ops = clients * opsPerClient
	res.Acked = len(acked)

	// Let in-flight traffic and any pending catch-up pull settle, then
	// snapshot every learner's merged order.
	learners := []uint32{spec.Learners[0].ID, spec.Learners[1].ID}
	orders := stableOrders(rep, learners, 10*time.Second)

	// This clock's own rule: no learner may end the run stalled behind a gap
	// — learned instances buffered above a frozen frontier mean a decided
	// instance was lost for good.
	for i, l := range learners {
		if _, buffered, err := rep.Progress(l); err != nil {
			v.fail("learner %d progress: %v", l, err)
		} else if buffered > 0 {
			v.fail("learner %d ends stalled: %d instances buffered behind a gap (order %d)",
				l, buffered, len(orders[i]))
		}
		if n, err := rep.Batched(l); err == nil {
			res.Batched = max(res.Batched, n)
		}
	}
	// Then the shared judge over every learner's order: a reply promises
	// the command a slot in the total order, and catch-up plus the quiet
	// tail must have propagated that slot everywhere, restarted learners
	// included.
	res.Applied = v.judge(hist, learners, orders, acked, unresolved)
	res.Ok, res.Failure = v.failure == "", v.failure
	res.Resolved = hist.Resolved()
	res.Client = cli.Stats()
	res.Replays = rep.Replays()
	res.Catchup = rep.CatchupStats()
	res.Compaction = rep.CompactionStats()
	res.WALSegs, res.WALSnaps, res.WALBytes = rep.WALDiskStats()
	return res, nil
}

// stableOrders polls the learners until every merged order stops growing
// with nothing buffered behind a gap (two consecutive identical snapshots
// 150ms apart) or the timeout passes. Waiting on the buffered count too
// matters after a catch-up resync: the order length freezes while the gap
// watch re-probes, and judging that snapshot would misreport a stall the
// catch-up pull was already repairing.
func stableOrders(rep *deploy.Replica, learners []uint32, timeout time.Duration) [][]uint64 {
	deadline := time.Now().Add(timeout)
	prev := make([]int, len(learners))
	for i := range prev {
		prev[i] = -1
	}
	for {
		cur := make([][]uint64, len(learners))
		stable := true
		for i, l := range learners {
			cur[i], _ = rep.Order(l)
			_, buffered, _ := rep.Progress(l)
			if len(cur[i]) != prev[i] || buffered > 0 {
				stable = false
			}
			prev[i] = len(cur[i])
		}
		if stable || time.Now().After(deadline) {
			return cur
		}
		time.Sleep(150 * time.Millisecond)
	}
}
