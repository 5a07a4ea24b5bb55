// Command paxosbench prints the experiment tables that reproduce the
// quantitative claims of the Multicoordinated Paxos paper, measured on the
// deterministic simulator.
//
// Usage:
//
//	paxosbench [-seed N] [-exp all|e1|...|e14|e15|e16|nemesis] [-trials N] [-seeds N] [-commands N]
//
// E15, E16 and nemesis are the wall-clock modes over loopback TCP through
// the embedding API: E15 scales the number of client processes, E16 runs a
// long write stream at a snapshot interval longer than the run and at a
// short one, and nemesis runs the randomized fault-injection harness (E14)
// on both the simulator and the live path, judging every run with the
// linearizability checker. They are excluded from -exp all so the default
// output stays deterministic: E1–E14 print the same bytes on every run, and
// testdata/tables holds them (go test ./cmd/paxosbench diffs against it).
// Proposal-to-reply latency on the live path is the benchmark's job: bash
// bench/run.sh -workload steady_open.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"mcpaxos"
)

// params are the knobs the simulator experiments read.
type params struct {
	seed     int64
	trials   int // trials per sample point (E7, E9)
	seeds    int // randomized seeds (E14)
	commands int // commands per run (E4, E6, E10–E13)
}

// tables lists the deterministic simulator experiments in -exp all order.
// Each writes its table to w and fails only when the run could not be made
// or broke a claim it checks.
var tables = []struct {
	name string
	run  func(w io.Writer, p params) error
}{
	{"e1", e1}, {"e2", e2}, {"e3", e3}, {"e4", e4}, {"e5", e5}, {"e6", e6}, {"e7", e7},
	{"e8", e8}, {"e9", e9}, {"e10", e10}, {"e11", e11}, {"e12", e12}, {"e13", e13}, {"e14", e14},
}

func main() {
	seed := flag.Int64("seed", 1, "simulation seed")
	exp := flag.String("exp", "all", "experiment to run: all, e1..e14, e15, e16 or nemesis")
	trials := flag.Int("trials", 20, "trials per sample point (E7, E9)")
	seeds := flag.Int("seeds", 50, "randomized seeds per nemesis sweep (E14)")
	liveSeeds := flag.Int("liveseeds", 3, "live-TCP seeds per nemesis sweep (wall clock; capped by -seeds)")
	commands := flag.Int("commands", 200, "commands per run (E4, E6, E10–E13, E16; per client in E15)")
	shards := flag.Int("shards", 2, "instance-space shards (E15)")
	coords := flag.Int("coords", 3, "coordinator group size per shard (E15)")
	clients := flag.Int("clients", 8, "max concurrent client processes in the E15 sweep")
	workers := flag.Int("workers", 8, "closed-loop workers per client (E15)")
	snapEvery := flag.Int("snapevery", 128, "learner snapshot interval in instances (E16)")
	flag.Parse()

	p := params{seed: *seed, trials: *trials, seeds: *seeds, commands: *commands}
	var err error
	switch *exp {
	case "e15":
		err = e15(*shards, *coords, *clients, *commands, *workers)
	case "e16":
		err = e16(*commands, *snapEvery)
	case "nemesis":
		err = nemesisExp(p, *liveSeeds)
	default:
		ran := false
		for _, t := range tables {
			if *exp != "all" && *exp != t.name {
				continue
			}
			ran = true
			if err = t.run(os.Stdout, p); err != nil {
				err = fmt.Errorf("%s: %w", t.name, err)
				break
			}
		}
		if !ran {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (want all, e1..e14, e15, e16 or nemesis)\n", *exp)
			os.Exit(2)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
}

func e1(w io.Writer, p params) error {
	header(w, "E1: communication steps to learn (stable run, phase 1 pre-executed)")
	for _, row := range mcpaxos.FormatE1(mcpaxos.RunE1StepsToLearn(p.seed)) {
		fmt.Fprintln(w, "  "+row)
	}
	return nil
}

func e2(w io.Writer, _ params) error {
	header(w, "E2: acceptor quorum sizes (Section 2.2)")
	fmt.Fprintln(w, "  n   classic(=multicoord)  fast(majority-classic)  balanced(E=F)")
	for _, r := range mcpaxos.RunE2QuorumSizes([]int{3, 5, 7, 9, 11, 13}) {
		fmt.Fprintf(w, "  %-3d %-21d %-23d %d\n", r.N, r.Classic, r.FastMajority, r.Balanced)
	}
	return nil
}

func e3(w io.Writer, p params) error {
	header(w, "E3: availability under coordinator crashes (Section 4.1)")
	fmt.Fprintln(w, "  round kind            crashes  progress  round-change")
	for _, r := range mcpaxos.RunE3Availability(p.seed) {
		fmt.Fprintf(w, "  %-21s %-8d %-9v %v\n", r.Kind, r.CoordCrashes, r.Progress, r.RoundChanged)
	}
	return nil
}

func e4(w io.Writer, p params) error {
	header(w, "E4: load balance via quorum selection (Section 4.1)")
	r := mcpaxos.RunE4LoadBalance(p.seed, 3, 5, p.commands)
	fmt.Fprintf(w, "  %d coordinators, %d acceptors, %d commands\n", r.NCoords, r.NAcceptors, r.Commands)
	fmt.Fprintf(w, "  multicoord max coordinator share: %.3f  (paper bound 1/2+1/nc = %.3f)\n",
		r.MaxCoordShare, r.CoordBound)
	fmt.Fprintf(w, "  multicoord max acceptor share:    %.3f  (paper bound 1/2+1/n  = %.3f)\n",
		r.MaxAccShare, r.AccBound)
	fmt.Fprintf(w, "  fast rounds max acceptor share:   %.3f  (paper: > 3/4)\n", r.FastAccShare)
	return nil
}

func e5(w io.Writer, p params) error {
	header(w, "E5: collision recovery cost (Sections 2.2, 4.2)")
	fmt.Fprintln(w, "  scenario              total-steps  extra-steps  acceptor-disk-writes")
	for _, r := range mcpaxos.RunE5CollisionRecovery(p.seed) {
		fmt.Fprintf(w, "  %-21s %-12d %-12d %d\n", r.Scenario, r.TotalSteps, r.ExtraSteps, r.AcceptorWrites)
	}
	fmt.Fprintln(w, "  (paper: restart +4, coordinated +2, uncoordinated +1, multicoord +2;")
	fmt.Fprintln(w, "   fast collisions waste acceptor disk writes, multicoordinated do not)")
	return nil
}

func e6(w io.Writer, p params) error {
	header(w, "E6: disk writes (Sections 4.2, 4.4)")
	r := mcpaxos.RunE6DiskWrites(p.seed, p.commands)
	for _, proto := range []mcpaxos.Protocol{mcpaxos.ProtocolClassic, mcpaxos.ProtocolMulti, mcpaxos.ProtocolFast} {
		fmt.Fprintf(w, "  %-18s %.3f writes/command/acceptor (paper: 1)\n",
			proto, r.WritesPerCommandPerAcceptor[proto])
	}
	fmt.Fprintf(w, "  coordinator writes: %d (paper: coordinators need no stable storage)\n",
		r.CoordinatorWrites)
	fmt.Fprintf(w, "  extra writes per acceptor recovery: %d (paper: 1 incarnation write)\n",
		r.RecoveryWrites)
	fmt.Fprintln(w, "  (the multicoordinated row is internal/core, the paper's algorithm on the")
	fmt.Fprintln(w, "   simulator; E13's writes/inst/acc column is the same claim on the deployed engine)")
	return nil
}

func e7(w io.Writer, p params) error {
	header(w, "E7: conflict-rate sweep, collisions & latency (Sections 2.3, 3.3, 4.5)")
	fmt.Fprintln(w, "  rho   protocol          collisions  mean-steps  learned")
	rows := mcpaxos.RunE7ConflictSweep(p.seed, []float64{0, 0.25, 0.5, 0.75, 1}, p.trials)
	for _, r := range rows {
		fmt.Fprintf(w, "  %-5.2f %-17s %-11.2f %-11.2f %.2f\n",
			r.ConflictRate, r.Protocol, r.CollisionFrac, r.MeanSteps, r.Learned)
	}
	return nil
}

func e8(w io.Writer, p params) error {
	header(w, "E8: decision gap after coordinator failure (Sections 1, 4.1)")
	r := mcpaxos.RunE8LeaderFailover(p.seed)
	fmt.Fprintf(w, "  steady-state inter-learn gap:          %d\n", r.BaselineGap)
	fmt.Fprintf(w, "  classic Paxos, leader crash:           %d (detect + elect + phase 1)\n", r.ClassicGap)
	fmt.Fprintf(w, "  multicoordinated, 1 coordinator crash: %d (no round change needed)\n", r.MultiGap)
	return nil
}

func e9(w io.Writer, p params) error {
	header(w, "E9: spontaneous ordering vs message reordering (Section 4.5)")
	fmt.Fprintln(w, "  jitter  fast-collisions  fast-steps  mc-collisions  mc-steps")
	for _, r := range mcpaxos.RunE9SpontaneousOrder(p.seed, []int64{0, 1, 2, 4, 8}, p.trials) {
		fmt.Fprintf(w, "  %-7d %-16.2f %-11.2f %-14.2f %.2f\n",
			r.Jitter, r.FastCollisionFrac, r.FastMeanSteps, r.MultiCollisionFrac, r.MultiMeanSteps)
	}
	return nil
}

func e10(w io.Writer, p params) error {
	header(w, "E10: batching & pipelining throughput (heavy-traffic path)")
	fmt.Fprintf(w, "  %d commands through 1 leader, 3 acceptors\n", p.commands)
	fmt.Fprintln(w, "  mode          commands  instances  msgs    writes  steps  msgs/cmd  writes/cmd")
	for _, r := range mcpaxos.RunE10Throughput(p.seed, p.commands, []int{8, 32}, []int{8, 32}) {
		fmt.Fprintf(w, "  %-13s %-9d %-10d %-7d %-7d %-6d %-9.2f %.3f\n",
			r.Mode, r.Commands, r.Instances, r.Msgs, r.DiskWrites, r.SimSteps,
			r.MsgsPerCmd, r.WritesPerCmd)
	}
	return nil
}

func e11(w io.Writer, p params) error {
	header(w, "E11: durable group commit (WAL-backed acceptors, physical fsyncs)")
	fmt.Fprintf(w, "  %d commands through 1 leader, 3 acceptors on on-disk WALs\n", p.commands)
	rows, err := mcpaxos.RunE11GroupCommit(p.seed, p.commands, []int{8, 32})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "  mode          commands  instances  writes  fsyncs  writes/cmd/acc  fsyncs/cmd/acc")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-13s %-9d %-10d %-7d %-7d %-15.3f %.3f\n",
			r.Mode, r.Commands, r.Instances, r.Writes, r.Fsyncs,
			r.WritesPerCmdPerAcc, r.FsyncsPerCmdPerAcc)
	}
	fmt.Fprintln(w, "  (paper Section 4.4: one write per accept; group commit amortizes the")
	fmt.Fprintln(w, "   physical fsync across a whole batch, 1/B fsyncs per command at batch B)")
	return nil
}

func e12(w io.Writer, p params) error {
	header(w, "E12: sharded instance space — N concurrent leaders over residue classes")
	fmt.Fprintf(w, "  %d commands, batch=8, pipeline window 4 per leader, 3 acceptors\n", p.commands)
	rows, dur, err := mcpaxos.RunE12(p.seed, p.commands, []int{1, 2, 4, 8}, 8, 4)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "  mode       commands  instances  msgs    steps  cmds/step  msgs/cmd  max-merge-buf")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-10s %-9d %-10d %-7d %-6d %-10.2f %-9.2f %d\n",
			r.Mode, r.Commands, r.Instances, r.Msgs, r.SimSteps,
			r.CmdsPerStep, r.MsgsPerCmd, r.MaxMergeBuffer)
	}
	fmt.Fprintf(w, "  durable (shards=%d, WAL-backed): %.3f fsyncs/cmd/acc, per-shard accepts %v\n",
		dur.Shards, dur.FsyncsPerCmdPerAcc, dur.ShardAccepts)
	fmt.Fprintln(w, "  (leaders share nothing on the instance axis: fixed per-leader window,")
	fmt.Fprintln(w, "   aggregate pipeline grows N×; learners merge by instance number)")
	return nil
}

func e13(w io.Writer, p params) error {
	header(w, "E13: multicoordinated shards — coordinator quorums per shard (Section 4.1)")
	fmt.Fprintf(w, "  %d commands, 2 shards, batch=8, window 4, 3 acceptors; crash = kill one\n", p.commands)
	fmt.Fprintln(w, "  coordinator per shard mid-stream")
	fmt.Fprintln(w, "  mode       commands  instances  msgs    steps  msgs/cmd  round-changes  promotions  writes/inst/acc")
	for _, r := range mcpaxos.RunE13(p.seed, p.commands, 8, 4) {
		fmt.Fprintf(w, "  %-10s %-9d %-10d %-7d %-6d %-9.2f %-14d %-11d %.2f\n",
			r.Mode, r.Commands, r.Instances, r.Msgs, r.SimSteps,
			r.MsgsPerCmd, r.RoundChanges, r.Promotions, r.WritesPerInstPerAcc)
	}
	fmt.Fprintln(w, "  (a coordinator quorum of ⌊c/2⌋+1 matching 2as accepts: under c=3 one crash")
	fmt.Fprintln(w, "   per shard masks — same rounds, same order, zero round changes — where c=1")
	fmt.Fprintln(w, "   pays a failover round change; the price is the ~c× 2a/propose fan-out, not")
	fmt.Fprintln(w, "   a disk write: an acceptor writes once per accepted instance at any c)")
	return nil
}

// e14 fails when any seed's run broke a checked claim; its FAIL rows say why.
func e14(w io.Writer, p params) error {
	header(w, "E14: nemesis — adversarial network + linearizability check (simulator)")
	fmt.Fprintf(w, "  %d randomized seeds; each: 4 closed-loop clients × 24 mixed get/set/del ops,\n", p.seeds)
	fmt.Fprintln(w, "  2 shards × group of 3, 3 acceptors F=1, under partitions (incl. isolated")
	fmt.Fprintln(w, "  coordinator quorums), cuts, crashes, loss bursts + a background loss floor,")
	fmt.Fprintln(w, "  dup storms, reorder windows and clock-skew windows")
	rows := mcpaxos.RunE14(p.seed, p.seeds, 4, 24)
	failed := 0
	var msgs, dropped, duplicated, skewed uint64
	for _, r := range rows {
		if !r.Ok {
			failed++
			fmt.Fprintf(w, "  FAIL seed %d: %s\n", r.Seed, r.Failure)
		}
		msgs += r.Msgs
		dropped += r.Net.Dropped
		duplicated += r.Net.Duplicated
		skewed += r.Net.Skewed
	}
	fmt.Fprintf(w, "  %d/%d seeds clean; %d msgs total, %d dropped, %d duplicated, %d timers skewed\n",
		len(rows)-failed, len(rows), msgs, dropped, duplicated, skewed)
	fmt.Fprintln(w, "  (every run: all ops resolve, learners agree, merged order duplicate-free,")
	fmt.Fprintln(w, "   history linearizable — the paper's safety claim under Section 2.1.1 faults)")
	if failed > 0 {
		return fmt.Errorf("%d of %d seeds failed", failed, len(rows))
	}
	return nil
}

// nemesisExp fails when a seed's run broke a checked claim, on either path.
func nemesisExp(p params, liveSeeds int) error {
	if err := e14(os.Stdout, p); err != nil {
		return fmt.Errorf("e14: %w", err)
	}
	header(os.Stdout, "NEMESIS LIVE: the same harness over loopback TCP (wall clock)")
	if p.seeds < liveSeeds {
		liveSeeds = p.seeds
	}
	for i := 0; i < liveSeeds; i++ {
		dir, err := os.MkdirTemp("", "nemesis-wal-*")
		if err != nil {
			return fmt.Errorf("nemesis: %w", err)
		}
		r, err := mcpaxos.RunLiveNemesis(p.seed+int64(i), 3, 8, 1, dir)
		os.RemoveAll(dir)
		if err != nil {
			return fmt.Errorf("nemesis seed %d: %w", r.Seed, err)
		}
		status := "ok"
		if !r.Ok {
			status = "FAIL: " + r.Failure
		}
		fmt.Printf("  seed %-4d ops=%d acked=%d resolved=%d applied=%d events=%d %v  %s\n",
			r.Seed, r.Ops, r.Acked, r.Resolved, r.Applied, r.FaultEvents,
			r.Elapsed.Round(time.Millisecond), status)
		fmt.Printf("           net: dropped=%d dup=%d delayed=%d skewed=%d  client: retries=%d probes=%d\n",
			r.Net.Dropped, r.Net.Duplicated, r.Net.Delayed, r.Net.Skewed,
			r.Client.Retries, r.Client.ReplayProbes)
		fmt.Printf("           recovery: replays=%d catchup-reqs=%d chunks=%d cmds=%d resyncs=%d probes=%d fallbacks=%d snap-installs=%d\n",
			r.Replays, r.Catchup.Reqs, r.Catchup.Chunks, r.Catchup.Cmds, r.Catchup.Resyncs, r.Catchup.Probes, r.Catchup.Fallbacks, r.Catchup.SnapInstalls)
		fmt.Printf("           disk: wal-segs=%d wal-bytes=%d snap-files=%d snap-bytes=%d  compaction: saves=%d watermark=%d resident-log=%d\n",
			r.WALSegs, r.WALBytes, r.Compaction.SnapFiles, r.Compaction.SnapBytes,
			r.Compaction.Saves, r.Compaction.Watermark, r.Compaction.ResidentLog)
		if !r.Ok {
			return fmt.Errorf("nemesis seed %d: %s", r.Seed, r.Failure)
		}
	}
	fmt.Println("  (convergence: every acked op applied on every learner, no learner ends")
	fmt.Println("   stalled behind a gap, orders prefix-consistent and duplicate-free)")
	return nil
}

// e16 fails when an arm could not run or compaction did not bound storage;
// each arm's WAL directory is removed before it returns.
func e16(commands, snapEvery int) error {
	header(os.Stdout, "E16: snapshot & log compaction — bounded storage under a long write stream")
	fmt.Printf("  %d commands, 2 shards × group of 3, 3 WAL-backed acceptors; baseline vs\n", commands)
	fmt.Printf("  SnapshotEvery=%d (retain %d); windowed disk/memory samples\n", snapEvery, snapEvery/2)
	runArm := func(every int) (mcpaxos.E16Run, error) {
		dir, err := os.MkdirTemp("", "e16-*")
		if err != nil {
			return mcpaxos.E16Run{}, err
		}
		defer os.RemoveAll(dir)
		return mcpaxos.RunE16Compaction(commands, every, 8, dir)
	}
	// The baseline's interval is longer than any run: it never cuts a
	// snapshot, so nothing is truncated.
	base, err := runArm(1 << 30)
	if err != nil {
		return fmt.Errorf("e16 baseline: %w", err)
	}
	comp, err := runArm(snapEvery)
	if err != nil {
		return fmt.Errorf("e16 compaction: %w", err)
	}
	print := func(name string, r mcpaxos.E16Run) {
		fmt.Printf("  %s (SnapshotEvery=%d, %v):\n", name, r.SnapshotEvery, r.Elapsed.Round(time.Millisecond))
		fmt.Println("    commands  wal-segs  wal-bytes  snap-bytes  resident-log  watermark  saves")
		for _, s := range r.Samples {
			fmt.Printf("    %-9d %-9d %-10d %-11d %-13d %-10d %d\n",
				s.Commands, s.WALSegs, s.WALBytes, s.SnapBytes, s.ResidentLog, s.Watermark, s.Saves)
		}
	}
	print("baseline", base)
	print("compaction", comp)
	if msg := mcpaxos.E16Bounded(base, comp); msg != "" {
		fmt.Printf("  BOUNDED-STORAGE CHECK FAILED: %s\n", msg)
		return fmt.Errorf("e16: %s", msg)
	}
	fmt.Println("  (with compaction the learner resident log and the acceptors' WAL bytes")
	fmt.Println("   plateau — the watermark truncates behind the snapshots — where the")
	fmt.Println("   baseline grows monotonically with history size)")
	return nil
}

func e15(shards, coords, maxClients, perClient, workers int) error {
	header(os.Stdout, "E15: multi-client scaling — N client processes, server-side sequencing")
	fmt.Printf("  %d commands per client, %d closed-loop workers each, %d shards × group of %d,\n",
		perClient, workers, shards, coords)
	fmt.Println("  3 acceptors; fresh deployment per point; loopback TCP, wall clock")
	counts := []int{}
	for _, n := range []int{1, 2, 4, 8} {
		if n <= maxClients {
			counts = append(counts, n)
		}
	}
	rows, err := mcpaxos.RunE15(shards, coords, 3, counts, perClient, workers)
	if err != nil {
		return fmt.Errorf("e15: %w", err)
	}
	fmt.Println("  clients  cmds   agg-cmds/s  scaling  per-client p50        per-client p99")
	base := 0.0
	for _, r := range rows {
		if base == 0 {
			base = r.Aggregate
		}
		p50lo, p50hi, p99lo, p99hi := r.PerClient[0].P50, r.PerClient[0].P50, r.PerClient[0].P99, r.PerClient[0].P99
		for _, c := range r.PerClient[1:] {
			if c.P50 < p50lo {
				p50lo = c.P50
			}
			if c.P50 > p50hi {
				p50hi = c.P50
			}
			if c.P99 < p99lo {
				p99lo = c.P99
			}
			if c.P99 > p99hi {
				p99hi = c.P99
			}
		}
		fmt.Printf("  %-8d %-6d %-11.0f %-8s %-21s %s\n",
			r.Clients, r.Commands, r.Aggregate,
			fmt.Sprintf("%.2fx", r.Aggregate/base),
			fmt.Sprintf("%v–%v", p50lo.Round(10*time.Microsecond), p50hi.Round(10*time.Microsecond)),
			fmt.Sprintf("%v–%v", p99lo.Round(10*time.Microsecond), p99hi.Round(10*time.Microsecond)))
		if r.Retries+r.Rotations > 0 {
			fmt.Printf("           (retries=%d rotations=%d)\n", r.Retries, r.Rotations)
		}
	}
	fmt.Println("  (a request is its command ID (client, request counter) and clients never")
	fmt.Println("   sequence; the shard's primary coordinator stamps Seq at ingress and shares")
	fmt.Println("   the stamp with its group, so independent client processes feed one")
	fmt.Println("   multicoordinated stream)")
	return nil
}
