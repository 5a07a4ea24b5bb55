// Package experiments is the paper's harness. It regenerates the
// quantitative claims of Multicoordinated Paxos (Camargos, Schmidt, Pedone —
// TR 2007/02, PODC 2007) against the protocol family it extends — Classic,
// Fast and Generalized Paxos — and measures the deployed stack beside them:
//
//   - E1–E9 and the ablations run on the deterministic discrete-event
//     simulator: communication steps, quorum sizes, availability, load
//     balance, collision cost, disk writes, conflict rates, failover and
//     spontaneous order;
//   - E10–E13 drain one classic SMR deployment on the simulator: batching,
//     group commit on real WALs, sharding and crash masking;
//   - E14 sweeps the nemesis's fault schedules on the simulator, and
//     RunLiveNemesis replays them over loopback TCP, both judged by one
//     verdict with the linearizability checker;
//   - E15 and E16 run the live stack: multi-client scaling and bounded
//     storage under compaction.
//
// classic is the engine that ships — rounds served by coordinator groups of
// any size c, behind the live path, E10–E14 and the classic rows of E1–E9 —
// and core is the paper's algorithm over c-structs, fast rounds included,
// which runs on the simulator only. cmd/paxosbench prints every experiment
// and is this package's one importer; bench_test.go wraps the drivers as Go
// benchmarks.
package experiments

import (
	"fmt"
	"maps"
	"slices"

	"mcpaxos/internal/ballot"
	"mcpaxos/internal/classic"
	"mcpaxos/internal/core"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/failure"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/quorum"
	"mcpaxos/internal/sim"
)

// This file implements the experiment drivers E1-E9: each regenerates one
// quantitative claim of the paper's evaluation, named with its section in
// the driver's comment and printed beside the measurement by cmd/paxosbench.
// Every protocol row but Classic Paxos's is a configuration of
// internal/core, brought up by the one trial below (coreTrial), which the
// ablations share; the probes the rows repeat — a sequential command stream,
// the steps to the first learn, whether any acceptor promoted — are written
// once beside it. E6's classic row is E10's sequential drain. bench_test.go
// and cmd/paxosbench are thin wrappers over these functions.

// Protocol selects one member of the Paxos family.
type Protocol uint8

// Protocols under comparison.
const (
	// ProtocolClassic is Classic Paxos: 3 steps, single leader.
	ProtocolClassic Protocol = iota + 1
	// ProtocolFast is Fast Paxos: 2 steps, fast quorums, collisions.
	ProtocolFast
	// ProtocolMulti is Multicoordinated Paxos: 3 steps, coordinator
	// quorums, no single leader (the paper's contribution).
	ProtocolMulti
	// ProtocolGeneralized is Generalized Paxos: Fast Paxos over c-structs.
	ProtocolGeneralized
)

// String renders the protocol name.
func (p Protocol) String() string {
	switch p {
	case ProtocolClassic:
		return "classic"
	case ProtocolFast:
		return "fast"
	case ProtocolMulti:
		return "multicoordinated"
	case ProtocolGeneralized:
		return "generalized"
	default:
		return "unknown"
	}
}

// QuorumSizes reports the acceptor quorum cardinalities the paper's
// Section 2.2 derives for n acceptors: majority classic quorums, the
// matching minimal fast quorums, and the balanced E=F configuration.
func QuorumSizes(n int) (classic, fastMajority, balanced int, err error) {
	maj, err := quorum.NewAcceptorSystem(n, (n-1)/2, quorum.MaxEForMajorityF(n))
	if err != nil {
		return 0, 0, 0, err
	}
	bal, err := quorum.BalancedSystem(n)
	if err != nil {
		return 0, 0, 0, err
	}
	return maj.ClassicSize(), maj.FastSize(), bal.FastSize(), nil
}

// coreTrial brings o's internal/core cluster up under seed, runs its first
// round, and zeroes the acceptors' disk-write and the simulator's message
// counters, so every count a row reads starts at the measurement.
func coreTrial(seed int64, o core.ClusterOpts) *core.Cluster {
	o.Seed = seed
	cl := core.NewCluster(o)
	cl.Start(0)
	for _, d := range cl.Disks {
		d.ResetWrites()
	}
	cl.Sim.Metrics().Reset()
	return cl
}

// stream proposes commands 1..n from proposer 0, running the simulator dry
// after each.
func stream(cl *core.Cluster, n int) {
	for i := 0; i < n; i++ {
		cl.Props[0].Propose(cstruct.Cmd{ID: uint64(1 + i)})
		cl.Sim.Run()
	}
}

// stepsToLearn runs propose, then the simulator dry, and returns the steps
// from the proposal to learner 0's first learn; ok is false when nothing was
// learned.
func stepsToLearn(cl *core.Cluster, propose func()) (steps int64, ok bool) {
	start := cl.Sim.Now()
	propose()
	cl.Sim.Run()
	first := int64(-1)
	for _, t := range cl.LearnTimes {
		if first < 0 || t < first {
			first = t
		}
	}
	return first - start, first >= 0
}

// promoted reports whether any acceptor promoted a collided round.
func promoted(cl *core.Cluster) bool {
	return slices.ContainsFunc(cl.Accs, func(a *core.Acceptor) bool { return a.Promotions() > 0 })
}

// ---------------------------------------------------------------- E1 -----

// E1Result reports communication steps from proposal to learning, with
// phase 1 pre-executed (stable run).
type E1Result struct {
	Steps map[Protocol]int64
}

// RunE1StepsToLearn measures steps-to-learn for each protocol (claim:
// classic 3, fast 2, multicoordinated 3 — Sections 1, 2.2, 3.1).
func RunE1StepsToLearn(seed int64) E1Result {
	out := E1Result{Steps: make(map[Protocol]int64)}

	ccl := classic.NewCluster(classic.ClusterOpts{NCoords: 1, NAcceptors: 5, F: 2, Seed: seed})
	ccl.Lead(0)
	start := ccl.Sim.Now()
	ccl.Prop.Propose(cstruct.Cmd{ID: 1})
	ccl.Sim.Run()
	out.Steps[ProtocolClassic] = ccl.LearnTime[0] - start

	steps := func(o core.ClusterOpts) int64 {
		cl := coreTrial(seed, o)
		n, _ := stepsToLearn(cl, func() { cl.Props[0].Propose(cstruct.Cmd{ID: 1, Key: "k"}) })
		return n
	}
	out.Steps[ProtocolFast] = steps(core.ClusterOpts{NCoords: 1, NAcceptors: 4, F: 1, E: 1,
		Scheme: ballot.FastScheme{}})
	out.Steps[ProtocolMulti] = steps(core.ClusterOpts{NCoords: 3, NAcceptors: 5, F: 2})
	out.Steps[ProtocolGeneralized] = steps(core.ClusterOpts{NCoords: 1, NAcceptors: 4, F: 1, E: 1,
		Scheme: ballot.FastScheme{}, Set: cstruct.NewHistorySet(cstruct.KeyConflict)})
	return out
}

// ---------------------------------------------------------------- E2 -----

// E2Row is one line of the quorum-size table.
type E2Row struct {
	N            int
	Classic      int // majority classic quorum (n−F, F=⌈n/2⌉−1)
	FastMajority int // minimal fast quorum with majority classic quorums
	Balanced     int // E=F quorum (⌈(2n+1)/3⌉)
	MultiCoord   int // acceptor quorum of multicoordinated rounds = Classic
}

// RunE2QuorumSizes tabulates Section 2.2's quorum cardinalities. The
// paper's headline: multicoordinated rounds only need majorities where fast
// rounds need ~3n/4.
func RunE2QuorumSizes(ns []int) []E2Row {
	out := make([]E2Row, 0, len(ns))
	for _, n := range ns {
		c, f, b, err := QuorumSizes(n)
		if err != nil {
			continue
		}
		out = append(out, E2Row{N: n, Classic: c, FastMajority: f, Balanced: b, MultiCoord: c})
	}
	return out
}

// ---------------------------------------------------------------- E3 -----

// E3Row reports whether a round keeps deciding after coordinator crashes.
type E3Row struct {
	Kind         string
	CoordCrashes int
	Progress     bool
	RoundChanged bool
}

// RunE3Availability regenerates the Section 4.1 availability argument:
// single-coordinated rounds stall on one coordinator crash;
// multicoordinated rounds (3 coordinators) survive any minority.
func RunE3Availability(seed int64) []E3Row {
	var out []E3Row
	run := func(kind string, scheme ballot.Scheme, ncoords, crashes int) {
		cl := coreTrial(seed, core.ClusterOpts{
			NCoords: ncoords, NAcceptors: 3, F: 1,
			Scheme: scheme, Set: cstruct.CmdSetSet{},
		})
		r0 := cl.Accs[0].Rnd()
		for i := 0; i < crashes; i++ {
			cl.Sim.Crash(cl.Cfg.Coords[i%len(cl.Cfg.Coords)])
		}
		_, ok := stepsToLearn(cl, func() { cl.Props[0].Propose(cstruct.Cmd{ID: 42}) })
		out = append(out, E3Row{
			Kind:         kind,
			CoordCrashes: crashes,
			Progress:     ok,
			RoundChanged: !cl.Accs[0].Rnd().Equal(r0),
		})
	}
	for crashes := 0; crashes <= 1; crashes++ {
		run("single-coordinated", ballot.SingleScheme{}, 1, crashes)
	}
	for crashes := 0; crashes <= 2; crashes++ {
		run("multicoordinated(3)", ballot.MultiScheme{}, 3, crashes)
	}
	return out
}

// ---------------------------------------------------------------- E4 -----

// E4Result reports the per-process share of commands handled under quorum
// load balancing (Section 4.1).
type E4Result struct {
	NCoords, NAcceptors int
	Commands            int
	// MaxCoordShare is the largest fraction of commands any multicoord
	// coordinator processed; paper bound: 1/2 + 1/nc.
	MaxCoordShare float64
	CoordBound    float64
	// MaxAccShare is the largest fraction any acceptor handled in
	// multicoordinated rounds; paper bound: 1/2 + 1/n.
	MaxAccShare float64
	AccBound    float64
	// FastAccShare is the per-acceptor share in fast rounds with random
	// fast quorums; paper claim: > 3/4.
	FastAccShare float64
}

// RunE4LoadBalance measures load distribution: multicoordinated rounds with
// random coordinator/acceptor quorums versus fast rounds with random fast
// quorums.
func RunE4LoadBalance(seed int64, ncoords, nacc, commands int) E4Result {
	res := E4Result{
		NCoords: ncoords, NAcceptors: nacc, Commands: commands,
		CoordBound: 0.5 + 1.0/float64(ncoords),
		AccBound:   0.5 + 1.0/float64(nacc),
	}
	// Multicoordinated, balanced: commuting commands (disjoint coordinator
	// views of conflicting commands are exactly the collision case).
	mcl := coreTrial(seed, core.ClusterOpts{
		NCoords: ncoords, NAcceptors: nacc, F: (nacc - 1) / 2,
		Set: cstruct.NewHistorySet(cstruct.NeverConflict), Balance: true,
	})
	stream(mcl, commands)
	m0 := mcl.Sim.Metrics()
	for _, co := range mcl.Cfg.Coords {
		share := float64(m0.RecvByNodeType[co][msg.TPropose]) / float64(commands)
		if share > res.MaxCoordShare {
			res.MaxCoordShare = share
		}
	}
	qc := mcl.Cfg.CoordQ.Size()
	for _, acc := range mcl.Cfg.Acceptors {
		share := float64(m0.RecvByNodeType[acc][msg.TP2a]) / float64(commands*qc)
		if share > res.MaxAccShare {
			res.MaxAccShare = share
		}
	}

	// Fast rounds: each command goes to one random fast quorum.
	e := (nacc - 1 - (nacc-1)/2) / 2
	if e < 1 {
		e = 1
	}
	fcl := coreTrial(seed, core.ClusterOpts{
		NCoords: 1, NAcceptors: nacc, F: (nacc - 1) / 2, E: e,
		Scheme: ballot.FastScheme{}, Set: cstruct.NewHistorySet(cstruct.NeverConflict),
	})
	rng := fcl.Sim.Rand()
	env := fcl.Sim.Env(1)
	fastSize := fcl.Cfg.Quorums.FastSize()
	for i := 0; i < commands; i++ {
		m := msg.Propose{Cmd: cstruct.Cmd{ID: uint64(1 + i)}}
		perm := rng.Perm(nacc)
		for _, j := range perm[:fastSize] {
			env.Send(fcl.Cfg.Acceptors[j], m)
		}
		fcl.Sim.Run()
	}
	maxFast := 0.0
	for _, acc := range fcl.Cfg.Acceptors {
		share := float64(fcl.Sim.Metrics().RecvByNodeType[acc][msg.TPropose]) / float64(commands)
		if share > maxFast {
			maxFast = share
		}
	}
	res.FastAccShare = maxFast
	return res
}

// ---------------------------------------------------------------- E5 -----

// E5Row reports collision recovery cost for one scenario.
type E5Row struct {
	Scenario string
	// TotalSteps is proposal→learn latency with the collision.
	TotalSteps int64
	// ExtraSteps is TotalSteps minus the collision-free latency of the
	// same round type.
	ExtraSteps int64
	// AcceptorWrites is the total synchronous disk writes spent during the
	// episode across all acceptors.
	AcceptorWrites uint64
}

// RunE5CollisionRecovery forces a collision and measures each recovery
// strategy (restart 4 extra steps, coordinated 2, uncoordinated 1 — §2.2,
// §4.2) plus the multicoordinated collision path, whose acceptors never
// waste disk writes on the collided round. Every row is internal/core: the
// fast rows are one coordinator's fast rounds over single values, told apart
// by the scheme and core.Recovery.
func RunE5CollisionRecovery(seed int64) []E5Row {
	var out []E5Row
	collide := func(name string, o core.ClusterOpts, base int64) {
		o.NProposers = 2
		cl := coreTrial(seed, o)
		if steps, ok := stepsToLearn(cl, func() { crossPropose(cl, cstruct.Cmd{ID: 100}, cstruct.Cmd{ID: 200}) }); ok {
			out = append(out, E5Row{
				Scenario:       name,
				TotalSteps:     steps,
				ExtraSteps:     steps - base,
				AcceptorWrites: cl.TotalDiskWrites(),
			})
		}
	}
	// Fast rounds: the acceptor halves see opposite first proposals, so the
	// 2-2 split reaches no fast quorum of 3 and the recovery must run.
	fast := func(scheme ballot.Scheme, r core.Recovery) core.ClusterOpts {
		return core.ClusterOpts{NCoords: 1, NAcceptors: 4, F: 1, E: 1, Scheme: scheme, Recovery: r}
	}
	collide("fast+restart", fast(ballot.FastScheme{}, core.Restart), 2)
	collide("fast+coordinated", fast(ballot.FastScheme{}, core.Coordinated), 2)
	collide("fast+uncoordinated", fast(ballot.FastUncoordScheme{}, core.AtAcceptors), 2)

	// Multicoordinated collision: with two coordinators (one quorum of
	// both), opposite first proposals make the quorum's c-structs
	// incompatible — nothing can be accepted, acceptors detect and promote
	// (2 extra steps, and no wasted acceptor writes on the collided round,
	// Section 4.2).
	collide("multicoord+promote", core.ClusterOpts{NCoords: 2, NAcceptors: 3, F: 1}, 3)
	return out
}

// crossPropose has proposers 1 and 2 submit a and b to whoever takes
// proposals in cl's first round — its acceptors if the round is fast, its
// coordinators otherwise — a to the first half of them and b to the rest,
// then, one step later, each to the other half, so the halves see the two in
// opposite orders. A fast round's coordinator hears both at the second step:
// a recovery round needs them.
func crossPropose(cl *core.Cluster, a, b cstruct.Cmd) {
	targets := cl.Cfg.Coords
	fast := cl.Cfg.Scheme.IsFast(cl.Cfg.Scheme.First(0, 0))
	if fast {
		targets = cl.Cfg.Acceptors
	}
	env1, env2 := cl.Sim.Env(1), cl.Sim.Env(2)
	half := len(targets) / 2
	for i, tgt := range targets {
		if i < half {
			env1.Send(tgt, msg.Propose{Cmd: a})
		} else {
			env2.Send(tgt, msg.Propose{Cmd: b})
		}
	}
	cl.Sim.After(1, func() {
		for i, tgt := range targets {
			if i < half {
				env2.Send(tgt, msg.Propose{Cmd: b})
			} else {
				env1.Send(tgt, msg.Propose{Cmd: a})
			}
		}
		if fast {
			env1.Send(cl.Cfg.Coords[0], msg.Propose{Cmd: a})
			env2.Send(cl.Cfg.Coords[0], msg.Propose{Cmd: b})
		}
	})
}

// ---------------------------------------------------------------- E6 -----

// E6Result reports disk-write accounting (Section 4.2, 4.4).
type E6Result struct {
	// WritesPerCommandPerAcceptor in stable runs, by protocol.
	WritesPerCommandPerAcceptor map[Protocol]float64
	// CoordinatorWrites across the whole run (claim: 0).
	CoordinatorWrites uint64
	// RecoveryWrites is the extra writes one acceptor crash/recovery
	// cycle costs (claim: 1 incarnation write).
	RecoveryWrites uint64
}

// RunE6DiskWrites measures stable-run and recovery disk writes.
func RunE6DiskWrites(seed int64, commands int) E6Result {
	res := E6Result{WritesPerCommandPerAcceptor: make(map[Protocol]float64)}

	// Classic Paxos is E10's sequential drain: one leader, three acceptors.
	d, _ := drain(drainSpec{seed: seed, commands: commands, batch: 1, sequential: true})
	res.WritesPerCommandPerAcceptor[ProtocolClassic] =
		float64(d.writes) / float64(commands*len(d.cl.Disks))

	streamed := func(o core.ClusterOpts) (*core.Cluster, float64) {
		o.Set = cstruct.NewHistorySet(cstruct.NeverConflict)
		cl := coreTrial(seed, o)
		stream(cl, commands)
		return cl, float64(cl.TotalDiskWrites()) / float64(commands*len(cl.Disks))
	}
	var mcl *core.Cluster
	mcl, res.WritesPerCommandPerAcceptor[ProtocolMulti] = streamed(core.ClusterOpts{NCoords: 3, NAcceptors: 3, F: 1})
	_, res.WritesPerCommandPerAcceptor[ProtocolFast] = streamed(core.ClusterOpts{NCoords: 1, NAcceptors: 4, F: 1, E: 1,
		Scheme: ballot.FastScheme{}})

	// Coordinators have no disks at all in this implementation; the claim
	// "coordinators need no stable storage" is structural. Report 0.
	res.CoordinatorWrites = 0

	// Recovery cost: crash and recover one multicoord acceptor.
	before := mcl.Disks[0].Writes()
	mcl.Sim.Crash(mcl.Cfg.Acceptors[0])
	mcl.Restart(mcl.Cfg.Acceptors[0])
	mcl.Sim.Run()
	res.RecoveryWrites = mcl.Disks[0].Writes() - before
	return res
}

// ---------------------------------------------------------------- E7 -----

// E7Row is one conflict-rate sample of the collision sweep.
type E7Row struct {
	ConflictRate float64
	Protocol     Protocol
	Trials       int
	// CollisionFrac is the fraction of trials needing a round change.
	CollisionFrac float64
	// MeanSteps is the mean proposal→learn latency over both commands.
	MeanSteps float64
	// Learned is the fraction of commands eventually learned.
	Learned float64
}

// RunE7ConflictSweep regenerates the commutativity claim (Sections 2.3,
// 3.3, 4.5): generalized protocols absorb commuting concurrent commands; as
// the conflict rate grows, fast rounds collide (wasting acceptor work)
// while multicoordinated rounds collide coordinator-side.
func RunE7ConflictSweep(seed int64, rhos []float64, trials int) []E7Row {
	var out []E7Row
	for _, rho := range rhos {
		for _, proto := range []Protocol{ProtocolMulti, ProtocolGeneralized} {
			row := E7Row{ConflictRate: rho, Protocol: proto, Trials: trials}
			var sumSteps, nSteps float64
			collided := 0
			learnedCmds, totalCmds := 0, 0
			for trial := 0; trial < trials; trial++ {
				tseed := seed + int64(trial)*7919
				conflictPair := float64(tseed%1000)/1000.0 < rho
				keyA, keyB := "a", "b"
				if conflictPair {
					keyB = keyA
				}
				a := cstruct.Cmd{ID: 1, Key: keyA, Op: cstruct.OpWrite}
				b := cstruct.Cmd{ID: 2, Key: keyB, Op: cstruct.OpWrite}

				o := core.ClusterOpts{NCoords: 3, NAcceptors: 3, F: 1}
				if proto == ProtocolGeneralized {
					o = core.ClusterOpts{NCoords: 1, NAcceptors: 4, F: 1, E: 1,
						Scheme: ballot.FastScheme{}, Recovery: core.AtAcceptors}
				}
				o.NProposers, o.Set = 2, cstruct.NewHistorySet(cstruct.KeyConflict)
				cl := coreTrial(tseed, o)
				start := cl.Sim.Now()
				crossPropose(cl, a, b) // concurrent, in inverted arrival orders
				cl.Sim.Run()
				if promoted(cl) {
					collided++
				}
				totalCmds += 2
				for _, id := range []uint64{1, 2} {
					if t, ok := cl.LearnTimes[id]; ok {
						learnedCmds++
						sumSteps += float64(t - start)
						nSteps++
					}
				}
			}
			row.CollisionFrac = float64(collided) / float64(trials)
			if nSteps > 0 {
				row.MeanSteps = sumSteps / nSteps
			}
			row.Learned = float64(learnedCmds) / float64(totalCmds)
			out = append(out, row)
		}
	}
	return out
}

// ---------------------------------------------------------------- E8 -----

// E8Result reports the unavailability window after a coordinator crash.
type E8Result struct {
	// BaselineGap is the steady-state inter-learn gap.
	BaselineGap int64
	// ClassicGap is the largest inter-learn gap after the classic leader
	// crashes (detection + election + phase 1).
	ClassicGap int64
	// MultiGap is the largest gap after one multicoord coordinator
	// crashes (claim: no stall).
	MultiGap int64
}

// elected hosts a classic coordinator and its leader elector on one node:
// every message and timer reaches both, the coordinator first.
type elected struct {
	*classic.Coordinator
	el *failure.Elector
}

func (h elected) OnMessage(from msg.NodeID, m msg.Message) {
	h.Coordinator.OnMessage(from, m)
	h.el.OnMessage(from, m)
}

func (h elected) OnTimer(tag int) {
	h.Coordinator.OnTimer(tag)
	h.el.OnTimer(tag)
}

// RunE8LeaderFailover crashes the leader (classic) or one coordinator
// (multicoordinated) under a steady command stream and measures the longest
// decision gap (Sections 1, 4.1).
func RunE8LeaderFailover(seed int64) E8Result {
	const (
		period   = 5
		crashAt  = 100
		until    = 600
		hbEvery  = 10
		hbTmout  = 25
		firstCmd = 1000
	)

	// Classic Paxos with elector-driven leadership.
	ccl := classic.NewCluster(classic.ClusterOpts{NCoords: 3, NAcceptors: 3, F: 1, Seed: seed})
	var electors []*failure.Elector
	for i, id := range ccl.Cfg.Coords {
		co := ccl.Coords[i]
		el := failure.NewElector(ccl.Sim.Env(id), ccl.Cfg.Coords, hbEvery, hbTmout,
			func(_ msg.NodeID, isSelf bool) {
				if isSelf {
					co.BecomeLeader()
				} else {
					co.StepDown()
				}
			})
		electors = append(electors, el)
		ccl.Sim.Register(id, elected{co, el})
	}
	for _, el := range electors {
		el.Start()
	}
	id := uint64(firstCmd)
	for t := int64(10); t < until; t += period {
		cid := id
		ccl.Sim.At(t, func() { ccl.Prop.Propose(cstruct.Cmd{ID: cid}) })
		id++
	}
	ccl.Sim.At(crashAt, func() { ccl.Sim.Crash(ccl.Cfg.Coords[0]) })
	ccl.Sim.RunUntil(until + 100)
	classicGap, base := maxGap(slices.Collect(maps.Values(ccl.LearnTime)), crashAt)

	// Multicoordinated Paxos: crash one of three coordinators.
	mcl := coreTrial(seed, core.ClusterOpts{NCoords: 3, NAcceptors: 3, F: 1,
		Set: cstruct.NewHistorySet(cstruct.NeverConflict)})
	id = uint64(firstCmd)
	for t := int64(10); t < until; t += period {
		cid := id
		mcl.Sim.At(t, func() { mcl.Props[0].Propose(cstruct.Cmd{ID: cid}) })
		id++
	}
	mcl.Sim.At(crashAt, func() { mcl.Sim.Crash(mcl.Cfg.Coords[1]) })
	mcl.Sim.RunUntil(until + 100)
	multiGap, _ := maxGap(slices.Collect(maps.Values(mcl.LearnTimes)), crashAt)

	return E8Result{BaselineGap: base, ClassicGap: classicGap, MultiGap: multiGap}
}

// maxGap returns the largest gap between consecutive learn times after
// `after`, plus the modal steady-state gap before it.
func maxGap(times []int64, after int64) (worst int64, baseline int64) {
	if len(times) == 0 {
		return 0, 0
	}
	slices.Sort(times)
	baseline = 0
	for i := 1; i < len(times); i++ {
		gap := times[i] - times[i-1]
		if times[i] <= after {
			if baseline == 0 || gap < baseline {
				if gap > 0 {
					baseline = gap
				}
			}
			continue
		}
		if gap > worst {
			worst = gap
		}
	}
	return worst, baseline
}

// ---------------------------------------------------------------- E9 -----

// E9Row is one jitter sample of the spontaneous-ordering experiment.
type E9Row struct {
	Jitter int64
	// FastCollisionFrac is how often the fast round failed to decide in
	// one shot (needed recovery).
	FastCollisionFrac float64
	FastMeanSteps     float64
	// MultiCollisionFrac is how often multicoordinated rounds collided.
	MultiCollisionFrac float64
	MultiMeanSteps     float64
}

// RunE9SpontaneousOrder regenerates the Section 4.5 scenario analysis:
// low-jitter ("clustered") networks spontaneously order proposals and favor
// fast rounds; high jitter ("conflict prone") inverts messages, collapses
// fast rounds into recovery, and favors classic/multicoordinated rounds.
func RunE9SpontaneousOrder(seed int64, jitters []int64, trials int) []E9Row {
	// race starts o's first round, then has two proposers submit at once over
	// links with the given jitter; it returns the cluster and the steps to its
	// first learn.
	race := func(tseed int64, o core.ClusterOpts, jit int64) (*core.Cluster, float64, bool) {
		o.NProposers = 2
		cl := coreTrial(tseed, o)
		cl.Sim.SetLatency(sim.JitterLatency(jit))
		steps, ok := stepsToLearn(cl, func() {
			cl.Props[0].Propose(cstruct.Cmd{ID: 100})
			cl.Props[1].Propose(cstruct.Cmd{ID: 200})
		})
		return cl, float64(steps), ok
	}
	var out []E9Row
	for _, jit := range jitters {
		row := E9Row{Jitter: jit}
		var fastColl, fastSteps, fastN float64
		var mcColl, mcSteps, mcN float64
		for trial := 0; trial < trials; trial++ {
			tseed := seed + int64(trial)*104729

			fcl, steps, ok := race(tseed, core.ClusterOpts{NCoords: 1, NAcceptors: 4, F: 1, E: 1,
				Scheme: ballot.FastScheme{}, Recovery: core.Coordinated}, jit)
			if ok {
				fastSteps += steps
				fastN++
			}
			if !fcl.Coords[0].Rnd().Equal(fcl.Cfg.Scheme.First(0, uint32(fcl.Cfg.Coords[0]))) {
				fastColl++
			}

			mcl, steps, ok := race(tseed, core.ClusterOpts{NCoords: 3, NAcceptors: 3, F: 1}, jit)
			if ok {
				mcSteps += steps
				mcN++
			}
			if promoted(mcl) {
				mcColl++
			}
		}
		row.FastCollisionFrac = fastColl / float64(trials)
		row.MultiCollisionFrac = mcColl / float64(trials)
		if fastN > 0 {
			row.FastMeanSteps = fastSteps / fastN
		}
		if mcN > 0 {
			row.MultiMeanSteps = mcSteps / mcN
		}
		out = append(out, row)
	}
	return out
}

// FormatE1 renders E1 as table rows.
func FormatE1(r E1Result) []string {
	order := []Protocol{ProtocolClassic, ProtocolFast, ProtocolMulti, ProtocolGeneralized}
	expect := map[Protocol]string{
		ProtocolClassic: "3", ProtocolFast: "2",
		ProtocolMulti: "3", ProtocolGeneralized: "2",
	}
	out := make([]string, 0, len(order))
	for _, p := range order {
		out = append(out, fmt.Sprintf("%-18s steps=%d (paper: %s)", p, r.Steps[p], expect[p]))
	}
	return out
}
