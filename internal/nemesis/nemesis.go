// Package nemesis generates the adversarial side of the fault-injection
// harness: randomized client workloads and seed-deterministic fault
// schedules (partitions, link cuts, node crashes, loss bursts, dup storms,
// reorder windows). A schedule is host-agnostic — the same events drive the
// simulator and a live TCP deployment — and always respects the liveness
// budgets of the deployment (at most F acceptors down, at most ⌊c/2⌋
// coordinators down per shard group, every fault bounded, and a quiet tail
// long enough for retransmission to converge), so a run that fails the
// linearizability check failed because of a protocol bug, not because the
// schedule asked for the impossible.
package nemesis

import (
	"fmt"
	"math/rand"
	"sort"

	"mcpaxos/internal/faults"
	"mcpaxos/internal/msg"
)

// OpKind is a client workload operation kind.
type OpKind uint8

// Workload operation kinds over the replicated KV.
const (
	OpGet OpKind = iota + 1
	OpSet
	OpDel
)

// Op is one client operation of a generated workload.
type Op struct {
	// Client is the issuing logical client index.
	Client uint64
	// Kind selects get/set/del; Value is the written value for OpSet.
	Kind  OpKind
	Key   string
	Value string
}

// WorkloadOpts parameterizes Workload.
type WorkloadOpts struct {
	// Clients is the number of closed-loop clients; OpsPerClient the length
	// of each client's op sequence.
	Clients, OpsPerClient int
	// Keys bounds the key space (small on purpose: contention makes
	// linearizability violations visible). 0 defaults to 4.
	Keys int
}

// Workload generates one op sequence per client, deterministic under seed.
// Written values are globally unique, so a read unambiguously identifies
// the write it observed.
func Workload(seed int64, o WorkloadOpts) [][]Op {
	if o.Keys <= 0 {
		o.Keys = 4
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([][]Op, o.Clients)
	for c := range out {
		ops := make([]Op, o.OpsPerClient)
		for i := range ops {
			op := Op{Client: uint64(c), Key: fmt.Sprintf("k%d", rng.Intn(o.Keys))}
			switch p := rng.Float64(); {
			case p < 0.45:
				op.Kind = OpSet
				op.Value = fmt.Sprintf("c%d-%d", c, i)
			case p < 0.85:
				op.Kind = OpGet
			default:
				op.Kind = OpDel
			}
			ops[i] = op
		}
		out[c] = ops
	}
	return out
}

// Kind is a fault-schedule event kind.
type Kind uint8

// Schedule event kinds. Loss/Dup/Reorder events carry the new probability
// (a burst ends with a P=0 event of the same kind); Crash/Recover carry the
// node; Partition carries the groups and Heal clears partitions and cuts.
const (
	FaultPartition Kind = iota + 1
	FaultHeal
	FaultCut
	FaultRestore
	FaultCrash
	FaultRecover
	FaultLoss
	FaultDup
	FaultReorder
	FaultSkew
)

// String renders the kind.
func (k Kind) String() string {
	switch k {
	case FaultPartition:
		return "partition"
	case FaultHeal:
		return "heal"
	case FaultCut:
		return "cut"
	case FaultRestore:
		return "restore"
	case FaultCrash:
		return "crash"
	case FaultRecover:
		return "recover"
	case FaultLoss:
		return "loss"
	case FaultDup:
		return "dup"
	case FaultReorder:
		return "reorder"
	case FaultSkew:
		return "skew"
	default:
		return "?"
	}
}

// Event is one step of a fault schedule.
type Event struct {
	// At is the event's time in ticks from schedule start.
	At int64
	// Kind selects which other fields are meaningful.
	Kind Kind
	// Groups is the partition split (FaultPartition).
	Groups [][]msg.NodeID
	// From/To name the severed direction (FaultCut, FaultRestore).
	From, To msg.NodeID
	// Node is the crashing/recovering node (FaultCrash, FaultRecover).
	Node msg.NodeID
	// P is the new probability (FaultLoss, FaultDup, FaultReorder).
	P float64
	// Delay is the reorder bound in ticks (FaultReorder).
	Delay int64
}

// String renders the event for failing-seed logs.
func (e Event) String() string {
	switch e.Kind {
	case FaultPartition:
		return fmt.Sprintf("t=%d partition %v", e.At, e.Groups)
	case FaultCut, FaultRestore:
		return fmt.Sprintf("t=%d %s %d->%d", e.At, e.Kind, e.From, e.To)
	case FaultCrash, FaultRecover:
		return fmt.Sprintf("t=%d %s node %d", e.At, e.Kind, e.Node)
	case FaultLoss, FaultDup:
		return fmt.Sprintf("t=%d %s p=%.2f", e.At, e.Kind, e.P)
	case FaultReorder:
		return fmt.Sprintf("t=%d reorder p=%.2f max=%d", e.At, e.P, e.Delay)
	case FaultSkew:
		return fmt.Sprintf("t=%d skew x%.2f", e.At, e.P)
	default:
		return fmt.Sprintf("t=%d %s", e.At, e.Kind)
	}
}

// Apply enacts an injector-level event on f and reports whether it was
// handled. FaultCrash and FaultRecover return false: node lifecycle is the
// host's to enact (sim.Crash/Recover, deploy Kill/Restart).
func Apply(f *faults.Faults, e Event) bool {
	switch e.Kind {
	case FaultPartition:
		f.Partition(e.Groups...)
	case FaultHeal:
		f.Heal()
	case FaultCut:
		f.Cut(e.From, e.To)
	case FaultRestore:
		f.Restore(e.From, e.To)
	case FaultLoss:
		f.SetLoss(e.P)
	case FaultDup:
		f.SetDup(e.P)
	case FaultReorder:
		f.SetReorder(e.P, e.Delay)
	case FaultSkew:
		f.SetSkew(e.P)
	default:
		return false
	}
	return true
}

// Topology describes the deployment a schedule must keep live.
type Topology struct {
	// Proposers are never faulted: the workload's vantage point.
	Proposers []msg.NodeID
	// Coords holds one coordinator group per shard; a schedule crashes at
	// most ⌊len(group)/2⌋ members of a group at a time (the multicoordinated
	// masking budget), and only for groups of ≥ 3.
	Coords [][]msg.NodeID
	// Acceptors is the acceptor set; at most F are down simultaneously.
	Acceptors []msg.NodeID
	// Learners are partitionable and — when Options.KillLearners is set and
	// there are at least two of them — crashed one at a time, so the checker
	// always has a surviving history and the host can rejoin the dead one
	// through the catch-up path.
	Learners []msg.NodeID
	// F is the acceptor fault tolerance of the quorum system.
	F int
}

func (t Topology) allCoords() []msg.NodeID {
	var out []msg.NodeID
	for _, g := range t.Coords {
		out = append(out, g...)
	}
	return out
}

// Options widens the fault repertoire of ScheduleWith. The zero value
// reproduces Schedule exactly (same events for the same seed), so existing
// seed corpora stay valid.
type Options struct {
	// KillLearners permits learner crash/recover events, one learner at a
	// time, and only with ≥ 2 learners in the topology: the checker needs a
	// surviving history, and the host is expected to rejoin the dead one
	// through the catch-up path.
	KillLearners bool
	// QuorumPartition permits partitions that isolate exactly a coordinator
	// quorum — ⌊c/2⌋+1 members of one group — from the rest of the world.
	// The shard cannot decide while the window lasts (the survivors are one
	// short of a quorum); the pin is that it converges after the heal.
	QuorumPartition bool
	// ClockSkew permits windows in which every timer in the deployment runs
	// fast (retransmission storms) or slow (timeout starvation).
	ClockSkew bool
	// KillPrimary permits crashes aimed specifically at the first member of
	// a coordinator group — the shard's primary ingress stamper, the member
	// every client funnels its unsequenced submissions to. A random group
	// crash only sometimes hits it; this slot always does, pinning the
	// stamping handoff: the failover member must resume the shard's sequence
	// without duplicating a command or orphaning a slot. Only groups of ≥ 3
	// qualify (the masking budget), and the slot shares the group's crash
	// budget with the random-member crash.
	KillPrimary bool
	// Background adds a whole-run low-grade loss floor (1–4%) under the
	// discrete faults. The quiet tail stays clean, and discrete loss bursts
	// are suppressed (the floor owns the loss knob).
	Background bool
}

// ScheduleWith is Schedule with a wider fault repertoire. With the zero
// Options it consumes the seed's randomness identically to Schedule and
// returns the same events.
func ScheduleWith(seed int64, topo Topology, horizon int64, opts Options) []Event {
	rng := rand.New(rand.NewSource(seed))
	end := horizon - horizon/4
	maxDur := horizon / 8
	if maxDur < 2 {
		maxDur = 2
	}
	var events []Event
	// busyUntil serializes same-kind faults; for crashes it is per node
	// group (acceptors as one pool of F slots is reduced to one-at-a-time,
	// and each coordinator group gets one slot — both within budget).
	busy := make(map[string]int64)
	coords := topo.allCoords()

	emit := func(e Event) { events = append(events, e) }
	dur := func(t int64) int64 {
		d := 1 + rng.Int63n(maxDur)
		if t+d > end {
			d = end - t
		}
		return d
	}

	// The extra repertoire gets pick slots 6.. so the base six keep their
	// rng draws; every extra is gated on the topology actually supporting
	// it (a slot that always continues would just thin the schedule).
	var extras []string
	if opts.KillLearners && len(topo.Learners) >= 2 {
		extras = append(extras, "crashL")
	}
	if opts.QuorumPartition {
		for _, g := range topo.Coords {
			if len(g) >= 3 {
				extras = append(extras, "qpart")
				break
			}
		}
	}
	if opts.ClockSkew {
		extras = append(extras, "skew")
	}
	if opts.KillPrimary {
		for _, g := range topo.Coords {
			if len(g) >= 3 {
				extras = append(extras, "crashP")
				break
			}
		}
	}
	if opts.Background {
		// The floor owns the loss knob for the whole faulted window.
		busy["loss"] = horizon
		emit(Event{At: 0, Kind: FaultLoss, P: 0.01 + 0.03*rng.Float64()})
		emit(Event{At: end, Kind: FaultLoss, P: 0})
	}

	for t := 1 + rng.Int63n(maxDur); t < end-1; t += 1 + rng.Int63n(maxDur) {
		switch pick := rng.Intn(6 + len(extras)); pick {
		case 0: // symmetric partition: a minority of acceptors plus a random
			// slice of coordinators on the far side.
			if busy["part"] > t || topo.F < 1 {
				continue
			}
			d := dur(t)
			busy["part"] = t + d
			far := make(map[msg.NodeID]bool)
			perm := rng.Perm(len(topo.Acceptors))
			for _, i := range perm[:1+rng.Intn(topo.F)] {
				far[topo.Acceptors[i]] = true
			}
			for _, c := range coords {
				if rng.Float64() < 0.25 {
					far[c] = true
				}
			}
			var a, b []msg.NodeID
			for _, id := range append(append(append(append([]msg.NodeID{},
				topo.Proposers...), coords...), topo.Acceptors...), topo.Learners...) {
				if far[id] {
					b = append(b, id)
				} else {
					a = append(a, id)
				}
			}
			emit(Event{At: t, Kind: FaultPartition, Groups: [][]msg.NodeID{a, b}})
			emit(Event{At: t + d, Kind: FaultHeal})
		case 1: // asymmetric cut of one coordinator→acceptor direction
			if busy["cut"] > t {
				continue
			}
			d := dur(t)
			busy["cut"] = t + d
			from := coords[rng.Intn(len(coords))]
			to := topo.Acceptors[rng.Intn(len(topo.Acceptors))]
			emit(Event{At: t, Kind: FaultCut, From: from, To: to})
			emit(Event{At: t + d, Kind: FaultRestore, From: from, To: to})
		case 2: // crash one node: an acceptor, or a maskable group member
			targets := make([][]msg.NodeID, 0, 1+len(topo.Coords))
			if topo.F >= 1 {
				targets = append(targets, topo.Acceptors)
			}
			for _, g := range topo.Coords {
				if len(g) >= 3 {
					targets = append(targets, g)
				}
			}
			if len(targets) == 0 {
				continue
			}
			pool := targets[rng.Intn(len(targets))]
			slot := fmt.Sprintf("crash%d", pool[0])
			if busy[slot] > t {
				continue
			}
			d := dur(t)
			busy[slot] = t + d
			n := pool[rng.Intn(len(pool))]
			emit(Event{At: t, Kind: FaultCrash, Node: n})
			emit(Event{At: t + d, Kind: FaultRecover, Node: n})
		case 3: // loss burst
			if busy["loss"] > t {
				continue
			}
			d := dur(t)
			busy["loss"] = t + d
			emit(Event{At: t, Kind: FaultLoss, P: 0.05 + 0.3*rng.Float64()})
			emit(Event{At: t + d, Kind: FaultLoss, P: 0})
		case 4: // dup storm
			if busy["dup"] > t {
				continue
			}
			d := dur(t)
			busy["dup"] = t + d
			emit(Event{At: t, Kind: FaultDup, P: 0.3 + 0.7*rng.Float64()})
			emit(Event{At: t + d, Kind: FaultDup, P: 0})
		case 5: // reorder window
			if busy["reorder"] > t {
				continue
			}
			d := dur(t)
			busy["reorder"] = t + d
			emit(Event{At: t, Kind: FaultReorder,
				P: 0.2 + 0.4*rng.Float64(), Delay: 1 + rng.Int63n(4)})
			emit(Event{At: t + d, Kind: FaultReorder, P: 0, Delay: 1})
		default:
			switch extras[pick-6] {
			case "crashL": // kill one learner (the host rejoins it via catch-up)
				if busy["crashL"] > t {
					continue
				}
				d := dur(t)
				busy["crashL"] = t + d
				n := topo.Learners[rng.Intn(len(topo.Learners))]
				emit(Event{At: t, Kind: FaultCrash, Node: n})
				emit(Event{At: t + d, Kind: FaultRecover, Node: n})
			case "qpart": // isolate exactly a coordinator quorum of one group
				if busy["part"] > t {
					continue
				}
				d := dur(t)
				busy["part"] = t + d
				var gs [][]msg.NodeID
				for _, g := range topo.Coords {
					if len(g) >= 3 {
						gs = append(gs, g)
					}
				}
				g := gs[rng.Intn(len(gs))]
				far := make(map[msg.NodeID]bool)
				perm := rng.Perm(len(g))
				for _, i := range perm[:len(g)/2+1] {
					far[g[i]] = true
				}
				var a, b []msg.NodeID
				for _, id := range append(append(append(append([]msg.NodeID{},
					topo.Proposers...), coords...), topo.Acceptors...), topo.Learners...) {
					if far[id] {
						b = append(b, id)
					} else {
						a = append(a, id)
					}
				}
				emit(Event{At: t, Kind: FaultPartition, Groups: [][]msg.NodeID{a, b}})
				emit(Event{At: t + d, Kind: FaultHeal})
			case "crashP": // crash a group's primary: the shard's ingress stamper
				var gs [][]msg.NodeID
				for _, g := range topo.Coords {
					if len(g) >= 3 {
						gs = append(gs, g)
					}
				}
				g := gs[rng.Intn(len(gs))]
				slot := fmt.Sprintf("crash%d", g[0])
				if busy[slot] > t {
					continue
				}
				d := dur(t)
				busy[slot] = t + d
				emit(Event{At: t, Kind: FaultCrash, Node: g[0]})
				emit(Event{At: t + d, Kind: FaultRecover, Node: g[0]})
			case "skew": // every timer runs fast or slow for a window
				if busy["skew"] > t {
					continue
				}
				d := dur(t)
				busy["skew"] = t + d
				scale := 0.2 + 0.3*rng.Float64() // fast clocks: timeout storms
				if rng.Intn(2) == 1 {
					scale = 2 + 2*rng.Float64() // slow clocks: starved retries
				}
				emit(Event{At: t, Kind: FaultSkew, P: scale})
				emit(Event{At: t + d, Kind: FaultSkew, P: 0})
			}
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	return events
}
