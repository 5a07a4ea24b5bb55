// Package faults is the adversarial network model shared by both hosts in
// this repository: the same injector drives the deterministic simulator
// (internal/sim) and the goroutine runtime (internal/runtime), whose
// Network adjudicates every send of a live node before it reaches the TCP
// transport — so a fault schedule developed against the simulator
// reproduces the same semantics on a live deployment.
//
// The model is the paper's asynchronous crash-recovery system (Section
// 2.1.1) made hostile on purpose: messages may be lost, duplicated,
// reordered within a bound, or cut off entirely by symmetric partitions and
// asymmetric (one-directional) link cuts. Messages are never corrupted:
// the protocols are entitled to assume that, and no host injects
// corruption. On the live path TCP's own checksums are the only guard —
// transport frames carry no CRC of their own.
package faults

import (
	"math/rand"
	"sync"

	"mcpaxos/internal/msg"
)

// link is one directed channel of the network.
type link struct{ from, to msg.NodeID }

// Stats counts what the injector did to the traffic that crossed it.
type Stats struct {
	// Delivered counts sends that produced at least one delivery.
	Delivered uint64
	// Dropped counts sends that produced none: probabilistic loss,
	// partitions and link cuts all land here.
	Dropped uint64
	// Duplicated counts extra copies injected beyond the first delivery.
	Duplicated uint64
	// Delayed counts deliveries pushed past their natural slot (the
	// reordering knob).
	Delayed uint64
	// Skewed counts timers stretched or shrunk by the clock-skew knob.
	Skewed uint64
}

// Faults decides the fate of every message on a network's send path:
// dropped, delivered once, delivered several times, and with what extra
// delay. All decisions draw from one seeded source, so a single-threaded
// host (the simulator) replays a schedule exactly; the concurrent runtime
// gets the same marginal behavior under a mutex.
//
// The zero value is not usable; call New. A nil *Faults is a valid
// "no faults" injector for every method, so hosts can keep an optional
// pointer and call through it unconditionally.
type Faults struct {
	mu  sync.Mutex
	rng *rand.Rand

	lossP    float64
	dupP     float64
	reorderP float64
	// reorderMax bounds the extra delay (in abstract ticks) of a reordered
	// or duplicated delivery: the model's "bounded reordering".
	reorderMax int64

	// group assigns partitioned nodes to components; nodes not present can
	// talk to everyone (so a schedule can partition the acceptors without
	// enumerating clients).
	group map[msg.NodeID]int
	// cut holds asymmetric severed links: from→to is dead while to→from
	// may still flow.
	cut map[link]bool

	// skew scales every timer armed while it is set: >1 models a slow clock
	// (timeouts fire late, stretching retransmission intervals), <1 a fast
	// one (timeout storms). 0 or 1 means no skew.
	skew float64

	stats Stats
}

// New builds an injector with no faults configured, deterministic under
// seed.
func New(seed int64) *Faults {
	return &Faults{rng: rand.New(rand.NewSource(seed)), cut: make(map[link]bool)}
}

// SetLoss drops each message independently with probability p.
func (f *Faults) SetLoss(p float64) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.lossP = p
	f.mu.Unlock()
}

// SetDup delivers an extra copy of each message with probability p; the
// copy arrives up to the reorder bound later than the original.
func (f *Faults) SetDup(p float64) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.dupP = p
	f.mu.Unlock()
}

// SetReorder delays each delivery, with probability p, by a uniform extra
// 1..maxDelay ticks — messages behind it overtake, which is exactly the
// bounded-reordering model of Section 2.1.1.
func (f *Faults) SetReorder(p float64, maxDelay int64) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.reorderP = p
	if maxDelay < 1 {
		maxDelay = 1
	}
	f.reorderMax = maxDelay
	f.mu.Unlock()
}

// Partition splits the network: nodes in different groups cannot exchange
// messages in either direction. Nodes in no group keep full connectivity.
// Calling Partition again replaces the previous split.
func (f *Faults) Partition(groups ...[]msg.NodeID) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.group = make(map[msg.NodeID]int)
	for i, g := range groups {
		for _, id := range g {
			f.group[id] = i
		}
	}
	f.mu.Unlock()
}

// Cut severs the directed link from→to (asymmetric partition: the reverse
// direction still flows).
func (f *Faults) Cut(from, to msg.NodeID) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.cut[link{from, to}] = true
	f.mu.Unlock()
}

// Restore reopens a previously Cut directed link.
func (f *Faults) Restore(from, to msg.NodeID) {
	if f == nil {
		return
	}
	f.mu.Lock()
	delete(f.cut, link{from, to})
	f.mu.Unlock()
}

// Heal removes every partition and link cut. Probabilistic loss,
// duplication and reordering keep their settings (use Clear for a fully
// clean network).
func (f *Faults) Heal() {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.group = nil
	f.cut = make(map[link]bool)
	f.mu.Unlock()
}

// Clear heals the topology and zeroes every probabilistic knob.
func (f *Faults) Clear() {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.group = nil
	f.cut = make(map[link]bool)
	f.lossP, f.dupP, f.reorderP = 0, 0, 0
	f.skew = 0
	f.mu.Unlock()
}

// SetSkew scales every subsequently armed timer by scale: >1 is a slow
// clock, a value in (0,1) a fast clock firing timeouts early (the
// timeout-storm half of a clock-skew schedule). 0 or 1 disables skew.
func (f *Faults) SetSkew(scale float64) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.skew = scale
	f.mu.Unlock()
}

// TimerDelay adjudicates one timer arming of d ticks under the current
// skew. It is purely multiplicative — no randomness is consumed — so a
// simulator schedule replays identically whether or not skew is active.
func (f *Faults) TimerDelay(d int64) int64 {
	if f == nil {
		return d
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.skew <= 0 || f.skew == 1 {
		return d
	}
	nd := int64(float64(d) * f.skew)
	if nd < 1 {
		nd = 1
	}
	f.stats.Skewed++
	return nd
}

// Stats snapshots the injector's counters.
func (f *Faults) Stats() Stats {
	if f == nil {
		return Stats{}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// Deliveries decides one send on the from→to link: the returned slice holds
// one extra-delay (in ticks, ≥ 0) per copy to deliver, and an empty result
// means the message is lost. Self-sends are never faulted — a process's
// loopback is not a network link.
//
// A nil *Faults delivers everything exactly once with no delay.
func (f *Faults) Deliveries(from, to msg.NodeID) []int64 {
	if f == nil {
		return oneCopy
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if from == to {
		f.stats.Delivered++
		return oneCopy
	}
	if f.severed(from, to) || (f.lossP > 0 && f.rng.Float64() < f.lossP) {
		f.stats.Dropped++
		return nil
	}
	var d0 int64
	if f.reorderP > 0 && f.rng.Float64() < f.reorderP {
		d0 = 1 + f.rng.Int63n(f.reorderMax)
		f.stats.Delayed++
	}
	f.stats.Delivered++
	if f.dupP > 0 && f.rng.Float64() < f.dupP {
		f.stats.Duplicated++
		bound := f.reorderMax
		if bound < 1 {
			bound = 2
		}
		return []int64{d0, d0 + 1 + f.rng.Int63n(bound)}
	}
	if d0 == 0 {
		return oneCopy
	}
	return []int64{d0}
}

// oneCopy is the no-fault verdict; callers must not mutate it.
var oneCopy = []int64{0}

// severed reports whether the from→to direction is currently unusable
// (symmetric partition or asymmetric cut). Callers hold f.mu.
func (f *Faults) severed(from, to msg.NodeID) bool {
	if f.cut[link{from, to}] {
		return true
	}
	if f.group == nil {
		return false
	}
	gf, okf := f.group[from]
	gt, okt := f.group[to]
	return okf && okt && gf != gt
}
