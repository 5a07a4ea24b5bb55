// Ordered merge of a sharded instance space back into one total order.
//
// A sharded deployment runs N concurrent leaders, leader k sequencing
// instances ≡ k (mod N): learners still learn per instance, but instances
// now complete out of order across shards. The Merger buffers learned
// (instance, command) pairs and delivers them in instance-number order — the
// total order every replica applies — stalling at a gap until the lagging
// shard's instance arrives and reporting which shards left the holes.
package smr

import (
	"mcpaxos/internal/cstruct"
)

// DeliverFn receives each instance exactly once, in instance order.
type DeliverFn func(inst uint64, cmd cstruct.Cmd)

// Merger restores the single total order over a sharded instance space. It
// is attached as (or fed by) the learner callback: Add buffers out-of-order
// learns and flushes the contiguous prefix to the deliver function. An
// optional release hook propagates the delivery frontier back to the
// learner so applied instances can be garbage-collected.
type Merger struct {
	deliver DeliverFn
	next    uint64
	buf     map[uint64]cstruct.Cmd

	// OnRelease, when set, is called after delivery advances the frontier,
	// with the new next-expected instance: everything below it was applied.
	// Hosts hook learner GC here (classic.Learner.Release).
	OnRelease func(upTo uint64)

	// MaxBuffered tracks the high-water mark of instances held back by a
	// gap, a direct measure of cross-shard skew.
	MaxBuffered int
	// Ignored counts duplicate or late re-learns dropped by Add: re-learns
	// of an instance already delivered (below the frontier) or already
	// buffered. Retransmitting learners make these routine; the counter
	// keeps them observable.
	Ignored uint64
	// Conflicts counts re-learns that carried a different command for an
	// instance still buffered. Paxos safety makes a real conflict
	// impossible, so a nonzero count flags a broken learner feed; the first
	// learn always wins.
	Conflicts uint64
	delivered uint64
}

// NewMerger builds a merger delivering via fn.
func NewMerger(fn DeliverFn) *Merger {
	return &Merger{deliver: fn, buf: make(map[uint64]cstruct.Cmd)}
}

// Add feeds one learned instance. Duplicates — a second learn of the same
// instance, or a learn below the delivery frontier from a late retransmit —
// are ignored (never re-delivered, never overwriting the buffered first
// learn) and reported false; an instance is delivered at most once, ever.
// Delivery happens inline: Add returns after flushing the longest
// contiguous prefix.
func (m *Merger) Add(inst uint64, cmd cstruct.Cmd) bool {
	if inst < m.next {
		// Already delivered: a late retransmit can only re-report the
		// learned value (Paxos safety), so it is dropped, not re-applied.
		m.Ignored++
		return false
	}
	if prev, dup := m.buf[inst]; dup {
		m.Ignored++
		if !prev.Equal(cmd) {
			m.Conflicts++
		}
		return false
	}
	m.buf[inst] = cmd
	m.flush()
	// Measured after the flush so an in-order learn that passes straight
	// through never counts as held back: a gap-free run reports 0.
	if len(m.buf) > m.MaxBuffered {
		m.MaxBuffered = len(m.buf)
	}
	if m.OnRelease != nil && inst < m.next {
		// The frontier moved (inst was delivered): let the learner GC.
		m.OnRelease(m.next)
	}
	return true
}

// SkipTo advances the delivery frontier to inst without delivering: the
// caller installed a snapshot covering [0, inst), so those instances are
// already folded into the machine state. Buffered instances below inst are
// dropped; the release hook fires so the learner GCs its vote history up to
// the new frontier. A frontier at or past inst makes SkipTo a no-op.
func (m *Merger) SkipTo(inst uint64) {
	if inst <= m.next {
		return
	}
	for i := range m.buf {
		if i < inst {
			delete(m.buf, i)
		}
	}
	m.next = inst
	// Anything buffered at the new frontier flushes immediately.
	m.flush()
	if m.OnRelease != nil {
		m.OnRelease(m.next)
	}
}

// flush delivers the contiguous buffered run at the frontier.
func (m *Merger) flush() {
	for {
		c, ok := m.buf[m.next]
		if !ok {
			return
		}
		delete(m.buf, m.next)
		m.deliver(m.next, c)
		m.next++
		m.delivered++
	}
}

// Next returns the next instance the total order is waiting for.
func (m *Merger) Next() uint64 { return m.next }

// Delivered returns how many instances have been delivered.
func (m *Merger) Delivered() uint64 { return m.delivered }

// Buffered reports how many learned instances are held back by a gap.
func (m *Merger) Buffered() int { return len(m.buf) }

// Lagging names the instances the merged order is held up by, one per shard
// that left a hole below the highest buffered instance: that shard's last
// (highest) hole, highest first. A shard listed has consumed fewer sequence
// slots than the shard that got furthest — which is never listed itself: a
// hole of its own lies below a slot it has claimed since, so it is in flight,
// not unclaimed. Nil when nothing is buffered (no gap — the merger is merely
// waiting for traffic).
func (m *Merger) Lagging(nShards int) []uint64 {
	if len(m.buf) == 0 || nShards < 2 {
		return nil
	}
	var hi uint64
	for inst := range m.buf {
		hi = max(hi, inst)
	}
	n := uint64(nShards)
	var holes []uint64
	seen := make([]bool, nShards)
	seen[hi%n] = true
	// Everything buffered sits above the frontier, so hi > m.next.
	for inst := hi - 1; len(holes) < nShards-1; inst-- {
		if _, ok := m.buf[inst]; !ok && !seen[inst%n] {
			seen[inst%n] = true
			holes = append(holes, inst)
		}
		if inst == m.next {
			break
		}
	}
	return holes
}

// ReplicaDeliver adapts a Replica as the merger's deliver function: each
// instance's command (batches unpacked) is applied exactly once, in the
// merged total order.
func ReplicaDeliver(r *Replica) DeliverFn {
	return func(_ uint64, cmd cstruct.Cmd) { r.ApplyOnce(cmd) }
}
