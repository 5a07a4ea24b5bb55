package smr

import (
	"math/rand"
	"testing"

	"mcpaxos/internal/batch"
	"mcpaxos/internal/cstruct"
)

func cmdN(id uint64) cstruct.Cmd {
	return cstruct.Cmd{ID: id, Key: "k", Op: cstruct.OpWrite}
}

// A late re-learn of an already-delivered instance (a retransmitting
// learner, or a second learner feeding the same merger) must be ignored:
// never re-delivered, even if it carries a different command.
func TestMergerRelearnAfterDeliveryIgnored(t *testing.T) {
	m, order := collect()
	m.Add(0, cmdN(100))
	m.Add(1, cmdN(101))
	if m.Delivered() != 2 {
		t.Fatalf("delivered %d, want 2", m.Delivered())
	}
	for _, relearn := range []cstruct.Cmd{cmdN(100), cmdN(999)} {
		if m.Add(0, relearn) {
			t.Errorf("re-learn of delivered instance 0 (c%d) accepted", relearn.ID)
		}
	}
	if m.Ignored != 2 {
		t.Errorf("Ignored = %d, want 2", m.Ignored)
	}
	if len(*order) != 2 || m.Delivered() != 2 || m.Next() != 2 {
		t.Errorf("frontier disturbed by late re-learns: order=%v next=%d", *order, m.Next())
	}
}

// A re-learn of an instance still buffered behind a gap must keep the first
// learn (no last-write-wins), and a differing command must be counted as a
// conflict — Paxos safety makes it impossible, so it flags a broken feed.
func TestMergerBufferedRelearnKeepsFirst(t *testing.T) {
	var delivered []cstruct.Cmd
	m := NewMerger(func(_ uint64, c cstruct.Cmd) { delivered = append(delivered, c) })
	if !m.Add(1, cmdN(101)) {
		t.Fatal("first learn of instance 1 rejected")
	}
	if m.Add(1, cmdN(102)) {
		t.Fatal("duplicate learn of buffered instance 1 accepted")
	}
	if m.Add(1, cmdN(101)) {
		t.Fatal("identical duplicate learn of buffered instance 1 accepted")
	}
	if m.Ignored != 2 || m.Conflicts != 1 {
		t.Errorf("Ignored=%d Conflicts=%d, want 2 and 1", m.Ignored, m.Conflicts)
	}
	m.Add(0, cmdN(100))
	if len(delivered) != 2 || delivered[1].ID != 101 {
		t.Fatalf("delivered %v, want the FIRST learn (c101) for instance 1", delivered)
	}
}

// A re-learn of a buffered instance that carries another value under the
// same ID — two batches headed by one command share batch.BatchID — is a
// conflict too: the merger compares values, not IDs.
func TestMergerSameIDOtherValueIsConflict(t *testing.T) {
	m, _ := collect()
	first := batch.Pack([]cstruct.Cmd{SetCmd(7, "x", "1"), SetCmd(8, "y", "2")})
	second := batch.Pack([]cstruct.Cmd{SetCmd(7, "x", "1"), SetCmd(9, "z", "3")})
	m.Add(1, first)
	if m.Add(1, second) {
		t.Fatal("second learn of buffered instance 1 accepted")
	}
	if m.Ignored != 1 || m.Conflicts != 1 {
		t.Errorf("Ignored=%d Conflicts=%d, want 1 and 1", m.Ignored, m.Conflicts)
	}
}

// Release-frontier interplay: re-learns below the release watermark are
// ignored without disturbing the OnRelease hook.
func TestMergerRelearnDoesNotRefireRelease(t *testing.T) {
	m, _ := collect()
	releases := 0
	m.OnRelease = func(uint64) { releases++ }
	m.Add(0, cmdN(100))
	m.Add(1, cmdN(101))
	got := releases
	m.Add(0, cmdN(100))
	m.Add(1, cmdN(101))
	if releases != got {
		t.Errorf("late re-learns re-fired OnRelease (%d → %d)", got, releases)
	}
}

// collect returns a merger plus the delivery log it appends to.
func collect() (*Merger, *[]uint64) {
	var order []uint64
	m := NewMerger(func(inst uint64, _ cstruct.Cmd) { order = append(order, inst) })
	return m, &order
}

// Out-of-order learns across shards must be delivered in instance order.
func TestMergerOutOfOrderAcrossShards(t *testing.T) {
	m, order := collect()
	// Two shards: shard 0 owns {0,2,4}, shard 1 owns {1,3,5}. Shard 1 runs
	// ahead; shard 0 trickles in.
	for _, inst := range []uint64{1, 3, 0, 5, 2, 4} {
		if !m.Add(inst, cmdN(100+inst)) {
			t.Fatalf("instance %d rejected as duplicate", inst)
		}
	}
	want := []uint64{0, 1, 2, 3, 4, 5}
	if len(*order) != len(want) {
		t.Fatalf("delivered %v, want %v", *order, want)
	}
	for i, inst := range want {
		if (*order)[i] != inst {
			t.Fatalf("delivered %v, want %v", *order, want)
		}
	}
}

// A lagging shard opens a gap: delivery stalls at the gap instance, the gap
// is attributed to the lagging shard, and delivery resumes when it closes.
func TestMergerLaggingShardGap(t *testing.T) {
	m, order := collect()
	const shards = 4
	// Shards 0,2,3 complete their first instances; shard 1 lags.
	m.Add(0, cmdN(100))
	m.Add(2, cmdN(102))
	m.Add(3, cmdN(103))
	m.Add(4, cmdN(104)) // shard 0's second instance
	if got := len(*order); got != 1 {
		t.Fatalf("delivered %d instances past the gap, want 1 (instance 0)", got)
	}
	if m.Next() != 1 {
		t.Fatalf("frontier at %d, want 1", m.Next())
	}
	if holes := m.Lagging(shards); len(holes) != 1 || holes[0] != 1 {
		t.Fatalf("holes %v, want [1]: shard 1's instance 1 is all that is missing below instance 4", holes)
	}
	if m.Buffered() != 3 || m.MaxBuffered != 3 {
		t.Fatalf("buffered=%d max=%d, want 3/3", m.Buffered(), m.MaxBuffered)
	}
	m.Add(1, cmdN(101)) // the laggard arrives
	if got, want := len(*order), 5; got != want {
		t.Fatalf("delivered %d instances after gap closed, want %d", got, want)
	}
	if holes := m.Lagging(shards); holes != nil {
		t.Fatalf("holes %v reported on a drained merger", holes)
	}
	// Two shards behind by different amounts: each is named once, by its last
	// hole below the highest buffered instance.
	m.Add(12, cmdN(112)) // shard 0 runs ahead to its fourth instance
	m.Add(6, cmdN(106))
	if holes := m.Lagging(shards); len(holes) != 3 || holes[0] != 11 || holes[1] != 10 || holes[2] != 9 {
		t.Fatalf("holes %v, want [11 10 9]: the last hole of shards 3, 2 and 1 below shard 0's instance 12", holes)
	}
}

// Duplicate 2b delivery — the same instance learned twice, or a late
// retransmit below the frontier — must not deliver twice.
func TestMergerDuplicateDelivery(t *testing.T) {
	m, order := collect()
	if !m.Add(0, cmdN(100)) {
		t.Fatal("first add rejected")
	}
	if m.Add(0, cmdN(100)) {
		t.Fatal("duplicate below frontier accepted")
	}
	m.Add(2, cmdN(102))
	if m.Add(2, cmdN(102)) {
		t.Fatal("duplicate buffered instance accepted")
	}
	m.Add(1, cmdN(101))
	if got := len(*order); got != 3 {
		t.Fatalf("delivered %d instances, want 3", got)
	}
	if m.Delivered() != 3 {
		t.Fatalf("Delivered()=%d, want 3", m.Delivered())
	}
}

// OnRelease must track the delivery frontier so the learner can GC applied
// instances.
func TestMergerReleaseHook(t *testing.T) {
	m, _ := collect()
	var releasedTo uint64
	m.OnRelease = func(upTo uint64) { releasedTo = upTo }
	m.Add(1, cmdN(101))
	if releasedTo != 0 {
		t.Fatalf("released at %d with the frontier stalled", releasedTo)
	}
	m.Add(0, cmdN(100))
	if releasedTo != 2 {
		t.Fatalf("released to %d after delivering 0-1, want 2", releasedTo)
	}
}

// Property: for random shard counts and per-shard progress interleavings,
// the merged sequence equals the per-shard sequences interleaved by
// instance number.
func TestMergerInterleaveProperty(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		shards := 1 + rng.Intn(6)
		perShard := 1 + rng.Intn(20)
		total := shards * perShard

		// Shard k's sequence is k, k+shards, k+2·shards, ... — build a
		// random interleaving that respects each shard's internal order
		// (a shard's leader assigns its instances in order).
		nextIdx := make([]int, shards)
		var feed []uint64
		for len(feed) < total {
			k := rng.Intn(shards)
			if nextIdx[k] == perShard {
				continue
			}
			feed = append(feed, uint64(k+nextIdx[k]*shards))
			nextIdx[k]++
		}

		m, order := collect()
		for _, inst := range feed {
			if !m.Add(inst, cmdN(1000+inst)) {
				t.Fatalf("trial %d: instance %d rejected", trial, inst)
			}
		}
		if m.Buffered() != 0 {
			t.Fatalf("trial %d: %d instances never delivered", trial, m.Buffered())
		}
		if len(*order) != total {
			t.Fatalf("trial %d: delivered %d/%d", trial, len(*order), total)
		}
		for i, inst := range *order {
			if inst != uint64(i) {
				t.Fatalf("trial %d: position %d delivered instance %d", trial, i, inst)
			}
		}
	}
}
