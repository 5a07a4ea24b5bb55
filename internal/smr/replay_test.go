package smr

import (
	"fmt"
	"math/rand"
	"testing"
)

const testShift = 40

func id(client, seq uint64) uint64 { return client<<testShift | seq }

func TestReplyCacheBasic(t *testing.T) {
	c := NewReplyCache(4, testShift)
	c.Put(id(7, 0), 10, "a")
	c.Put(id(7, 1), 11, "b")
	r, ok := c.Get(id(7, 0))
	if !ok || r.Result != "a" || r.Inst != 10 {
		t.Fatalf("Get(7,0) = %+v, %v", r, ok)
	}
	if _, ok := c.Get(id(7, 2)); ok {
		t.Fatal("uncached seq must miss")
	}
	if _, ok := c.Get(id(8, 0)); ok {
		t.Fatal("unknown client must miss")
	}
	// Advance past the window: seq 0 evicts at hi=4 (floor 1).
	c.Put(id(7, 2), 12, "c")
	c.Put(id(7, 3), 13, "d")
	c.Put(id(7, 4), 14, "e")
	if _, ok := c.Get(id(7, 0)); ok {
		t.Fatal("seq 0 must be evicted once hi reached 4")
	}
	if _, ok := c.Get(id(7, 1)); !ok {
		t.Fatal("seq 1 must survive at hi=4")
	}
	// Below-watermark puts are not re-admitted.
	c.Put(id(7, 0), 10, "a")
	if _, ok := c.Get(id(7, 0)); ok {
		t.Fatal("below-watermark put must not re-admit")
	}
	if got := c.ClientLen(7); got > 4 {
		t.Fatalf("client window %d exceeds bound 4", got)
	}
}

// Compaction empties a client's window but keeps its floor: a sequence number
// the window evicted stays evicted. Export and Restore carry the records as
// snapshot.Reply and keep the bound on the importing side.
func TestReplyCacheEvictBelowAndExport(t *testing.T) {
	c := NewReplyCache(4, testShift)
	for seq := uint64(0); seq < 6; seq++ { // seqs 0 and 1 fall below the floor
		c.Put(id(7, seq), 100+seq, fmt.Sprint("r", seq))
	}
	imported := NewReplyCache(2, testShift)
	imported.Restore(c.Export())
	if got := imported.ClientLen(7); got != 2 {
		t.Fatalf("restored window holds %d records, want the importer's bound 2", got)
	}
	if r, ok := imported.Get(id(7, 5)); !ok || r.Inst != 105 || r.Result != "r5" {
		t.Fatalf("restored newest record = %+v/%v, want instance 105, r5", r, ok)
	}

	if n := c.EvictBelow(1000); n != 4 || c.Len() != 0 {
		t.Fatalf("EvictBelow dropped %d, %d left; want 4 and none", n, c.Len())
	}
	c.Put(id(7, 1), 101, "again")
	if _, ok := c.Get(id(7, 1)); ok {
		t.Fatal("an evicted sequence number was re-admitted after its window emptied")
	}
	c.Put(id(7, 6), 106, "r6")
	if _, ok := c.Get(id(7, 6)); !ok {
		t.Fatal("a fresh sequence number was refused after compaction")
	}
}

// TestReplyCacheBoundProperty drives randomized put sequences — in-order,
// reordered, and with far watermark jumps — and asserts the invariants the
// deployment relies on: no client window ever exceeds the configured bound,
// total memory is bounded by clients × perClient, and the highest cached
// seq of each client is always retrievable (a client's most recent
// retransmission always replays).
func TestReplyCacheBoundProperty(t *testing.T) {
	for _, bound := range []int{1, 3, 8, 64} {
		bound := bound
		t.Run(fmt.Sprintf("bound=%d", bound), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(bound)))
			c := NewReplyCache(bound, testShift)
			const clients = 5
			hi := make(map[uint64]uint64)
			next := make(map[uint64]uint64)
			for step := 0; step < 20000; step++ {
				client := uint64(1 + rng.Intn(clients))
				var seq uint64
				switch rng.Intn(10) {
				case 0: // far jump: a client racing ahead of the cache
					seq = next[client] + uint64(rng.Intn(10*bound+100))
				case 1, 2: // reordered retransmit from the recent past
					if h := hi[client]; h > 0 {
						seq = h - uint64(rng.Intn(int(min64(h, uint64(bound+2))))+0)
					}
				default: // in-order progress
					seq = next[client]
				}
				if seq >= next[client] {
					next[client] = seq + 1
				}
				c.Put(id(client, seq), uint64(step), fmt.Sprintf("r%d", step))
				if seq > hi[client] {
					hi[client] = seq
				}
				if got := c.ClientLen(client); got > bound {
					t.Fatalf("step %d: client %d window %d exceeds bound %d", step, client, got, bound)
				}
				if got := c.Len(); got > bound*clients {
					t.Fatalf("step %d: total %d exceeds %d", step, got, bound*clients)
				}
				// The newest seq of this client must always be cached.
				if _, ok := c.Get(id(client, hi[client])); !ok {
					t.Fatalf("step %d: client %d highest seq %d not retained", step, client, hi[client])
				}
			}
		})
	}
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
