package deploy

import (
	"runtime"
	"testing"
	"time"
)

// bringUpBudget is what one two-shard bring-up may allocate, every node and
// client included: a link holds only what it carries, so a deployment that
// has sent a handful of frames has allocated about 1 MB. With 64 KB of read
// buffer, 64 KB of write buffer and a 1024-slot send queue per link before
// the link carried a byte, it was about 10 MB, and a GC cycle landed inside a
// third of bring-ups.
const bringUpBudget = 2 << 20

// TestBringUpAllocBudget opens LocalSpec(2, 3, 3, 2, 2), dials both clients
// and has each write once to each shard, and holds everything the process
// allocated meanwhile to bringUpBudget.
func TestBringUpAllocBudget(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	spec, err := LocalSpec(2, 3, 3, 2, 2).ResolveEphemeral()
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	rep, err := Open(spec)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer rep.Close()
	var clis []*Client
	for _, c := range spec.Clients {
		cli, err := Dial(spec, c.ID)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer cli.Close()
		clis = append(clis, cli)
	}
	var calls []*Call
	for _, cli := range clis {
		for range 2 { // a client spreads its writes round-robin over the shards
			calls = append(calls, cli.Set("warm", "x"))
		}
	}
	if err := clis[0].Wait(calls, 10*time.Second); err != nil {
		t.Fatalf("warm-up writes: %v", err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("bring-up allocated %.2f MB", float64(got)/(1<<20))
	if got > bringUpBudget {
		t.Errorf("bring-up allocated %.2f MB, budget %.0f MB", float64(got)/(1<<20), float64(bringUpBudget)/(1<<20))
	}
}
