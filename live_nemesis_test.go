package mcpaxos

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"testing"

	"mcpaxos/internal/smr"
)

// TestLiveNemesisSeeds runs the nemesis harness over real TCP: partitions,
// node kills and restarts, loss and dup on live sockets, judged by the
// linearizability checker. Fewer seeds than the simulator sweep — each run
// costs seconds of wall clock — but the same invariants.
func TestLiveNemesisSeeds(t *testing.T) {
	seeds := []int64{1, 42}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		res, err := RunLiveNemesis(seed, 3, 8, 1, t.TempDir())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Ok {
			t.Errorf("seed %d failed: %s", seed, res.Failure)
		}
		if res.FaultEvents == 0 {
			t.Errorf("seed %d: schedule injected no faults", seed)
		}
		if res.Resolved == 0 {
			t.Errorf("seed %d: no operation ever resolved", seed)
		}
		t.Logf("seed %d: ops=%d resolved=%d applied=%d events=%d net=%+v elapsed=%v",
			seed, res.Ops, res.Resolved, res.Applied, res.FaultEvents, res.Net, res.Elapsed)
	}
	// Guard against silent drift in the read sentinel the result parser
	// depends on.
	if smr.KVMissing != "#missing" {
		t.Fatalf("KVMissing sentinel changed: %q", smr.KVMissing)
	}
}

// TestLiveNemesisBatched is the nemesis arm that batches: the same harness at
// an ingress batch size of 2, so instances carry several commands while the
// schedule kills stampers and loses their stamp shares — the ground on which
// two batches headed by one command compete for a slot. (A batch of 8 never
// fills with 3 workers over 2 shards.) Each seed must pack at least one
// multi-command instance, or the arm proves nothing about batches.
func TestLiveNemesisBatched(t *testing.T) {
	if testing.Short() {
		t.Skip("live nemesis seeds take seconds of wall clock each")
	}
	for _, seed := range []int64{1, 42} {
		res, err := RunLiveNemesis(seed, 3, 8, 2, t.TempDir())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Ok {
			t.Errorf("seed %d failed: %s", seed, res.Failure)
		}
		if res.Batched == 0 {
			t.Errorf("seed %d: no applied command rode in a multi-command instance", seed)
		}
		t.Logf("seed %d: ops=%d acked=%d applied=%d batched=%d events=%d elapsed=%v",
			seed, res.Ops, res.Acked, res.Applied, res.Batched, res.FaultEvents, res.Elapsed)
	}
}

// TestLiveNemesisSeedCorpus replays every seed in
// testdata/live_nemesis_seeds.txt through the live-TCP nemesis — the
// regression ratchet for the recovery machinery. The corpus pins schedules
// whose convergence demonstrably rides learner catch-up, the acceptor
// fallback or reply replay; in short mode only the first (formerly
// stalling) seed replays.
func TestLiveNemesisSeedCorpus(t *testing.T) {
	f, err := os.Open("testdata/live_nemesis_seeds.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var seeds []int64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		seed, err := strconv.ParseInt(line, 10, 64)
		if err != nil {
			t.Fatalf("corpus line %q: %v", sc.Text(), err)
		}
		seeds = append(seeds, seed)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(seeds) == 0 {
		t.Fatal("empty live seed corpus")
	}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		res, err := RunLiveNemesis(seed, 3, 8, 1, t.TempDir())
		if err != nil {
			t.Fatalf("corpus seed %d: %v", seed, err)
		}
		if !res.Ok {
			t.Errorf("corpus seed %d failed: %s", seed, res.Failure)
		}
		t.Logf("corpus seed %d: acked=%d applied=%d replays=%d catchup=%+v",
			seed, res.Acked, res.Applied, res.Replays, res.Catchup)
	}
}
