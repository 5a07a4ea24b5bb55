package experiments

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"mcpaxos/internal/smr"
)

// TestLiveNemesisSeeds runs the nemesis harness over real TCP: partitions,
// node kills and restarts, loss and dup on live sockets, judged by the
// linearizability checker. Fewer seeds than the simulator sweep — each run
// costs seconds of wall clock — but the same invariants.
func TestLiveNemesisSeeds(t *testing.T) {
	t.Parallel()
	seeds := []int64{1, 42}
	if testing.Short() {
		seeds = seeds[:1]
	}
	judgeSeeds(t, seeds, 1, func(t *testing.T, res LiveNemesisResult) {
		if !res.Ok {
			t.Errorf("failed: %s", res.Failure)
		}
		if res.FaultEvents == 0 {
			t.Errorf("schedule injected no faults")
		}
		if res.Resolved == 0 {
			t.Errorf("no operation ever resolved")
		}
		t.Logf("ops=%d resolved=%d applied=%d events=%d net=%+v elapsed=%v",
			res.Ops, res.Resolved, res.Applied, res.FaultEvents, res.Net, res.Elapsed)
	})
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
	t.Parallel()
	judge := func(t *testing.T, res LiveNemesisResult) {
		if !res.Ok {
			t.Errorf("failed: %s", res.Failure)
		}
		if res.Batched == 0 {
			t.Errorf("no applied command rode in a multi-command instance")
		}
		t.Logf("ops=%d acked=%d applied=%d batched=%d events=%d elapsed=%v",
			res.Ops, res.Acked, res.Applied, res.Batched, res.FaultEvents, res.Elapsed)
	}
	judgeSeeds(t, []int64{1, 42}, 2, judge)
}

// TestLiveNemesisSeedCorpus replays every seed in
// testdata/live_nemesis_seeds.txt through the live-TCP nemesis — the
// regression ratchet for the recovery machinery. The corpus pins schedules
// whose convergence demonstrably rides learner catch-up, the acceptor
// fallback or reply replay; in short mode only the first (formerly
// stalling) seed replays.
func TestLiveNemesisSeedCorpus(t *testing.T) {
	t.Parallel()
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
	judgeSeeds(t, seeds, 1, func(t *testing.T, res LiveNemesisResult) {
		if !res.Ok {
			t.Errorf("failed: %s", res.Failure)
		}
		t.Logf("acked=%d applied=%d replays=%d catchup=%+v",
			res.Acked, res.Applied, res.Replays, res.Catchup)
	})
}

// judgeSeeds runs RunLiveNemesis on every seed at once, at ingress batch
// size batchMax, each seed with its own ports and WAL directory, then judges
// each seed's result in a subtest of its own. A seed is seconds of wall
// clock spent almost all asleep on its schedule, so the seeds overlap rather
// than queue.
func judgeSeeds(t *testing.T, seeds []int64, batchMax int, judge func(*testing.T, LiveNemesisResult)) {
	res := make([]LiveNemesisResult, len(seeds))
	errs := make([]error, len(seeds))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		dir := t.TempDir()
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[i], errs[i] = RunLiveNemesis(seed, 3, 8, batchMax, dir)
		}()
	}
	wg.Wait()
	for i, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			judge(t, res[i])
		})
	}
}
