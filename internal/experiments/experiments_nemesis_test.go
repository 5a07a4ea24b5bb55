package experiments

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"testing"

	"mcpaxos/internal/batch"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/linearize"
	"mcpaxos/internal/smr"
)

// TestE14SingleSeed pins one full nemesis run: mixed workload, randomized
// fault schedule, zero invariant or linearizability failures.
func TestE14SingleSeed(t *testing.T) {
	row := RunE14One(1, 4, 24)
	if !row.Ok {
		t.Fatalf("seed 1 failed: %s", row.Failure)
	}
	if row.Ops != 4*24 {
		t.Fatalf("ops = %d, want %d", row.Ops, 4*24)
	}
	if row.FaultEvents == 0 {
		t.Fatal("schedule injected no faults")
	}
	if row.Net.Dropped == 0 && row.Net.Duplicated == 0 && row.Net.Delayed == 0 {
		t.Fatalf("the adversary never touched the traffic: %+v", row.Net)
	}
}

// TestE14ManySeeds is the acceptance sweep: ≥50 randomized seeds, each a
// different workload and fault schedule, all clean.
func TestE14ManySeeds(t *testing.T) {
	n := 50
	if testing.Short() {
		n = 8
	}
	rows := RunE14(100, n, 4, 24)
	for _, row := range rows {
		if !row.Ok {
			t.Errorf("seed %d failed: %s", row.Seed, row.Failure)
		}
	}
}

// TestE14SeedCorpus replays every seed in testdata/nemesis_seeds.txt. The
// corpus is the regression ratchet: any seed that ever produces a violation
// gets appended there and replays on every CI run from then on.
func TestE14SeedCorpus(t *testing.T) {
	f, err := os.Open("testdata/nemesis_seeds.txt")
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
		t.Fatal("empty seed corpus")
	}
	for _, seed := range seeds {
		if row := RunE14One(seed, 4, 24); !row.Ok {
			t.Errorf("corpus seed %d failed: %s", seed, row.Failure)
		}
	}
}

// TestE14Deterministic pins reproducibility: the same seed yields the same
// run, byte for byte — the property that makes a failing seed a regression
// test instead of an anecdote.
func TestE14Deterministic(t *testing.T) {
	a := RunE14One(7, 4, 24)
	b := RunE14One(7, 4, 24)
	if a != b {
		t.Fatalf("seed 7 not reproducible:\n%+v\n%+v", a, b)
	}
}

// TestE14AgreementReportsLowestInstance pins that learner agreement is
// checked in instance order: with two disagreeing instances, every run
// reports the lower one, not whichever a map iteration reached first.
func TestE14AgreementReportsLowestInstance(t *testing.T) {
	learned := map[uint64]cstruct.Cmd{}
	for inst := uint64(1); inst <= 16; inst++ {
		learned[inst] = cstruct.Cmd{ID: inst}
	}
	other := func(inst uint64) (cstruct.Cmd, bool) {
		if inst == 5 || inst == 11 {
			return cstruct.Cmd{ID: 100 + inst}, true
		}
		return learned[inst], true
	}
	const want = `learners disagree on instance 5: c5 "" vs c105 ""`
	for run := 0; run < 50; run++ {
		var v verdict
		v.agree(learned, other)
		if v.failure != want {
			t.Fatalf("run %d: failure %q, want %q", run, v.failure, want)
		}
	}
}

// TestE14AgreementComparesValues pins that learner agreement compares
// values, not IDs: two learners holding two batches headed by one command
// for one instance — one ID, different commands — disagree, and the failure
// names the instance.
func TestE14AgreementComparesValues(t *testing.T) {
	x := smr.SetCmd(7, "x", "1")
	learned := map[uint64]cstruct.Cmd{
		2: smr.SetCmd(5, "k", "v"),
		3: batch.Pack([]cstruct.Cmd{x, smr.SetCmd(8, "y", "2")}),
	}
	other := map[uint64]cstruct.Cmd{
		2: learned[2],
		3: batch.Pack([]cstruct.Cmd{x, smr.SetCmd(9, "z", "3")}),
	}
	var v verdict
	v.agree(learned, func(inst uint64) (cstruct.Cmd, bool) { c, ok := other[inst]; return c, ok })
	if !strings.HasPrefix(v.failure, "learners disagree on instance 3: ") {
		t.Fatalf("failure %q, want a disagreement on instance 3", v.failure)
	}
}

// TestNemesisJudge feeds the judge both clocks share synthetic runs: one
// clean run that leans on every rule's passing side, and one broken run per
// rule, each of which must fail with its own message.
func TestNemesisJudge(t *testing.T) {
	// op is one history entry: a write (kind Set) or a read of key with the
	// given result; ret 0 leaves it unresolved.
	type op struct {
		id        uint64
		kind      linearize.Kind
		key, val  string
		found     bool
		call, ret int64
	}
	set := func(id uint64, key, val string, call, ret int64) op {
		return op{id: id, kind: linearize.Set, key: key, val: val, call: call, ret: ret}
	}
	get := func(id uint64, key, val string, call, ret int64) op {
		return op{id: id, kind: linearize.Get, key: key, val: val, found: val != "", call: call, ret: ret}
	}
	cases := []struct {
		name   string
		ops    []op
		orders [][]uint64
		acked  []uint64
		want   string // a prefix of the failure; "" for a clean run
	}{{
		// The unresolved write 2 is applied and a read saw it, so it must
		// stay; the unresolved read 4 would be illegal if kept; the
		// unresolved write 5 was never applied. Learner 302 trails.
		name: "clean",
		ops: []op{set(1, "k", "a", 0, 1), set(2, "k", "b", 2, 0), get(3, "k", "b", 5, 6),
			get(4, "k", "", 7, 0), set(5, "k", "e", 8, 0)},
		orders: [][]uint64{{1, 2, 3, 4}, {1, 2, 3}},
		acked:  []uint64{1, 3},
	}, {
		name:   "diverging order",
		ops:    []op{set(1, "k", "a", 0, 1), set(2, "k", "b", 2, 3)},
		orders: [][]uint64{{1, 2}, {2, 1, 3}},
		want:   "learner 301 order diverges at position 0: 2 vs 1",
	}, {
		name:   "repeated command",
		ops:    []op{set(1, "k", "a", 0, 1)},
		orders: [][]uint64{{1, 1}},
		want:   "learner 301 merged command 1 twice",
	}, {
		name:   "acked command missing from one learner",
		ops:    []op{set(1, "k", "a", 0, 1), set(2, "k", "b", 2, 3)},
		orders: [][]uint64{{1, 2}, {1}},
		acked:  []uint64{1, 2},
		want:   "acked command 2 missing from learner 302's order",
	}, {
		// Write 2 never drew a reply and no order applied it, yet a read saw
		// its value: kept with Ret = ∞ it would explain that read.
		name:   "unapplied unresolved write left in the history",
		ops:    []op{set(1, "w", "a", 0, 1), set(2, "w", "b", 2, 0), get(3, "w", "b", 5, 6)},
		orders: [][]uint64{{1, 3}},
		acked:  []uint64{1, 3},
		want:   "history not linearizable (key w)",
	}, {
		name:   "non-linearizable history",
		ops:    []op{set(1, "x", "a", 0, 1), get(2, "x", "", 2, 3)},
		orders: [][]uint64{{1, 2}},
		acked:  []uint64{1, 2},
		want:   "history not linearizable (key x)",
	}, {
		// Two rules broken: the verdict is the first.
		name:   "first failure kept",
		ops:    []op{set(1, "k", "a", 0, 1)},
		orders: [][]uint64{{1, 2}, {2}},
		acked:  []uint64{1},
		want:   "learner 302 order diverges at position 0: 1 vs 2",
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hist := &linearize.History{}
			unresolved := map[uint64]int{}
			for _, o := range tc.ops {
				idx := hist.Invoke(o.id, o.kind, o.key, o.val, o.call)
				if o.ret == 0 {
					unresolved[o.id] = idx
				} else {
					hist.Resolve(idx, o.val, o.found, o.ret)
				}
			}
			learners := []uint32{301, 302}[:len(tc.orders)]
			var v verdict
			v.judge(hist, learners, tc.orders, tc.acked, unresolved)
			if (v.failure == "") != (tc.want == "") || !strings.HasPrefix(v.failure, tc.want) {
				t.Fatalf("failure %q, want %q", v.failure, tc.want)
			}
		})
	}
}
