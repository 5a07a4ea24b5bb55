package linearize

import (
	"math/rand"
	"strconv"
	"testing"
)

func TestSequentialHistoryLinearizable(t *testing.T) {
	ops := []Op{
		{Client: 1, Kind: Set, Key: "x", Arg: "a", Call: 0, Ret: 1},
		{Client: 1, Kind: Get, Key: "x", Out: "a", Found: true, Call: 2, Ret: 3},
		{Client: 1, Kind: Del, Key: "x", Call: 4, Ret: 5},
		{Client: 1, Kind: Get, Key: "x", Found: false, Call: 6, Ret: 7},
	}
	if r := Check(ops); !r.Ok {
		t.Fatalf("sequential history rejected: %s", r.Info)
	}
}

func TestStaleReadRejected(t *testing.T) {
	// The write finished at t=1; a read starting at t=2 that still sees the
	// old (missing) state is not linearizable.
	ops := []Op{
		{Client: 1, Kind: Set, Key: "x", Arg: "a", Call: 0, Ret: 1},
		{Client: 2, Kind: Get, Key: "x", Found: false, Call: 2, Ret: 3},
	}
	if r := Check(ops); r.Ok {
		t.Fatal("stale read accepted")
	} else if r.Key != "x" {
		t.Fatalf("failure attributed to key %q", r.Key)
	}
}

func TestConcurrentReadMayGoEitherWay(t *testing.T) {
	// A read overlapping the write may see either state.
	for _, found := range []bool{true, false} {
		out := ""
		if found {
			out = "a"
		}
		ops := []Op{
			{Client: 1, Kind: Set, Key: "x", Arg: "a", Call: 0, Ret: 10},
			{Client: 2, Kind: Get, Key: "x", Out: out, Found: found, Call: 2, Ret: 3},
		}
		if r := Check(ops); !r.Ok {
			t.Fatalf("concurrent read (found=%v) rejected: %s", found, r.Info)
		}
	}
}

func TestRealTimeOrderEnforcedBetweenWrites(t *testing.T) {
	// set(a) returns before set(b) is called; a later read must not see "a".
	ops := []Op{
		{Client: 1, Kind: Set, Key: "x", Arg: "a", Call: 0, Ret: 1},
		{Client: 1, Kind: Set, Key: "x", Arg: "b", Call: 2, Ret: 3},
		{Client: 2, Kind: Get, Key: "x", Out: "a", Found: true, Call: 4, Ret: 5},
	}
	if r := Check(ops); r.Ok {
		t.Fatal("read of an overwritten value accepted")
	}
}

func TestLostUpdateRejected(t *testing.T) {
	// Two sequential reads observing b then a, with set(a) preceding set(b)
	// in real time, would need the writes to apply in both orders.
	ops := []Op{
		{Client: 1, Kind: Set, Key: "x", Arg: "a", Call: 0, Ret: 1},
		{Client: 1, Kind: Set, Key: "x", Arg: "b", Call: 2, Ret: 3},
		{Client: 2, Kind: Get, Key: "x", Out: "b", Found: true, Call: 4, Ret: 5},
		{Client: 2, Kind: Get, Key: "x", Out: "a", Found: true, Call: 6, Ret: 7},
	}
	if r := Check(ops); r.Ok {
		t.Fatal("time-travelling reads accepted")
	}
}

func TestUnacknowledgedWriteMayLinearizeLate(t *testing.T) {
	// An unacked set (Ret=∞) explains a read of "b" long after the client
	// gave up on it.
	ops := []Op{
		{Client: 1, Kind: Set, Key: "x", Arg: "a", Call: 0, Ret: 1},
		{Client: 1, Kind: Set, Key: "x", Arg: "b", Call: 2, Ret: Infinity},
		{Client: 2, Kind: Get, Key: "x", Out: "a", Found: true, Call: 10, Ret: 11},
		{Client: 2, Kind: Get, Key: "x", Out: "b", Found: true, Call: 20, Ret: 21},
	}
	if r := Check(ops); !r.Ok {
		t.Fatalf("unacked-write explanation rejected: %s", r.Info)
	}
}

func TestKeysCheckedIndependently(t *testing.T) {
	ops := []Op{
		{Client: 1, Kind: Set, Key: "x", Arg: "a", Call: 0, Ret: 1},
		{Client: 1, Kind: Get, Key: "y", Found: false, Call: 2, Ret: 3},
		{Client: 2, Kind: Get, Key: "x", Out: "a", Found: true, Call: 4, Ret: 5},
	}
	if r := Check(ops); !r.Ok {
		t.Fatalf("independent keys rejected: %s", r.Info)
	}
	// Break key y only; the verdict must name it.
	ops = append(ops, Op{Client: 2, Kind: Get, Key: "y", Out: "ghost", Found: true, Call: 6, Ret: 7})
	if r := Check(ops); r.Ok {
		t.Fatal("ghost read accepted")
	} else if r.Key != "y" {
		t.Fatalf("failure attributed to key %q, want y", r.Key)
	}
}

// TestFailureNamesLowestKey pins a reproducible verdict: with several keys
// broken, every check names the lowest, not the first goroutine to finish.
func TestFailureNamesLowestKey(t *testing.T) {
	var ops []Op
	for _, k := range []string{"d", "b", "e", "c"} {
		ops = append(ops,
			Op{Client: 1, Kind: Set, Key: k, Arg: "a", Call: 0, Ret: 1},
			Op{Client: 2, Kind: Get, Key: k, Found: false, Call: 2, Ret: 3})
	}
	for run := 0; run < 50; run++ {
		if r := Check(ops); r.Ok || r.Key != "b" {
			t.Fatalf("run %d: verdict %v on key %q, want a failure on b", run, r.Ok, r.Key)
		}
	}
}

// TestRandomSequentialHistoriesAccepted replays random op sequences through
// a model KV and stamps them with strictly sequential times: every such
// history is linearizable by construction.
func TestRandomSequentialHistoriesAccepted(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		state := map[string]string{}
		var ops []Op
		now := int64(0)
		for i := 0; i < 200; i++ {
			key := "k" + strconv.Itoa(rng.Intn(4))
			o := Op{Client: uint64(rng.Intn(3)), Key: key, Call: now, Ret: now + 1}
			now += 2
			switch rng.Intn(3) {
			case 0:
				o.Kind = Set
				o.Arg = strconv.Itoa(i)
				state[key] = o.Arg
			case 1:
				o.Kind = Del
				delete(state, key)
			default:
				o.Kind = Get
				if v, ok := state[key]; ok {
					o.Out, o.Found = v, true
				}
			}
			ops = append(ops, o)
		}
		if r := Check(ops); !r.Ok {
			t.Fatalf("seed %d: sequential replay rejected: %s", seed, r.Info)
		}
	}
}

// TestRandomConcurrentHistoriesAccepted generates histories from a model
// where each op's linearization point is drawn inside its [call, ret]
// window, then widens the windows: all must pass.
func TestRandomConcurrentHistoriesAccepted(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		type pending struct {
			op  Op
			lin int64
		}
		state := map[string]string{}
		var ops []pending
		now := int64(0)
		for i := 0; i < 120; i++ {
			key := "k" + strconv.Itoa(rng.Intn(3))
			call := now
			lin := call + rng.Int63n(5)
			ret := lin + rng.Int63n(5) + 1
			now += rng.Int63n(3) // overlapping windows
			ops = append(ops, pending{op: Op{Client: uint64(i % 4), Key: key, Call: call, Ret: ret}, lin: lin})
		}
		// Apply in linearization-point order to compute outputs.
		idx := make([]int, len(ops))
		for i := range idx {
			idx[i] = i
		}
		for i := range idx {
			for j := i + 1; j < len(idx); j++ {
				if ops[idx[j]].lin < ops[idx[i]].lin {
					idx[i], idx[j] = idx[j], idx[i]
				}
			}
		}
		for n, i := range idx {
			o := &ops[i].op
			switch n % 3 {
			case 0:
				o.Kind = Set
				o.Arg = strconv.Itoa(n)
				state[o.Key] = o.Arg
			case 1:
				o.Kind = Del
				delete(state, o.Key)
			default:
				o.Kind = Get
				if v, ok := state[o.Key]; ok {
					o.Out, o.Found = v, true
				}
			}
		}
		flat := make([]Op, len(ops))
		for i, p := range ops {
			flat[i] = p.op
		}
		if r := Check(flat); !r.Ok {
			t.Fatalf("seed %d: valid concurrent history rejected: %s", seed, r.Info)
		}
	}
}

func TestHistoryRecorder(t *testing.T) {
	var h History
	i := h.Invoke(1, Set, "x", "a", 0)
	j := h.Invoke(2, Get, "x", "", 1)
	k := h.Invoke(1, Set, "x", "b", 2)
	h.Resolve(i, "ok", false, 3)
	h.Resolve(j, "a", true, 4)
	// k never resolves and is proven never-applied: discard it.
	h.Discard(k)
	if h.Len() != 3 || h.Unresolved() != 0 {
		t.Fatalf("len=%d unresolved=%d", h.Len(), h.Unresolved())
	}
	ops := h.Ops()
	if len(ops) != 2 {
		t.Fatalf("checkable ops = %d, want 2", len(ops))
	}
	if r := Check(ops); !r.Ok {
		t.Fatalf("recorded history rejected: %s", r.Info)
	}
}
