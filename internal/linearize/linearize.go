// Package linearize checks client histories for linearizability against the
// replicated KV specification — the Jepsen-style verdict behind the nemesis
// harness: instead of "the run did not assert", it proves "some sequential
// order of the operations respects both real time and the KV semantics".
//
// The checker is the Wing & Gong search in its porcupine-style form:
// operations are partitioned by key (KV operations on distinct keys commute,
// so a history is linearizable iff each key's sub-history is), and each
// sub-history is searched depth-first over (set of linearized ops, key
// state) with memoization. Unacknowledged operations — the client never saw
// a response — are handled the standard way: confirmed-applied writes get an
// infinite return time (they must linearize somewhere after their call),
// and writes that provably never applied are excluded by the caller using
// the merged apply history.
package linearize

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Kind is a KV operation kind.
type Kind uint8

// Operation kinds of the KV specification.
const (
	Get Kind = iota + 1
	Set
	Del
)

// String renders the kind.
func (k Kind) String() string {
	switch k {
	case Get:
		return "get"
	case Set:
		return "set"
	case Del:
		return "del"
	default:
		return "?"
	}
}

// Infinity is the return time of an operation whose response never arrived:
// it may linearize at any point after its call.
const Infinity int64 = math.MaxInt64

// Op is one client operation of a history.
type Op struct {
	// Client identifies the issuing logical client (diagnostics only).
	Client uint64
	// Kind, Key and Arg describe the invocation; Arg is the written value
	// for Set and unused otherwise.
	Kind Kind
	Key  string
	Arg  string
	// Out is the observed result: for Get, the value read ("" with
	// Found=false for a miss); ignored for Set/Del (they always succeed).
	Out   string
	Found bool
	// Call and Ret bound the operation in real time: the linearization
	// point must fall inside [Call, Ret]. Ret == Infinity marks an
	// unacknowledged operation.
	Call, Ret int64
}

func (o Op) String() string {
	switch o.Kind {
	case Get:
		if !o.Found {
			return fmt.Sprintf("c%d get(%s)=missing @[%d,%d]", o.Client, o.Key, o.Call, o.Ret)
		}
		return fmt.Sprintf("c%d get(%s)=%q @[%d,%d]", o.Client, o.Key, o.Out, o.Call, o.Ret)
	case Set:
		return fmt.Sprintf("c%d set(%s,%q) @[%d,%d]", o.Client, o.Key, o.Arg, o.Call, o.Ret)
	default:
		return fmt.Sprintf("c%d del(%s) @[%d,%d]", o.Client, o.Key, o.Call, o.Ret)
	}
}

// Result is a check verdict.
type Result struct {
	// Ok reports linearizability of the whole history.
	Ok bool
	// Key names the sub-history that failed (empty when Ok).
	Key string
	// Info explains the failure for humans.
	Info string
	// Ops counts the operations checked.
	Ops int
}

// Check reports whether the history is linearizable under the KV
// specification. The history may be unsorted; ops on distinct keys are
// checked independently and concurrently.
func Check(ops []Op) Result {
	byKey := make(map[string][]Op)
	for _, o := range ops {
		byKey[o.Key] = append(byKey[o.Key], o)
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		fail *Result
	)
	for key, sub := range byKey {
		wg.Add(1)
		go func(key string, sub []Op) {
			defer wg.Done()
			if ok, info := checkKey(sub); !ok {
				mu.Lock()
				// The lowest failing key is the verdict, whichever
				// goroutine finishes first: a seed's report reproduces.
				if fail == nil || key < fail.Key {
					fail = &Result{Ok: false, Key: key, Info: info, Ops: len(ops)}
				}
				mu.Unlock()
			}
		}(key, sub)
	}
	wg.Wait()
	if fail != nil {
		return *fail
	}
	return Result{Ok: true, Ops: len(ops)}
}

// keyState is the sequential KV state of one key.
type keyState struct {
	present bool
	value   string
}

// apply returns the state after op, and whether the op's observed output is
// legal in state s.
func (s keyState) apply(o Op) (keyState, bool) {
	switch o.Kind {
	case Set:
		return keyState{present: true, value: o.Arg}, true
	case Del:
		return keyState{}, true
	default: // Get: state unchanged, output must match
		if o.Found != s.present {
			return s, false
		}
		if s.present && o.Out != s.value {
			return s, false
		}
		return s, true
	}
}

// checkKey runs the Wing & Gong search on one key's sub-history.
func checkKey(ops []Op) (bool, string) {
	n := len(ops)
	if n == 0 {
		return true, ""
	}
	if n > 64*1024 {
		return false, fmt.Sprintf("sub-history too large to check (%d ops)", n)
	}
	sort.Slice(ops, func(i, j int) bool {
		if ops[i].Call != ops[j].Call {
			return ops[i].Call < ops[j].Call
		}
		return ops[i].Ret < ops[j].Ret
	})

	// The search state: which ops are linearized (bitset) and the key's
	// value. Memoizing (bitset, state) makes revisits O(1): two different
	// linearization orders of the same set reach the same frontier.
	words := (n + 63) / 64
	linearized := make([]uint64, words)
	seen := make(map[string]struct{})
	memoKey := func(st keyState) string {
		buf := make([]byte, 0, words*8+len(st.value)+1)
		for _, w := range linearized {
			for s := 0; s < 64; s += 8 {
				buf = append(buf, byte(w>>s))
			}
		}
		if st.present {
			buf = append(buf, 1)
			buf = append(buf, st.value...)
		} else {
			buf = append(buf, 0)
		}
		return string(buf)
	}
	isLin := func(i int) bool { return linearized[i/64]&(1<<(i%64)) != 0 }
	setLin := func(i int) { linearized[i/64] |= 1 << (i % 64) }
	clrLin := func(i int) { linearized[i/64] &^= 1 << (i % 64) }

	var dfs func(st keyState, done int) bool
	dfs = func(st keyState, done int) bool {
		if done == n {
			return true
		}
		key := memoKey(st)
		if _, dup := seen[key]; dup {
			return false
		}
		seen[key] = struct{}{}
		// An op may linearize next only if it is called before every other
		// pending op returns: an op that returned before another was called
		// must precede it.
		bound := Infinity
		for i := 0; i < n; i++ {
			if !isLin(i) && ops[i].Ret < bound {
				bound = ops[i].Ret
			}
		}
		for i := 0; i < n; i++ {
			if isLin(i) || ops[i].Call > bound {
				continue
			}
			next, legal := st.apply(ops[i])
			if !legal {
				continue
			}
			setLin(i)
			if dfs(next, done+1) {
				return true
			}
			clrLin(i)
		}
		return false
	}
	if dfs(keyState{}, 0) {
		return true, ""
	}
	return false, describeFailure(ops)
}

// describeFailure renders the offending sub-history, smallest first, so a
// failing seed is diagnosable from the test log.
func describeFailure(ops []Op) string {
	s := fmt.Sprintf("no linearization of %d ops:", len(ops))
	max := len(ops)
	if max > 24 {
		max = 24
	}
	for _, o := range ops[:max] {
		s += "\n  " + o.String()
	}
	if max < len(ops) {
		s += fmt.Sprintf("\n  … and %d more", len(ops)-max)
	}
	return s
}
