package quorum

import "sync"

// This file provides explicit quorum enumeration. The protocol runtime only
// needs cardinalities, but tests and the generic ProvedSafe oracle reason
// about concrete quorums, and the incremental learners fold quorum glbs per
// 2b. The tests' assumption checkers verify Assumptions 1-3 exhaustively on
// small configurations.

// subsetsCache memoizes Subsets results: hot paths (core learner relearn,
// 2b exchange) call it with the same small (n, k) on every vote, and the
// enumeration is pure. Only modest n is cached so a one-off huge enumeration
// is not retained forever.
var (
	subsetsMu    sync.Mutex
	subsetsCache = make(map[[2]int][][]int)
)

// 12 keeps the largest cached enumeration at C(12,6) = 924 subsets — every
// hot-path caller uses n ≤ acceptors (typically 3-5) — while a one-off
// C(20,10)-sized enumeration stays uncached.
const subsetsCacheMaxN = 12

// Subsets enumerates every subset of {0..n-1} with exactly k elements.
// Results for small n are memoized and shared: callers must treat the
// returned slices as read-only (every caller in this repository does).
func Subsets(n, k int) [][]int {
	if k < 0 || k > n {
		return nil
	}
	key := [2]int{n, k}
	if n <= subsetsCacheMaxN {
		subsetsMu.Lock()
		cached, ok := subsetsCache[key]
		subsetsMu.Unlock()
		if ok {
			return cached
		}
	}
	out := enumerateSubsets(n, k)
	if n <= subsetsCacheMaxN {
		subsetsMu.Lock()
		subsetsCache[key] = out
		subsetsMu.Unlock()
	}
	return out
}

func enumerateSubsets(n, k int) [][]int {
	out := make([][]int, 0)
	cur := make([]int, 0, k)
	var rec func(start int)
	rec = func(start int) {
		if len(cur) == k {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i := start; i <= n-(k-len(cur)); i++ {
			cur = append(cur, i)
			rec(i + 1)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0)
	return out
}

// Quorums enumerates the minimal quorums for a round of the given fastness.
func (s AcceptorSystem) Quorums(fast bool) [][]int { return Subsets(s.n, s.Size(fast)) }
