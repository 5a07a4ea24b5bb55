package quorum

// Accessors and helpers that only this package's tests use: no shipped code
// reads them.

// CheckFastQuorumRequirement verifies Assumption 2 by enumeration: for any
// quorum Q and fast quorums R1, R2, Q ∩ R1 ∩ R2 ≠ ∅.
func (s AcceptorSystem) CheckFastQuorumRequirement() bool {
	if !s.CheckQuorumRequirement() {
		return false
	}
	qs := append(s.ClassicQuorums(), s.FastQuorums()...)
	fast := s.FastQuorums()
	for _, q := range qs {
		for _, r1 := range fast {
			for _, r2 := range fast {
				if len(intersect(intersect(q, r1), r2)) == 0 {
					return false
				}
			}
		}
	}
	return true
}

// CheckCoordQuorumRequirement verifies Assumption 3 by enumeration: any two
// coordinator quorums of the same round intersect.
func (s CoordSystem) CheckCoordQuorumRequirement() bool {
	qs := s.CoordQuorums()
	for _, p := range qs {
		for _, q := range qs {
			if len(intersect(p, q)) == 0 {
				return false
			}
		}
	}
	return true
}

// CoordQuorums enumerates the minimal coordinator quorums.
func (s CoordSystem) CoordQuorums() [][]int { return Subsets(s.nc, s.Size()) }

// CheckQuorumRequirement verifies Assumption 1 by enumeration: every pair of
// quorums (classic or fast) intersects.
func (s AcceptorSystem) CheckQuorumRequirement() bool {
	all := append(s.ClassicQuorums(), s.FastQuorums()...)
	for _, q := range all {
		for _, r := range all {
			if len(intersect(q, r)) == 0 {
				return false
			}
		}
	}
	return true
}

// ClassicQuorums enumerates the minimal classic quorums (size n−F).
func (s AcceptorSystem) ClassicQuorums() [][]int { return Subsets(s.n, s.ClassicSize()) }

// FastQuorums enumerates the minimal fast quorums (size n−E).
func (s AcceptorSystem) FastQuorums() [][]int { return Subsets(s.n, s.FastSize()) }

// ClassicInterSize returns the minimum cardinality of Q ∩ R for a quorum Q
// of the current round and a classic quorum R: n − 2F.
func (s AcceptorSystem) ClassicInterSize() int { return s.n - 2*s.f }

// FastInterSize returns the minimum cardinality of Q ∩ R for a quorum Q of
// the current round and a fast quorum R: n − F − E when Q is classic. The
// paper's Section 3.3.2 uses n − 2E; we use the exact bound for the quorum
// actually gathered, which the caller supplies via qSize.
func (s AcceptorSystem) FastInterSize(qSize int) int { return qSize + s.FastSize() - s.n }

// IsQuorum reports whether `got` distinct coordinators form a quorum.
func (s CoordSystem) IsQuorum(got int) bool { return got >= s.Size() }

// MajoritySystem returns the largest-F system with E = 0 ("classic only"):
// F = ⌈n/2⌉−1 and fast quorums equal to all acceptors.
func MajoritySystem(n int) (AcceptorSystem, error) {
	return NewAcceptorSystem(n, (n-1)/2, 0)
}

func intersect(a, b []int) []int {
	in := make(map[int]struct{}, len(a))
	for _, x := range a {
		in[x] = struct{}{}
	}
	var out []int
	for _, y := range b {
		if _, ok := in[y]; ok {
			out = append(out, y)
		}
	}
	return out
}
