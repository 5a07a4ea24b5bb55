// Package quorum implements the quorum systems of the Paxos family:
// acceptor quorums satisfying the Quorum Requirement (Assumption 1) and the
// Fast Quorum Requirement (Assumption 2), and coordinator quorums satisfying
// the Coord-quorum Requirement (Assumption 3) of the Multicoordinated Paxos
// paper.
//
// Quorums are size-based, as in Section 3.3 of the paper: with n acceptors,
// any set of n−F acceptors is a classic quorum and any set of n−E acceptors
// is a fast quorum, where F bounds the failures tolerated for progress and E
// the failures tolerated for fast termination. Feasibility requires
// 2E+F < n and 2F < n.
package quorum

import "fmt"

// AcceptorSystem is a size-based acceptor quorum system.
type AcceptorSystem struct {
	n, f, e int
}

// NewAcceptorSystem builds the quorum system for n acceptors tolerating F
// failures in classic rounds and E failures in fast rounds. It returns an
// error when the Fast Quorum Requirement cannot hold.
func NewAcceptorSystem(n, f, e int) (AcceptorSystem, error) {
	switch {
	case n <= 0:
		return AcceptorSystem{}, fmt.Errorf("quorum: need at least one acceptor, got %d", n)
	case f < 0 || e < 0:
		return AcceptorSystem{}, fmt.Errorf("quorum: negative failure bound f=%d e=%d", f, e)
	case 2*f >= n:
		return AcceptorSystem{}, fmt.Errorf("quorum: classic quorums must intersect: need 2F < n, got n=%d F=%d", n, f)
	case 2*e+f >= n:
		return AcceptorSystem{}, fmt.Errorf("quorum: fast quorum requirement needs 2E+F < n, got n=%d F=%d E=%d", n, f, e)
	}
	return AcceptorSystem{n: n, f: f, e: e}, nil
}

// MustAcceptorSystem is NewAcceptorSystem, panicking on invalid parameters.
// Intended for tests and static configurations.
func MustAcceptorSystem(n, f, e int) AcceptorSystem {
	s, err := NewAcceptorSystem(n, f, e)
	if err != nil {
		panic(err)
	}
	return s
}

// BalancedSystem returns the E = F system in which every set of ⌈(2n+1)/3⌉
// acceptors is both a classic and a fast quorum (Section 2.2).
func BalancedSystem(n int) (AcceptorSystem, error) {
	ef := (n - 1) / 3
	return NewAcceptorSystem(n, ef, ef)
}

// MaxEForMajorityF returns the largest E compatible with majority classic
// quorums for n acceptors: fast quorums of size n−E with 2E+F < n and
// F = ⌈n/2⌉−1. This yields fast quorums of about ⌈3n/4⌉ (Section 2.2).
func MaxEForMajorityF(n int) int {
	f := (n - 1) / 2
	e := (n - f - 1) / 2
	if e < 0 {
		return 0
	}
	return e
}

// N returns the number of acceptors.
func (s AcceptorSystem) N() int { return s.n }

// F returns the classic failure bound.
func (s AcceptorSystem) F() int { return s.f }

// E returns the fast failure bound.
func (s AcceptorSystem) E() int { return s.e }

// ClassicSize returns the classic quorum cardinality n−F.
func (s AcceptorSystem) ClassicSize() int { return s.n - s.f }

// FastSize returns the fast quorum cardinality n−E.
func (s AcceptorSystem) FastSize() int { return s.n - s.e }

// Size returns the quorum cardinality for a round of the given fastness.
func (s AcceptorSystem) Size(fast bool) int {
	if fast {
		return s.FastSize()
	}
	return s.ClassicSize()
}

// IsQuorum reports whether a set of `got` distinct acceptors is a quorum for
// a round of the given fastness.
func (s AcceptorSystem) IsQuorum(got int, fast bool) bool { return got >= s.Size(fast) }

// MinInterSize returns the minimum possible |Q ∩ R| where |Q| = qSize and R
// is a quorum for a round of the given fastness.
func (s AcceptorSystem) MinInterSize(qSize int, fast bool) int {
	return qSize + s.Size(fast) - s.n
}

// String renders the system.
func (s AcceptorSystem) String() string {
	return fmt.Sprintf("acceptors{n=%d F=%d E=%d classic=%d fast=%d}",
		s.n, s.f, s.e, s.ClassicSize(), s.FastSize())
}

// CoordSystem is a size-based coordinator quorum system for multicoordinated
// rounds: any majority of the round's coordinator set is a coordinator
// quorum, which trivially satisfies Assumption 3. A system with a single
// coordinator (nc = 1) degenerates to Classic Paxos rounds.
type CoordSystem struct {
	nc int
}

// NewCoordSystem builds a coordinator quorum system over nc coordinators.
func NewCoordSystem(nc int) (CoordSystem, error) {
	if nc <= 0 {
		return CoordSystem{}, fmt.Errorf("quorum: need at least one coordinator, got %d", nc)
	}
	return CoordSystem{nc: nc}, nil
}

// MustCoordSystem is NewCoordSystem, panicking on invalid parameters.
func MustCoordSystem(nc int) CoordSystem {
	s, err := NewCoordSystem(nc)
	if err != nil {
		panic(err)
	}
	return s
}

// N returns the number of coordinators.
func (s CoordSystem) N() int { return s.nc }

// Size returns the coordinator quorum cardinality ⌊nc/2⌋+1.
func (s CoordSystem) Size() int { return s.nc/2 + 1 }

// MaxFailures returns how many coordinator crashes leave at least one
// quorum intact: nc − Size().
func (s CoordSystem) MaxFailures() int { return s.nc - s.Size() }

// String renders the system.
func (s CoordSystem) String() string {
	return fmt.Sprintf("coords{n=%d quorum=%d}", s.nc, s.Size())
}
