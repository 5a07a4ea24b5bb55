// Package ballot implements round numbers (ballot numbers) for the Paxos
// family, following Section 4.4 of the Multicoordinated Paxos paper: a round
// number is a record ⟨Count, Id, RType⟩ where Count is split into a major
// incarnation component MCount and a minor sequence component MinCount.
// Rounds are totally ordered lexicographically on (MCount, MinCount, Id,
// RType). The paper's fourth field S (the set of coordinator quorums) is
// informative only and is carried out-of-band by the round scheme.
//
// The package also provides the round schemes of Section 4.5, which decide
// the type (fast / classic single-coordinated / classic multicoordinated) of
// each round and how rounds succeed one another for collision recovery.
package ballot

import (
	"fmt"
)

// Ballot is a round number. The zero value is round Zero, the smallest
// ballot, at which every acceptor implicitly accepts ⊥.
type Ballot struct {
	// MCount is the major component of Count: bumped on coordinator or
	// acceptor recovery so a recovered process can outrun every round it
	// may have participated in before crashing (Section 4.4).
	MCount uint32
	// MinCount is the minor component of Count: bumped to start a fresh
	// round within the same incarnation.
	MinCount uint32
	// ID identifies the coordinator that created the round, breaking ties
	// between rounds with equal counts.
	ID uint32
	// RType carries the round-type tag interpreted by a Scheme.
	RType uint32
}

// Zero is the smallest ballot.
var Zero = Ballot{}

// Compare returns -1, 0 or +1 as b is ordered before, equal to, or after o.
func (b Ballot) Compare(o Ballot) int {
	switch {
	case b.MCount != o.MCount:
		return cmpU32(b.MCount, o.MCount)
	case b.MinCount != o.MinCount:
		return cmpU32(b.MinCount, o.MinCount)
	case b.ID != o.ID:
		return cmpU32(b.ID, o.ID)
	default:
		return cmpU32(b.RType, o.RType)
	}
}

func cmpU32(a, b uint32) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Less reports b < o.
func (b Ballot) Less(o Ballot) bool { return b.Compare(o) < 0 }

// LessEq reports b ≤ o.
func (b Ballot) LessEq(o Ballot) bool { return b.Compare(o) <= 0 }

// Equal reports b = o.
func (b Ballot) Equal(o Ballot) bool { return b == o }

// IsZero reports whether b is the smallest ballot.
func (b Ballot) IsZero() bool { return b == Zero }

// String renders the ballot as ⟨M:m,id,t⟩.
func (b Ballot) String() string {
	return fmt.Sprintf("⟨%d:%d,%d,%d⟩", b.MCount, b.MinCount, b.ID, b.RType)
}

// Max returns the larger of the two ballots.
func Max(a, b Ballot) Ballot {
	if a.Less(b) {
		return b
	}
	return a
}
