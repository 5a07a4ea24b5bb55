package ballot

// Kind is the execution mode of a round (Sections 2 and 3 of the paper).
type Kind uint8

// Round kinds. Classic single-coordinated rounds are the rounds of Classic
// Paxos; fast rounds are the rounds of Fast Paxos; multicoordinated rounds
// are the contribution of the paper.
const (
	_ Kind = iota // the zero Kind is no round's: it prints "unknown"
	// KindSingle is a classic round with exactly one coordinator quorum of
	// one element (the leader). Liveness-friendly, collision-free.
	KindSingle
	// KindMulti is a classic multicoordinated round: coordinator quorums
	// are majorities of the round's coordinator set.
	KindMulti
	// KindFast is a fast round: proposers reach acceptors directly.
	KindFast
)

// String renders the kind.
func (k Kind) String() string {
	switch k {
	case KindSingle:
		return "single-coordinated"
	case KindMulti:
		return "multicoordinated"
	case KindFast:
		return "fast"
	default:
		return "unknown"
	}
}

// Scheme maps ballots to round kinds and defines round succession. Schemes
// realize Section 4.5: the rounds' configuration is fixed a priori so that
// collision recovery can rely on knowing the exact next round number.
type Scheme interface {
	// Kind returns the execution mode of round b.
	Kind(b Ballot) Kind
	// IsFast reports whether b is a fast round.
	IsFast(b Ballot) bool
	// Next returns the round that directly follows b within the same
	// incarnation, owned by coordinator id. Collision recovery promotes a
	// stuck round i to Next(i, ...).
	Next(b Ballot, id uint32) Ballot
	// First returns the initial working round created by coordinator id at
	// incarnation mcount.
	First(mcount uint32, id uint32) Ballot
}

// SingleScheme makes every round classic single-coordinated (Classic
// Paxos / the "conflict prone" configuration of Section 4.5).
type SingleScheme struct{}

var _ Scheme = SingleScheme{}

// Kind implements Scheme.
func (SingleScheme) Kind(Ballot) Kind { return KindSingle }

// IsFast implements Scheme.
func (SingleScheme) IsFast(Ballot) bool { return false }

// Next implements Scheme.
func (SingleScheme) Next(b Ballot, id uint32) Ballot {
	return Ballot{MCount: b.MCount, MinCount: b.MinCount + 1, ID: id}
}

// First implements Scheme.
func (SingleScheme) First(mcount, id uint32) Ballot {
	return Ballot{MCount: mcount, MinCount: 1, ID: id}
}

// MultiScheme alternates multicoordinated rounds with single-coordinated
// recovery rounds: even RType ⇒ multicoordinated, odd ⇒ single-coordinated.
// Per Section 4.3, a multicoordinated round whose coordinators collide is
// followed by a single-coordinated round to restore liveness; after that the
// leader may start a fresh multicoordinated round (higher MinCount).
type MultiScheme struct{}

var _ Scheme = MultiScheme{}

// Kind implements Scheme.
func (MultiScheme) Kind(b Ballot) Kind {
	if b.RType%2 == 0 {
		return KindMulti
	}
	return KindSingle
}

// IsFast implements Scheme.
func (MultiScheme) IsFast(Ballot) bool { return false }

// Next implements Scheme: a multicoordinated round is followed by the
// single-coordinated round with the same counters (RType+1); a
// single-coordinated round is followed by the next multicoordinated one.
func (MultiScheme) Next(b Ballot, id uint32) Ballot {
	if b.RType%2 == 0 {
		return Ballot{MCount: b.MCount, MinCount: b.MinCount, ID: id, RType: b.RType + 1}
	}
	return Ballot{MCount: b.MCount, MinCount: b.MinCount + 1, ID: id, RType: 0}
}

// First implements Scheme.
func (MultiScheme) First(mcount, id uint32) Ballot {
	return Ballot{MCount: mcount, MinCount: 1, ID: id, RType: 0}
}

// FastScheme is the "clustered systems" configuration of Section 4.5: even
// RType values are fast rounds, odd values are single-coordinated classic
// rounds used for coordinated collision recovery.
type FastScheme struct{}

var _ Scheme = FastScheme{}

// Kind implements Scheme.
func (FastScheme) Kind(b Ballot) Kind {
	if b.RType%2 == 0 {
		return KindFast
	}
	return KindSingle
}

// IsFast implements Scheme.
func (s FastScheme) IsFast(b Ballot) bool { return s.Kind(b) == KindFast }

// Next implements Scheme: fast → recovery classic → next fast.
func (FastScheme) Next(b Ballot, id uint32) Ballot {
	if b.RType%2 == 0 {
		return Ballot{MCount: b.MCount, MinCount: b.MinCount, ID: id, RType: b.RType + 1}
	}
	return Ballot{MCount: b.MCount, MinCount: b.MinCount + 1, ID: id, RType: 0}
}

// First implements Scheme.
func (FastScheme) First(mcount, id uint32) Ballot {
	return Ballot{MCount: mcount, MinCount: 1, ID: id, RType: 0}
}

// FastUncoordScheme chains fast rounds directly (fast → fast), modelling
// uncoordinated recovery where round i+1 must itself be fast so that
// acceptors may accept different values (Section 4.2).
type FastUncoordScheme struct{}

var _ Scheme = FastUncoordScheme{}

// Kind implements Scheme.
func (FastUncoordScheme) Kind(Ballot) Kind { return KindFast }

// IsFast implements Scheme.
func (FastUncoordScheme) IsFast(Ballot) bool { return true }

// Next implements Scheme.
func (FastUncoordScheme) Next(b Ballot, id uint32) Ballot {
	return Ballot{MCount: b.MCount, MinCount: b.MinCount + 1, ID: id, RType: b.RType}
}

// First implements Scheme.
func (FastUncoordScheme) First(mcount, id uint32) Ballot {
	return Ballot{MCount: mcount, MinCount: 1, ID: id, RType: 0}
}
