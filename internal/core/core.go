// Package core implements Multicoordinated Paxos, the contribution of
// Camargos, Schmidt and Pedone (TR 2007/02 / PODC 2007): a Generalized
// Consensus protocol whose classic rounds may have multiple coordinators.
// Acceptors accept a value only once a quorum of the round's coordinators
// has forwarded it, so a single coordinator crash neither stalls the round
// nor forces a round change — the availability argument of Section 4.1 —
// while latency and acceptor quorum sizes stay those of classic rounds
// (three communication steps, n−F acceptors).
//
// The engine is the generalized algorithm of Section 3.2, parameterized by a
// c-struct set:
//
//   - cstruct.SingleValueSet yields the consensus protocol of Section 3.1;
//   - cstruct.HistorySet yields the Generic Broadcast protocol of
//     Section 3.3 (examples/bank runs one);
//   - ballot.FastScheme or ballot.FastUncoordScheme rounds owned by one
//     coordinator yield Fast Paxos over single values (Section 2.2) and
//     Generalized Paxos over histories (Section 2.3).
//
// Collision handling follows Section 4.2 — in multicoordinated rounds at the
// acceptors, in fast rounds by Config.Recovery — liveness Section 4.3, and
// the disk-write policy Section 4.4 (coordinators keep no stable state;
// acceptors persist only accepted values plus one incarnation bump per
// recovery).
package core

import (
	"fmt"

	"mcpaxos/internal/ballot"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/quorum"
)

// Config describes a Multicoordinated Paxos deployment.
type Config struct {
	// Coords lists the coordinators of multicoordinated rounds. Rounds of
	// kind single-coordinated or fast are coordinated by their owner only.
	Coords []msg.NodeID
	// Acceptors lists the acceptor processes.
	Acceptors []msg.NodeID
	// Learners lists the learner processes.
	Learners []msg.NodeID
	// Quorums is the acceptor quorum system (Assumptions 1 and 2).
	Quorums quorum.AcceptorSystem
	// CoordQ is the coordinator quorum system over Coords (Assumption 3).
	CoordQ quorum.CoordSystem
	// Scheme types rounds and defines succession (Section 4.5).
	Scheme ballot.Scheme
	// Set is the c-struct set the deployment agrees on.
	Set cstruct.Set
	// Recovery selects how a fast round's collision is recovered.
	Recovery Recovery
}

// Recovery is one of the fast-round collision recoveries of Sections 2.2 and
// 4.2. The zero value recovers none: acceptors that split a fast round's votes
// stay there until some coordinator starts a higher round.
//
// Coordinated and uncoordinated recovery take a 2b for the sender's last vote
// in its round, as Fast Paxos may: over single values a fast-round vote is
// final. Over histories an acceptor keeps appending to that vote until the
// successor round reaches it, so only Restart and promotion, where acceptors
// join the successor before anything is picked, are safe for every command
// stream there.
type Recovery uint8

const (
	// Restart has the fast round's coordinator, which hears its 2bs, start
	// the successor round from phase 1 on a collision (four extra steps).
	Restart Recovery = iota + 1
	// Coordinated has that coordinator read a quorum of the collided round's
	// 2bs as the successor round's 1bs and send its 2a at once (two extra
	// steps).
	Coordinated
	// AtAcceptors has the acceptors exchange 2bs. Before a classic successor
	// round (ballot.FastScheme) an acceptor whose vote a peer's contradicts
	// joins it and sends its 1b; before a fast one (ballot.FastUncoordScheme)
	// it reads a quorum of colliding 2bs as the successor's 1bs and accepts
	// there directly — uncoordinated recovery, one extra step, at most
	// MaxUncoordRecoveries times.
	AtAcceptors
)

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case len(c.Coords) == 0:
		return fmt.Errorf("core: no coordinators")
	case len(c.Acceptors) != c.Quorums.N():
		return fmt.Errorf("core: %d acceptors but quorum system expects %d",
			len(c.Acceptors), c.Quorums.N())
	case len(c.Learners) == 0:
		return fmt.Errorf("core: no learners")
	case c.CoordQ.N() != len(c.Coords):
		return fmt.Errorf("core: coordinator quorum system over %d coords but %d configured",
			c.CoordQ.N(), len(c.Coords))
	case c.Scheme == nil:
		return fmt.Errorf("core: nil round scheme")
	case c.Set == nil:
		return fmt.Errorf("core: nil c-struct set")
	case c.Recovery > AtAcceptors:
		return fmt.Errorf("core: unknown collision recovery %d", c.Recovery)
	}
	return nil
}

// RoundCoords returns the coordinators of round b: the full coordinator set
// for multicoordinated rounds, the round's owner alone otherwise.
func (c Config) RoundCoords(b ballot.Ballot) []msg.NodeID {
	if c.Scheme.Kind(b) == ballot.KindMulti {
		return c.Coords
	}
	return []msg.NodeID{msg.NodeID(b.ID)}
}

// CoordQuorumSize returns the number of identical-round 2a senders an
// acceptor must gather before accepting in round b.
func (c Config) CoordQuorumSize(b ballot.Ballot) int {
	if c.Scheme.Kind(b) == ballot.KindMulti {
		return c.CoordQ.Size()
	}
	return 1
}

// IsCoordOf reports whether node id coordinates round b.
func (c Config) IsCoordOf(id msg.NodeID, b ballot.Ballot) bool {
	for _, co := range c.RoundCoords(b) {
		if co == id {
			return true
		}
	}
	return false
}

// accIndex returns the position of an acceptor in the configuration, or -1.
func (c Config) accIndex(id msg.NodeID) int {
	for i, a := range c.Acceptors {
		if a == id {
			return i
		}
	}
	return -1
}

// roundVals holds, for the highest round it has seen, the longest value each
// sender sent in it (values grow within a round): an acceptor's 2as per
// coordinator, and the fast-round 2bs per acceptor a collision recovery reads.
type roundVals struct {
	rnd  ballot.Ballot
	vals map[msg.NodeID]cstruct.CStruct
}

// reset moves to round r if it is higher, forgetting the older round.
func (v *roundVals) reset(r ballot.Ballot) {
	if v.vals == nil || v.rnd.Less(r) {
		v.rnd, v.vals = r, make(map[msg.NodeID]cstruct.CStruct)
	}
}

// add records from's value for round r, reporting false when r is below the
// round held.
func (v *roundVals) add(set cstruct.Set, r ballot.Ballot, from msg.NodeID, val cstruct.CStruct) bool {
	v.reset(r)
	if !v.rnd.Equal(r) {
		return false
	}
	if prev, ok := v.vals[from]; !ok || set.Extends(prev, val) {
		v.vals[from] = val
	}
	return true
}

// collide reports whether the values held have no common upper bound.
func (v *roundVals) collide(set cstruct.Set) bool {
	vals := make([]cstruct.CStruct, 0, len(v.vals))
	for _, val := range v.vals {
		vals = append(vals, val)
	}
	return !set.Compatible(vals...)
}

// as1bs reads the held 2bs as 1bs of round next, in the order of accs:
// Section 4.2's "phase 2b messages of round i as phase 1b messages of round
// i+1".
func (v *roundVals) as1bs(next ballot.Ballot, accs []msg.NodeID) []msg.P1b {
	var out []msg.P1b
	for _, acc := range accs {
		if val, ok := v.vals[acc]; ok {
			out = append(out, msg.P1b{Rnd: next, Acc: acc, VRnd: v.rnd, VVal: val})
		}
	}
	return out
}
