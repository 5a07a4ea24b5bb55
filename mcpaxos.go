// Package mcpaxos is a from-scratch Go implementation of Multicoordinated
// Paxos (Camargos, Schmidt, Pedone — TR 2007/02, PODC 2007) together with
// the protocol family it extends: Classic Paxos, Fast Paxos and Generalized
// Paxos, a Generic Broadcast layer, state-machine replication, and a
// deterministic discrete-event harness that reproduces the paper's
// quantitative claims (communication steps, quorum sizes, availability,
// load balance, collision cost, disk writes).
//
// The root package is the public facade: it re-exports the vocabulary types,
// provides the experiment drivers consumed by bench_test.go and
// cmd/paxosbench, and exposes the embedding API (ClusterSpec, Replica,
// Client — see api.go) that runs the batched, sharded, multicoordinated
// stack over real TCP. Protocol internals live under internal/: classic is
// the engine that ships — rounds served by coordinator groups of any size c,
// behind the live path, E10–E14 and the classic rows of E1–E9 — and core is
// the paper's algorithm over c-structs, fast rounds included, which runs on
// the simulator only.
package mcpaxos

import (
	"mcpaxos/internal/ballot"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/quorum"
)

// Cmd is a replicated command. See cstruct.Cmd.
type Cmd = cstruct.Cmd

// Conflict is a command interference relation. See cstruct.Conflict.
type Conflict = cstruct.Conflict

// Re-exported conflict relations.
var (
	AlwaysConflict Conflict = cstruct.AlwaysConflict
	NeverConflict  Conflict = cstruct.NeverConflict
	KeyConflict    Conflict = cstruct.KeyConflict
	RWConflict     Conflict = cstruct.RWConflict
)

// Ballot is a round number. See ballot.Ballot.
type Ballot = ballot.Ballot

// Protocol selects one member of the Paxos family.
type Protocol uint8

// Protocols under comparison.
const (
	// ProtocolClassic is Classic Paxos: 3 steps, single leader.
	ProtocolClassic Protocol = iota + 1
	// ProtocolFast is Fast Paxos: 2 steps, fast quorums, collisions.
	ProtocolFast
	// ProtocolMulti is Multicoordinated Paxos: 3 steps, coordinator
	// quorums, no single leader (the paper's contribution).
	ProtocolMulti
	// ProtocolGeneralized is Generalized Paxos: Fast Paxos over c-structs.
	ProtocolGeneralized
)

// String renders the protocol name.
func (p Protocol) String() string {
	switch p {
	case ProtocolClassic:
		return "classic"
	case ProtocolFast:
		return "fast"
	case ProtocolMulti:
		return "multicoordinated"
	case ProtocolGeneralized:
		return "generalized"
	default:
		return "unknown"
	}
}

// QuorumSizes reports the acceptor quorum cardinalities the paper's
// Section 2.2 derives for n acceptors: majority classic quorums, the
// matching minimal fast quorums, and the balanced E=F configuration.
func QuorumSizes(n int) (classic, fastMajority, balanced int, err error) {
	maj, err := quorum.NewAcceptorSystem(n, (n-1)/2, quorum.MaxEForMajorityF(n))
	if err != nil {
		return 0, 0, 0, err
	}
	bal, err := quorum.BalancedSystem(n)
	if err != nil {
		return 0, 0, 0, err
	}
	return maj.ClassicSize(), maj.FastSize(), bal.FastSize(), nil
}
