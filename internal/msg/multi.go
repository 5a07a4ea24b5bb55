package msg

import (
	"mcpaxos/internal/ballot"
	"mcpaxos/internal/cstruct"
)

// InstVote is one acceptor vote in a multi-instance phase 1b reply.
type InstVote struct {
	Inst uint64
	VRnd ballot.Ballot
	VVal cstruct.CStruct
}

// P1bMulti is the phase 1b promise of a multi-instance (state-machine
// replication) acceptor: acceptors share one current round across instances,
// so a single promise reports the latest accepted value of every instance
// the acceptor ever voted in. This realizes the "phase 1 a priori for all
// consensus instances" optimization of Section 2.1.2.
type P1bMulti struct {
	Rnd   ballot.Ballot
	Acc   NodeID
	Votes []InstVote
	// Shard names the instance residue class the promise covers in a
	// sharded deployment (the shard of the P1a that triggered it).
	// Multicoordinated shard groups broadcast the promise to every group
	// member, which uses Shard to discard promises misrouted across groups.
	Shard uint32
}

// Type implements Message.
func (P1bMulti) Type() Type { return TP1b }
