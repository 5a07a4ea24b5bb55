package storage

import (
	"mcpaxos/internal/ballot"
	"mcpaxos/internal/cstruct"
)

// Stable is the stable-storage contract acceptors write through: the paper's
// "some sort of local stable storage" (Section 2.1.1). Two implementations
// exist: the simulated in-memory Disk (this package) and the on-disk
// write-ahead log (internal/wal). Both count synchronous writes, the
// currency of the paper's disk-write arguments (Sections 4.2 and 4.4), so
// the writes-per-command claims stay checkable regardless of backend.
//
// Durability contract: Put and PutAll return only once the records are
// stable — an acceptor may send its 2b the moment the call returns. PutAll
// stores its records with a single synchronous write: it is the group
// commit, and what shares one is the caller's choice (an acceptor's whole
// mailbox burst). A backend that cannot make a record durable must
// panic rather than return: acking an accept without stable storage would
// break the Paxos safety argument (Section 4.4).
//
// Record vocabulary: acceptors store uint32 and uint64 counters,
// ballot.Ballot rounds and VoteRec values, and nothing else — the paper's
// ⟨MCount of rnd, vrnd, vval⟩ (Section 4.4; Incarnation owns the first) plus
// the scan bounds that find the votes again. The on-disk backend defines a
// byte form for exactly these types (internal/wal, record.go), returns them
// from Get with the same concrete type they were Put with, and panics on a
// value outside the set; the in-memory Disk holds any value.
type Stable interface {
	// Put durably stores value under key, counting one synchronous write.
	Put(key string, value any)
	// PutAll durably stores several records with a single synchronous
	// write. An acceptor calls it once per delivery burst, with every vote
	// the burst cast. The map is not retained: the caller may reuse it once
	// PutAll returns.
	PutAll(records map[string]any)
	// Get reads the latest record stored under key.
	Get(key string) (any, bool)
	// Writes returns the number of synchronous writes performed so far.
	Writes() uint64
	// ResetWrites zeroes the write counter (the data stays).
	ResetWrites()
	// Len returns the number of distinct keys stored.
	Len() int
	// Drop durably deletes the records under keys, counting one synchronous
	// write for the batch (a deletion must survive a crash exactly like a
	// Put, or the keys would resurrect on replay). Acceptors drop a vote
	// range once the cluster-wide compaction watermark has passed it.
	Drop(keys []string)
	// Compact reclaims the space of dropped and superseded records (for a
	// WAL: rewrite the live index and GC dead segments). It is a no-op for
	// a backend whose Drop already frees space.
	Compact() error
}

var _ Stable = (*Disk)(nil)

// VoteRec is the stable accept record every acceptor variant persists: the
// vote's round plus the accepted value flattened to its representative
// command sequence (every c-struct is ⊥ • σ for its Commands() σ, so the
// value is rebuilt with the deployment's c-struct set on restore, exactly
// as the wire codec does). One shape shared by every protocol keeps the
// on-disk WAL protocol-agnostic: it serializes records without knowing
// which acceptor wrote them.
type VoteRec struct {
	// Inst scopes the vote to one consensus instance (multi-instance
	// classic deployments); generalized single-instance protocols use 0.
	Inst uint64
	// VRnd is the round the value was accepted in.
	VRnd ballot.Ballot
	// Cmds is the accepted value's representative command sequence.
	Cmds []cstruct.Cmd
}

// Stable record keys shared by the acceptor implementations.
const (
	// KeyMaxInst holds the uint64 high-water instance for recovery scans
	// of multi-instance logs.
	KeyMaxInst = "maxinst"
	// KeyVote holds the single VoteRec of single-instance acceptors.
	KeyVote = "vote"
	// KeyRnd holds the persisted round of the PersistRnd ablation.
	KeyRnd = "rnd"
	// KeyFloor holds the uint64 compaction floor: vote records below it were
	// truncated (the cluster watermark passed them), so recovery scans start
	// here and catch-up requests below it are refused.
	KeyFloor = "floor"
)
