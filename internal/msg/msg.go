// Package msg defines the message vocabulary shared by every protocol in
// this repository: the propose/1a/1b/2a/2b messages of the Paxos family
// (Sections 2 and 3 of the Multicoordinated Paxos paper), plus the auxiliary
// messages used for liveness (stale-round notifications, Section 4.3) and
// leader election heartbeats.
//
// All protocols — Classic Paxos, Fast Paxos, Generalized Paxos and
// Multicoordinated Paxos — exchange the same message shapes; single-value
// protocols simply carry SingleValue c-structs. Messages are immutable once
// sent.
package msg

import (
	"fmt"

	"mcpaxos/internal/ballot"
	"mcpaxos/internal/cstruct"
)

// NodeID identifies a process. A single process may play several roles
// (e.g. coordinator and acceptor) but has one ID.
type NodeID uint32

// String renders the node ID.
func (id NodeID) String() string { return fmt.Sprintf("n%d", uint32(id)) }

// Type tags a message for dispatch and metrics.
type Type uint8

// Message types. Start at one so the zero value is detectably unset.
const (
	TUnknown Type = iota
	TPropose
	TP1a
	TP1b
	TP2a
	TP2b
	TStale
	THeartbeat
	TReply
	TCatchupReq
	TCatchupResp
	TFill
	TDone
	TSnapReq
	TSnapResp
	TPeerDown
)

// String renders the message type.
func (t Type) String() string {
	switch t {
	case TPropose:
		return "propose"
	case TP1a:
		return "1a"
	case TP1b:
		return "1b"
	case TP2a:
		return "2a"
	case TP2b:
		return "2b"
	case TStale:
		return "stale"
	case THeartbeat:
		return "heartbeat"
	case TReply:
		return "reply"
	case TCatchupReq:
		return "catchup-req"
	case TCatchupResp:
		return "catchup-resp"
	case TFill:
		return "fill"
	case TDone:
		return "done"
	case TSnapReq:
		return "snap-req"
	case TSnapResp:
		return "snap-resp"
	case TPeerDown:
		return "peer-down"
	default:
		return "unknown"
	}
}

// Message is any protocol message. Its type tag is all a receiver needs to
// dispatch it; the instance a message concerns, if any, is a field of its
// own type.
type Message interface {
	Type() Type
}

// Propose carries a proposed command from a proposer to coordinators (and,
// for fast rounds, to acceptors).
type Propose struct {
	Cmd cstruct.Cmd
	// AccQuorum optionally names the acceptor quorum the proposer chose for
	// this command (load balancing, Section 4.1). Coordinators then send
	// their 2a messages only to these acceptors. Empty means all acceptors.
	// Only the simulator-only engine (core) sets or reads it, and no core
	// node is hosted on a socket, so the codec does not frame it.
	AccQuorum []NodeID
	// Seq, when HasSeq is set, is the command's per-shard sequence number in
	// a sharded deployment: the proposal stream of shard k is numbered 0, 1,
	// 2, … at submission. Coordinator groups (Section 4.1 applied per shard)
	// rely on it to assign identical instances without coordination: every
	// coordinator of the shard independently maps the proposal to instance
	// Seq·N + k, so their 2a messages for the same proposal name the same
	// instance — at any group size, one included.
	Seq    uint64
	HasSeq bool
	// Client and Req are a (client, request counter) tag the codec still
	// carries (flagHasClient), but no node sends or reads them: an
	// unsequenced submission is keyed by its command ID, which embeds the
	// same pair (classic.CmdID). They stay because the benchmark module's
	// codec driver (bench's voteMsgs) still frames a tagged Propose.
	Client NodeID
	Req    uint64
}

// Type implements Message.
func (Propose) Type() Type { return TPropose }

// P1a starts phase 1 of round Rnd ("1a", Section 2.1.2). In sharded
// deployments (Mencius-style residue-class ownership of the instance space)
// Shard names the residue class the round covers: the promise and the
// per-shard round it establishes apply only to instances ≡ Shard (mod the
// deployment's shard count). Unsharded deployments use shard 0 of 1.
//
// Inst is framed but no sender sets it yet, and no acceptor reads it: every
// promise carries the shard's whole vote history. It is kept for bounded
// promises, where the 1a names the sender's learned frontier and the acceptor
// reports only the votes at or above it.
type P1a struct {
	Inst  uint64
	Rnd   ballot.Ballot
	Coord NodeID
	Shard uint32
}

// Type implements Message.
func (P1a) Type() Type { return TP1a }

// P1b is an acceptor's phase 1 promise: it will join round Rnd and reports
// the latest value VVal it accepted and the round VRnd it accepted it at.
type P1b struct {
	Rnd  ballot.Ballot
	Acc  NodeID
	VRnd ballot.Ballot
	VVal cstruct.CStruct
}

// Type implements Message.
func (P1b) Type() Type { return TP1b }

// P2a carries a coordinator's picked value for round Rnd. In a fast round
// that value is typically ⊥, which acceptors then extend with proposals they
// receive directly (Section 2.2).
type P2a struct {
	Inst  uint64
	Rnd   ballot.Ballot
	Coord NodeID
	Val   cstruct.CStruct
}

// Type implements Message.
func (P2a) Type() Type { return TP2a }

// P2b is an acceptor's vote: it accepted Val at round Rnd. A learner also
// sends one without a value to the instance's coordinators as its
// acknowledgement that the instance is learned.
type P2b struct {
	Inst uint64
	Rnd  ballot.Ballot
	Acc  NodeID
	Val  cstruct.CStruct
	// Hi is carried by a learner's acknowledgement only: one past the highest
	// instance the learner has learned, in any shard. It tells the shard's
	// stamper how far the other shards have run ahead, so it claims its own
	// free slots below it at once instead of leaving holes the merged order
	// waits on. Zero on every vote, and on an ack from a learner that has
	// learned nothing.
	Hi uint64
	// Again marks a 2b drawn by a 2a for an instance the acceptor had already
	// voted in: a re-announcement of the vote it holds, or a new vote over an
	// earlier round's. The sender of that 2a may be waiting on an instance
	// that was learned long ago, so a learner that already knows the instance
	// re-acknowledges a marked 2b — and only a marked one: the last
	// acceptor's first 2b for a freshly learned instance draws nothing.
	Again bool
}

// Type implements Message.
func (P2b) Type() Type { return TP2b }

// Stale tells a coordinator that its round is lower than the acceptor's
// current round, so it must start a higher-numbered round to make progress
// (liveness extension of Section 4.3). The acceptor's round is all the
// coordinator acts on; the receiver learns the sender from its host.
type Stale struct {
	// Rnd is the acceptor's current round.
	Rnd ballot.Ballot
}

// Type implements Message.
func (Stale) Type() Type { return TStale }

// Reply carries a replica's apply result back to the client that submitted
// the command: once a learner-hosted state machine applies a command in the
// merged total order, it reports the result keyed by the command's ID, and
// the client resolves the matching in-flight proposal (response
// correlation). Every learner replica replies independently, so clients must
// suppress duplicates — the first reply wins.
type Reply struct {
	// CmdID identifies the applied command (the client stamped it).
	CmdID uint64
	// From is the replying learner and Inst the instance the command was
	// delivered at in the merged order. No client reads either; they stay
	// because the benchmark module's codec driver (bench's voteMsgs) frames
	// a Reply that sets them.
	From NodeID
	Inst uint64
	// Result is the state machine's apply result.
	Result string
}

// Type implements Message.
func (Reply) Type() Type { return TReply }

// CatchupReq asks a peer learner for the decided prefix at and above
// instance From: a restarted (or gap-stalled) learner cannot re-elicit old
// 2b announcements — acceptors quiesce once a learner acknowledges the
// instance — so it pulls the merged prefix from a peer that delivered it
// (the learner-rejoin half of Section 4.4's recovery story; the MIT paxos
// Min()/Done() catch-up contract has the same shape).
type CatchupReq struct {
	// Learner is the requesting learner, where the response goes.
	Learner NodeID
	// From is the requester's merge frontier: the first instance it is
	// missing. The responder bounds how many instances it answers with.
	From uint64
}

// Type implements Message.
func (CatchupReq) Type() Type { return TCatchupReq }

// CatchupResp carries one chunk of a peer learner's decided prefix: Cmds[i]
// is the command delivered at instance From+i. Frontier is the responder's
// own merge frontier; the requester keeps pulling while From+len(Cmds) is
// still below it. An empty Cmds with Frontier ≤ From says the responder has
// nothing newer — the requester is already caught up to this peer.
type CatchupResp struct {
	// From is the instance of Cmds[0] (echoed from the request).
	From uint64
	// Frontier is the responder's next-undelivered instance.
	Frontier uint64
	// Floor is the responder's retention floor: the lowest instance it still
	// holds in log (or vote-history) form. A response with Floor > From is a
	// refusal — the requested prefix was compacted away, and the requester
	// must escalate to snapshot transfer (SnapReq) before resuming the log
	// pull. Zero means the full prefix is retained.
	Floor uint64
	// Cmds is the contiguous decided slice [From, From+len(Cmds)).
	Cmds []cstruct.Cmd
}

// Type implements Message.
func (CatchupResp) Type() Type { return TCatchupResp }

// Fill asks a shard's coordinator group to make instance Inst decidable: a
// learner whose merged order is stalled — later instances sit buffered above
// a frozen frontier — sends it to every member of the owning group. A member
// that knows a proposal for the instance retransmits its 2a; members that
// have never seen one adopt a canonical no-op for the slot, so a sequence
// number lost with a crashed ingress stamper (or never assigned because the
// shard went idle mid-stream) cannot stall the total order. All members
// derive the identical no-op, so the fill itself cannot collide; if a real
// proposal survives at some member, Section 4.2 collision promotion decides
// between it and the no-op.
//
// With Idle set it is the skip hint instead (the Mencius skip): the shard has
// consumed fewer sequence slots than its peers, the merged order waits on
// slots it never claimed, and Inst names the last of them. The hint counts
// as a high-water mark of Inst+1, like an ack's P2b.Hi: only the shard's
// stamper acts on it, by stamping every unclaimed slot through Inst as
// ordinary stamps — its buffered commands first, one a slot, then the
// canonical no-op — so the hint can be sent early (one BatchWait, not
// FillAfter) without racing a real stamp. Acks carry the same mark for
// every decided instance; the hint is the backstop for a shard with nothing
// in flight, which draws no acks.
type Fill struct {
	// Inst is the stalled instance (the learner's merge frontier), or with
	// Idle the shard's last missing instance below the highest buffered one.
	Inst uint64
	// Idle marks the skip hint.
	Idle bool
}

// Type implements Message.
func (Fill) Type() Type { return TFill }

// Done gossips a node's compaction frontier, the Min()/Done() watermark
// protocol of the MIT paxos GC contract: each learner announces the
// frontier its newest durable snapshot covers (everything below it is
// replayable from the snapshot, so the learner no longer *needs* the log
// prefix), plus the cluster-wide minimum it has computed over fresh peer
// announcements. Learners truncate their retained logs below their own
// computed minimum; acceptors ratchet a monotone watermark from the
// Watermark field and truncate vote history below it. An acceptor sends one
// only to refuse a 2a below that floor, with the floor in both fields: the
// coordinator that sent it learns that everything below was decided.
type Done struct {
	// From is the announcing node.
	From NodeID
	// Frontier is the announcer's own durable snapshot frontier: instances
	// [0, Frontier) are covered by a snapshot it can serve.
	Frontier uint64
	// Watermark is the announcer's current estimate of the cluster-wide
	// compaction watermark (min over fresh learner frontiers, its own
	// included). Truncating below it is safe because some live learner can
	// ship a covering snapshot.
	Watermark uint64
}

// Type implements Message.
func (Done) Type() Type { return TDone }

// SnapReq asks a peer learner for its newest state snapshot: the requester's
// merge frontier From fell below the cluster's compaction watermark (a log
// pull was refused with CatchupResp.Floor > From), so the log prefix it is
// missing no longer exists anywhere — only a snapshot can close the gap.
type SnapReq struct {
	// Learner is the requesting learner, where the chunks go.
	Learner NodeID
	// From is the requester's merge frontier (telemetry; any snapshot with
	// Frontier > From helps).
	From uint64
}

// Type implements Message.
func (SnapReq) Type() Type { return TSnapReq }

// SnapResp carries one chunk of a serialized state snapshot. The requester
// reassembles chunks 0..Total-1, verifies Crc over the whole blob, and
// installs atomically — a missing or corrupt chunk aborts the install and
// the pull is retried against another peer. Total == 0 means the responder
// has no snapshot to serve.
type SnapResp struct {
	// Learner is the responding learner.
	Learner NodeID
	// Frontier is the snapshot's exclusive upper bound: it covers [0, Frontier).
	Frontier uint64
	// Crc is the checksum of the complete snapshot blob.
	Crc uint32
	// Seq is this chunk's index; Total the chunk count of the blob.
	Seq, Total uint32
	// Chunk is the blob slice [Seq·chunk, min((Seq+1)·chunk, len)).
	Chunk []byte
}

// Type implements Message.
func (SnapResp) Type() Type { return TSnapResp }

// PeerDown is a local event, never a wire message (the codec refuses it): a
// node's host reports that it lost its connection to Node, or could not open
// one. It is failure evidence in the sense of an unreliable failure detector
// (Ω): a live node can be reported — a reset connection — and a dead one
// missed — a silent partition — so handlers may act sooner on it, but nothing
// safety depends on may be decided by it, and liveness must hold without it.
type PeerDown struct {
	// Node is the peer the host could not reach.
	Node NodeID
}

// Type implements Message.
func (PeerDown) Type() Type { return TPeerDown }

// Heartbeat is exchanged by coordinators for failure detection and leader
// election. No shipped node sends one yet; the frame is kept for the live
// failure detector (failure.Elector hosted beside each live coordinator),
// whose missed heartbeats will raise PeerDown.
type Heartbeat struct {
	From  NodeID
	Epoch uint64
}

// Type implements Message.
func (Heartbeat) Type() Type { return THeartbeat }
