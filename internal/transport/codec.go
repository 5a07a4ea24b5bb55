// Package transport carries protocol messages between processes: a TCP
// endpoint per node (tcp.go) over a hand-rolled binary wire codec (this
// file). It is a mechanism only — it queues, frames and delivers, and
// injects no faults; the node's runtime.Network adjudicates every send
// before it reaches Send.
//
// # Wire format
//
// Every encoded message is one frame:
//
//	[version: 1 byte = 0x02]  [type tag: 1 byte]  [flags: 1 byte]  [fields...]
//
// where flags packs the optional-field markers (HasVal, Multi, HasSeq,
// HasClient, HasFloor, Again, Idle) and the fields are fixed per type tag, built from the
// layouts package wire defines (shared with the WAL's record codec):
// integers are unsigned varints, ballots are four varints, and commands,
// strings and node-ID sets are length-prefixed sections. The encoding is
// canonical — one byte string per message value — so encode∘decode is the
// identity on the wire form (FuzzCodecRoundTrip enforces it, and the golden
// frames in golden_test.go pin the bytes). Any other version byte is
// rejected.
package transport

import (
	"fmt"

	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/wire"
)

// verBinary is the wire format version: the first byte of every frame.
const verBinary = 0x02

// Flag bits of a frame's flags byte.
const (
	// flagHasVal distinguishes a nil c-struct from ⊥ (P1b/P2a/P2b).
	flagHasVal = 1 << 0
	// flagMulti marks a multi-instance P1bMulti promise (type tag TP1b).
	flagMulti = 1 << 2
	// flagHasSeq marks a proposal carrying its per-shard sequence number.
	flagHasSeq = 1 << 3
	// flagHasClient marks a proposal tagged with its issuing client's
	// (Client, Req) idempotency key — an unsequenced client submission
	// awaiting a server-side Seq stamp, or a stamped single-command proposal
	// whose key rides along for ingress failover.
	flagHasClient = 1 << 4
	// flagHasFloor marks a catch-up response carrying the responder's
	// nonzero retention floor (log compaction: a refusal when Floor > From).
	flagHasFloor = 1 << 5
	// flagAgain marks a 2b drawn by a 2a for an instance the acceptor had
	// already voted in (P2b.Again).
	flagAgain = 1 << 6
	// flagIdle marks a Fill as the skip hint (Fill.Idle). Fill carries no
	// value, so it reuses bit 0.
	flagIdle = 1 << 0
)

// Codec encodes protocol messages for the TCP transport. It needs the
// deployment's c-struct set to rebuild values on receipt.
type Codec struct {
	Set cstruct.Set
}

// Encode serializes m into a fresh slice.
func (c Codec) Encode(m msg.Message) ([]byte, error) {
	return c.AppendEncode(nil, m)
}

// Decode deserializes a message. It never retains data: everything the
// returned message references is copied out, so callers may reuse the slice
// immediately (the TCP reader decodes from one pooled scratch buffer).
func (c Codec) Decode(data []byte) (msg.Message, error) {
	if len(data) < 3 {
		return nil, fmt.Errorf("transport: decode: truncated header")
	}
	if data[0] != verBinary {
		return nil, fmt.Errorf("transport: decode: unknown wire version %#x", data[0])
	}
	m, err := c.decode(msg.Type(data[1]), data[2], &wire.Reader{B: data[3:]})
	if err != nil {
		return nil, fmt.Errorf("transport: decode: %w", err)
	}
	return m, nil
}

// encodable reports whether m is a known wire message type (the only
// encoding failure mode, checked by TCP.Send before queueing).
func encodable(m msg.Message) bool {
	switch m.(type) {
	case msg.Propose, msg.P1a, msg.P1b, msg.P1bMulti, msg.P2a, msg.P2b,
		msg.Stale, msg.Heartbeat, msg.Reply, msg.CatchupReq, msg.CatchupResp,
		msg.Fill, msg.Done, msg.SnapReq, msg.SnapResp:
		return true
	}
	return false
}

// --- encoding ---

func appendNodeIDs(dst []byte, ids []msg.NodeID) []byte {
	dst = wire.AppendUvarint(dst, uint64(len(ids)))
	for _, id := range ids {
		dst = wire.AppendUvarint(dst, uint64(id))
	}
	return dst
}

// appendVal writes a non-nil c-struct as a length-prefixed command
// sequence. SingleValue is special-cased so the consensus hot path encodes
// without the slice allocation its Commands() would cost; History.Commands
// already returns its backing sequence allocation-free.
func appendVal(dst []byte, v cstruct.CStruct) []byte {
	if sv, ok := v.(cstruct.SingleValue); ok {
		if c, set := sv.Value(); set {
			dst = wire.AppendUvarint(dst, 1)
			return wire.AppendCmd(dst, c)
		}
		return wire.AppendUvarint(dst, 0)
	}
	return wire.AppendCmds(dst, v.Commands())
}

// AppendEncode serializes m onto dst and returns the extended slice. The
// result is owned by the caller; encoding a known message type into a slice
// with sufficient capacity performs no allocation beyond the message's own
// Commands() flattening.
func (c Codec) AppendEncode(dst []byte, m msg.Message) ([]byte, error) {
	switch mm := m.(type) {
	case msg.Propose:
		var flags byte
		if mm.HasSeq {
			flags |= flagHasSeq
		}
		hasClient := mm.Client != 0 || mm.Req != 0
		if hasClient {
			flags |= flagHasClient
		}
		dst = append(dst, verBinary, byte(msg.TPropose), flags)
		dst = wire.AppendCmd(dst, mm.Cmd)
		dst = appendNodeIDs(dst, mm.AccQuorum)
		dst = wire.AppendUvarint(dst, mm.Inst)
		if mm.HasSeq {
			dst = wire.AppendUvarint(dst, mm.Seq)
		}
		if hasClient {
			dst = wire.AppendUvarint(dst, uint64(mm.Client))
			dst = wire.AppendUvarint(dst, mm.Req)
		}
		return dst, nil
	case msg.P1a:
		dst = append(dst, verBinary, byte(msg.TP1a), 0)
		dst = wire.AppendUvarint(dst, mm.Inst)
		dst = wire.AppendBallot(dst, mm.Rnd)
		dst = wire.AppendUvarint(dst, uint64(mm.Coord))
		return wire.AppendUvarint(dst, uint64(mm.Shard)), nil
	case msg.P1b:
		hasVal := mm.VVal != nil
		var flags byte
		if hasVal {
			flags |= flagHasVal
		}
		dst = append(dst, verBinary, byte(msg.TP1b), flags)
		dst = wire.AppendUvarint(dst, mm.Inst)
		dst = wire.AppendBallot(dst, mm.Rnd)
		dst = wire.AppendUvarint(dst, uint64(mm.Acc))
		dst = wire.AppendBallot(dst, mm.VRnd)
		if hasVal {
			dst = appendVal(dst, mm.VVal)
		}
		return dst, nil
	case msg.P1bMulti:
		dst = append(dst, verBinary, byte(msg.TP1b), flagMulti)
		dst = wire.AppendBallot(dst, mm.Rnd)
		dst = wire.AppendUvarint(dst, uint64(mm.Acc))
		dst = wire.AppendUvarint(dst, uint64(mm.Shard))
		dst = wire.AppendUvarint(dst, uint64(len(mm.Votes)))
		for _, v := range mm.Votes {
			dst = wire.AppendUvarint(dst, v.Inst)
			dst = wire.AppendBallot(dst, v.VRnd)
			if v.VVal != nil {
				dst = append(dst, 1)
				dst = appendVal(dst, v.VVal)
			} else {
				dst = append(dst, 0)
			}
		}
		return dst, nil
	case msg.P2a:
		hasVal := mm.Val != nil
		var flags byte
		if hasVal {
			flags |= flagHasVal
		}
		dst = append(dst, verBinary, byte(msg.TP2a), flags)
		dst = wire.AppendUvarint(dst, mm.Inst)
		dst = wire.AppendBallot(dst, mm.Rnd)
		dst = wire.AppendUvarint(dst, uint64(mm.Coord))
		if hasVal {
			dst = appendVal(dst, mm.Val)
		}
		return dst, nil
	case msg.P2b:
		hasVal := mm.Val != nil
		var flags byte
		if hasVal {
			flags |= flagHasVal
		}
		if mm.Again {
			flags |= flagAgain
		}
		dst = append(dst, verBinary, byte(msg.TP2b), flags)
		dst = wire.AppendUvarint(dst, mm.Inst)
		dst = wire.AppendBallot(dst, mm.Rnd)
		dst = wire.AppendUvarint(dst, uint64(mm.Acc))
		if hasVal {
			dst = appendVal(dst, mm.Val)
		}
		return dst, nil
	case msg.Stale:
		dst = append(dst, verBinary, byte(msg.TStale), 0)
		dst = wire.AppendUvarint(dst, mm.Inst)
		dst = wire.AppendUvarint(dst, uint64(mm.Acc))
		dst = wire.AppendBallot(dst, mm.Rnd)
		return wire.AppendBallot(dst, mm.Got), nil
	case msg.Heartbeat:
		dst = append(dst, verBinary, byte(msg.THeartbeat), 0)
		dst = wire.AppendUvarint(dst, uint64(mm.From))
		return wire.AppendUvarint(dst, mm.Epoch), nil
	case msg.Reply:
		dst = append(dst, verBinary, byte(msg.TReply), 0)
		dst = wire.AppendUvarint(dst, mm.CmdID)
		dst = wire.AppendUvarint(dst, uint64(mm.From))
		dst = wire.AppendUvarint(dst, mm.Inst)
		return wire.AppendString(dst, mm.Result), nil
	case msg.CatchupReq:
		dst = append(dst, verBinary, byte(msg.TCatchupReq), 0)
		dst = wire.AppendUvarint(dst, uint64(mm.Learner))
		dst = wire.AppendUvarint(dst, mm.From)
		return wire.AppendUvarint(dst, uint64(mm.Max)), nil
	case msg.CatchupResp:
		var flags byte
		if mm.Floor != 0 {
			flags |= flagHasFloor
		}
		dst = append(dst, verBinary, byte(msg.TCatchupResp), flags)
		dst = wire.AppendUvarint(dst, uint64(mm.Learner))
		dst = wire.AppendUvarint(dst, mm.From)
		dst = wire.AppendUvarint(dst, mm.Frontier)
		if mm.Floor != 0 {
			dst = wire.AppendUvarint(dst, mm.Floor)
		}
		return wire.AppendCmds(dst, mm.Cmds), nil
	case msg.Fill:
		var flags byte
		if mm.Idle {
			flags |= flagIdle
		}
		dst = append(dst, verBinary, byte(msg.TFill), flags)
		dst = wire.AppendUvarint(dst, mm.Inst)
		return wire.AppendUvarint(dst, uint64(mm.Learner)), nil
	case msg.Done:
		dst = append(dst, verBinary, byte(msg.TDone), 0)
		dst = wire.AppendUvarint(dst, uint64(mm.From))
		dst = wire.AppendUvarint(dst, mm.Frontier)
		return wire.AppendUvarint(dst, mm.Watermark), nil
	case msg.SnapReq:
		dst = append(dst, verBinary, byte(msg.TSnapReq), 0)
		dst = wire.AppendUvarint(dst, uint64(mm.Learner))
		return wire.AppendUvarint(dst, mm.From), nil
	case msg.SnapResp:
		dst = append(dst, verBinary, byte(msg.TSnapResp), 0)
		dst = wire.AppendUvarint(dst, uint64(mm.Learner))
		dst = wire.AppendUvarint(dst, mm.Frontier)
		dst = wire.AppendUvarint(dst, uint64(mm.Crc))
		dst = wire.AppendUvarint(dst, uint64(mm.Seq))
		dst = wire.AppendUvarint(dst, uint64(mm.Total))
		return wire.AppendBytes(dst, mm.Chunk), nil
	default:
		return nil, fmt.Errorf("transport: unknown message type %T", m)
	}
}

// --- decoding ---

func readNodeIDs(r *wire.Reader) []msg.NodeID {
	n := r.Count("node count", 1) // every ID takes ≥1 byte
	if n == 0 {
		return nil
	}
	out := make([]msg.NodeID, 0, n)
	for i := 0; i < n && r.Err == nil; i++ {
		out = append(out, msg.NodeID(r.U32("node id")))
	}
	return out
}

// rebuild turns a wire command sequence back into a c-struct of the codec's
// set; has distinguishes nil from ⊥.
func (c Codec) rebuild(cmds []cstruct.Cmd, has bool) cstruct.CStruct {
	if !has {
		return nil
	}
	return cstruct.AppendSeq(c.Set.Bottom(), cmds)
}

// decode reads the fields of one frame of type typ; its errors name the
// failure only (Decode adds the package prefix).
func (c Codec) decode(typ msg.Type, flags byte, r *wire.Reader) (msg.Message, error) {
	var m msg.Message
	switch typ {
	case msg.TPropose:
		if flags&^(flagHasSeq|flagHasClient) != 0 {
			return nil, fmt.Errorf("bad propose flags %#x", flags)
		}
		mm := msg.Propose{HasSeq: flags&flagHasSeq != 0}
		mm.Cmd = r.Cmd()
		mm.AccQuorum = readNodeIDs(r)
		mm.Inst = r.Uvarint("inst")
		if mm.HasSeq {
			mm.Seq = r.Uvarint("seq")
		}
		if flags&flagHasClient != 0 {
			mm.Client = msg.NodeID(r.U32("client"))
			mm.Req = r.Uvarint("req")
			if r.Err == nil && mm.Client == 0 && mm.Req == 0 {
				// Canonical encoding: the flag is set iff the key is non-zero.
				r.Fail("client key")
			}
		}
		m = mm
	case msg.TP1a:
		if flags != 0 {
			return nil, fmt.Errorf("bad 1a flags %#x", flags)
		}
		m = msg.P1a{
			Inst:  r.Uvarint("inst"),
			Rnd:   r.Ballot(),
			Coord: msg.NodeID(r.U32("coord")),
			Shard: r.U32("shard"),
		}
	case msg.TP1b:
		if flags&flagMulti != 0 {
			if flags != flagMulti {
				return nil, fmt.Errorf("bad multi-1b flags %#x", flags)
			}
			mm := msg.P1bMulti{
				Rnd:   r.Ballot(),
				Acc:   msg.NodeID(r.U32("acc")),
				Shard: r.U32("shard"),
			}
			// Each vote takes ≥6 bytes (inst, 4 ballot varints, has byte).
			n := r.Count("vote count", 6)
			for i := 0; i < n && r.Err == nil; i++ {
				v := msg.InstVote{Inst: r.Uvarint("vote inst"), VRnd: r.Ballot()}
				switch r.Byte("vote has") {
				case 1:
					v.VVal = c.rebuild(r.Cmds(), true)
				case 0:
				default:
					r.Fail("vote has")
				}
				mm.Votes = append(mm.Votes, v)
			}
			m = mm
		} else {
			if flags&^flagHasVal != 0 {
				return nil, fmt.Errorf("bad 1b flags %#x", flags)
			}
			mm := msg.P1b{
				Inst: r.Uvarint("inst"),
				Rnd:  r.Ballot(),
				Acc:  msg.NodeID(r.U32("acc")),
				VRnd: r.Ballot(),
			}
			if flags&flagHasVal != 0 {
				mm.VVal = c.rebuild(r.Cmds(), true)
			}
			m = mm
		}
	case msg.TP2a:
		if flags&^flagHasVal != 0 {
			return nil, fmt.Errorf("bad 2a flags %#x", flags)
		}
		mm := msg.P2a{
			Inst:  r.Uvarint("inst"),
			Rnd:   r.Ballot(),
			Coord: msg.NodeID(r.U32("coord")),
		}
		if flags&flagHasVal != 0 {
			mm.Val = c.rebuild(r.Cmds(), true)
		}
		m = mm
	case msg.TP2b:
		if flags&^(flagHasVal|flagAgain) != 0 {
			return nil, fmt.Errorf("bad 2b flags %#x", flags)
		}
		mm := msg.P2b{
			Inst:  r.Uvarint("inst"),
			Rnd:   r.Ballot(),
			Acc:   msg.NodeID(r.U32("acc")),
			Again: flags&flagAgain != 0,
		}
		if flags&flagHasVal != 0 {
			mm.Val = c.rebuild(r.Cmds(), true)
		}
		m = mm
	case msg.TStale:
		if flags != 0 {
			return nil, fmt.Errorf("bad stale flags %#x", flags)
		}
		m = msg.Stale{
			Inst: r.Uvarint("inst"),
			Acc:  msg.NodeID(r.U32("acc")),
			Rnd:  r.Ballot(),
			Got:  r.Ballot(),
		}
	case msg.THeartbeat:
		if flags != 0 {
			return nil, fmt.Errorf("bad heartbeat flags %#x", flags)
		}
		m = msg.Heartbeat{From: msg.NodeID(r.U32("from")), Epoch: r.Uvarint("epoch")}
	case msg.TReply:
		if flags != 0 {
			return nil, fmt.Errorf("bad reply flags %#x", flags)
		}
		m = msg.Reply{
			CmdID:  r.Uvarint("cmd id"),
			From:   msg.NodeID(r.U32("from")),
			Inst:   r.Uvarint("inst"),
			Result: r.String("result"),
		}
	case msg.TCatchupReq:
		if flags != 0 {
			return nil, fmt.Errorf("bad catchup-req flags %#x", flags)
		}
		m = msg.CatchupReq{
			Learner: msg.NodeID(r.U32("learner")),
			From:    r.Uvarint("from"),
			Max:     r.U32("max"),
		}
	case msg.TCatchupResp:
		if flags&^flagHasFloor != 0 {
			return nil, fmt.Errorf("bad catchup-resp flags %#x", flags)
		}
		mm := msg.CatchupResp{
			Learner:  msg.NodeID(r.U32("learner")),
			From:     r.Uvarint("from"),
			Frontier: r.Uvarint("frontier"),
		}
		if flags&flagHasFloor != 0 {
			mm.Floor = r.Uvarint("floor")
			if r.Err == nil && mm.Floor == 0 {
				// Canonical encoding: the flag is set iff Floor is non-zero.
				r.Fail("floor")
			}
		}
		mm.Cmds = r.Cmds()
		m = mm
	case msg.TFill:
		if flags&^flagIdle != 0 {
			return nil, fmt.Errorf("bad fill flags %#x", flags)
		}
		m = msg.Fill{
			Inst:    r.Uvarint("inst"),
			Learner: msg.NodeID(r.U32("learner")),
			Idle:    flags&flagIdle != 0,
		}
	case msg.TDone:
		if flags != 0 {
			return nil, fmt.Errorf("bad done flags %#x", flags)
		}
		m = msg.Done{
			From:      msg.NodeID(r.U32("from")),
			Frontier:  r.Uvarint("frontier"),
			Watermark: r.Uvarint("watermark"),
		}
	case msg.TSnapReq:
		if flags != 0 {
			return nil, fmt.Errorf("bad snap-req flags %#x", flags)
		}
		m = msg.SnapReq{
			Learner: msg.NodeID(r.U32("learner")),
			From:    r.Uvarint("from"),
		}
	case msg.TSnapResp:
		if flags != 0 {
			return nil, fmt.Errorf("bad snap-resp flags %#x", flags)
		}
		m = msg.SnapResp{
			Learner:  msg.NodeID(r.U32("learner")),
			Frontier: r.Uvarint("frontier"),
			Crc:      r.U32("crc"),
			Seq:      r.U32("seq"),
			Total:    r.U32("total"),
			Chunk:    r.Bytes("chunk"),
		}
	default:
		return nil, fmt.Errorf("unknown wire type %d", typ)
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return m, nil
}
