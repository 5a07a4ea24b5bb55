package transport

import (
	"bytes"
	"math"
	"testing"

	"mcpaxos/internal/ballot"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
)

// fuzzSeeds is the seed corpus shared by the codec fuzz targets: every
// message type, including the coordinator-id and sequence-number fields of
// the multicoordinated path (P2a.Coord, Propose.Seq/HasSeq, P1bMulti.Shard)
// and the server-side ingress fields (Propose.Client/Req: max-varint, zero
// request, and the absent-flag pre-stamped form; Fill and its skip hint; the
// re-announced 2b).
func fuzzSeeds() []msg.Message {
	b := ballot.Ballot{MCount: 1, MinCount: 2, ID: 3, RType: 4}
	sv := cstruct.NewSingleValue(cstruct.Cmd{ID: 9, Key: "k", Op: cstruct.OpWrite, Payload: []byte("p")})
	return []msg.Message{
		msg.Propose{Inst: 7, Cmd: cstruct.Cmd{ID: 5, Key: "k"},
			AccQuorum: []msg.NodeID{200, 201}, Seq: 12, HasSeq: true},
		msg.Propose{Cmd: cstruct.Cmd{ID: 1<<40 | 3, Key: "k"}, Client: 1, Req: 3},
		msg.Propose{Cmd: cstruct.Cmd{ID: math.MaxUint64},
			Client: math.MaxUint32, Req: math.MaxUint64},
		msg.Propose{Cmd: cstruct.Cmd{ID: 1 << 40}, Client: 1, Req: 0},
		msg.Propose{Cmd: cstruct.Cmd{ID: 1<<40 | 9, Key: "k"},
			Seq: 42, HasSeq: true, Client: 1, Req: 9},
		msg.P1a{Inst: 1, Rnd: b, Coord: 100, Shard: 3},
		msg.P1b{Inst: 2, Rnd: b, Acc: 200, VRnd: b, VVal: sv},
		msg.P1bMulti{Rnd: b, Acc: 201, Shard: 1, Votes: []msg.InstVote{
			{Inst: 0, VRnd: b, VVal: sv},
			{Inst: 4, VRnd: ballot.Zero},
		}},
		msg.P2a{Inst: 3, Rnd: b, Coord: 102, Val: sv},
		msg.P2b{Inst: 4, Rnd: b, Acc: 202, Val: sv},
		msg.P2b{Inst: 4, Rnd: b, Acc: 202, Val: sv, Again: true},
		msg.Stale{Inst: 5, Acc: 200, Rnd: b, Got: ballot.Zero},
		msg.Heartbeat{From: 100, Epoch: 9},
		msg.Reply{CmdID: 1<<40 | 3, From: 300, Inst: 11, Result: "OK"},
		msg.CatchupReq{Learner: 300, From: 42, Max: 64},
		msg.CatchupResp{Learner: 301, From: 42, Frontier: 44, Cmds: []cstruct.Cmd{
			{ID: 9, Key: "k", Op: cstruct.OpWrite, Payload: []byte("p")},
			{ID: 10, Key: "q"},
		}},
		msg.CatchupResp{Learner: 301, From: 3, Frontier: 96, Floor: 64},
		msg.Fill{Inst: 17, Learner: 300},
		msg.Fill{Inst: 17, Learner: 300, Idle: true},
		msg.Done{From: 300, Frontier: 128, Watermark: 96},
		msg.SnapReq{Learner: 300, From: 12},
		msg.SnapResp{Learner: 301, Frontier: 128, Crc: 0xdeadbeef,
			Seq: 1, Total: 3, Chunk: []byte{0, 0x41, 0xff}},
	}
}

// FuzzCodecRoundTrip feeds arbitrary byte frames to the decoder: it must
// never panic, and every frame it does accept must round-trip —
// encode∘decode is the identity on the wire form, so re-encoding the
// decoded message yields the same bytes and the same message again. The
// seed corpus is the checked-in golden frames plus every codecCases edge
// case (nil vs ⊥ values, empty sections, max-varint fields).
func FuzzCodecRoundTrip(f *testing.F) {
	set := cstruct.SingleValueSet{}
	c := Codec{Set: set}
	for _, g := range goldenFrames {
		f.Add(unhex(f, g.hex))
	}
	for _, tc := range codecCases(set) {
		data, err := c.Encode(tc.m)
		if err != nil {
			f.Fatalf("encode seed %s: %v", tc.name, err)
		}
		f.Add(data)
	}
	f.Add([]byte("not a frame"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := c.Decode(data)
		if err != nil {
			return // rejected frames just need to not panic
		}
		enc, err := c.Encode(m)
		if err != nil {
			t.Fatalf("decoded message %T failed to re-encode: %v", m, err)
		}
		m2, err := c.Decode(enc)
		if err != nil {
			t.Fatalf("re-encoded %T failed to decode: %v", m, err)
		}
		if m.Type() != m2.Type() || m.Instance() != m2.Instance() {
			t.Fatalf("round trip changed identity: %+v vs %+v", m, m2)
		}
		enc2, err := c.Encode(m2)
		if err != nil {
			t.Fatalf("second re-encode of %T: %v", m2, err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encode∘decode not identity on wire form for %T:\n% x\n% x", m, enc, enc2)
		}
	})
}
