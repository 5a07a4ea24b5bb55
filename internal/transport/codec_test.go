package transport

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"mcpaxos/internal/ballot"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
)

func roundtrip(t *testing.T, c Codec, m msg.Message) msg.Message {
	t.Helper()
	data, err := c.Encode(m)
	if err != nil {
		t.Fatalf("encode %T: %v", m, err)
	}
	out, err := c.Decode(data)
	if err != nil {
		t.Fatalf("decode %T: %v", m, err)
	}
	return out
}

// valEq compares optional c-structs: nil differs from ⊥, everything else
// compares by command sequence.
func valEq(a, b cstruct.CStruct) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	return slices.EqualFunc(a.Commands(), b.Commands(), cstruct.Cmd.Equal)
}

func nodeIDsEq(a, b []msg.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// msgEq compares two protocol messages semantically (c-structs by command
// sequence, nil and empty slices identified).
func msgEq(a, b msg.Message) bool {
	switch am := a.(type) {
	case msg.Propose:
		bm, ok := b.(msg.Propose)
		return ok && am.Inst == bm.Inst && am.Cmd.Equal(bm.Cmd) &&
			nodeIDsEq(am.AccQuorum, bm.AccQuorum) && am.Seq == bm.Seq && am.HasSeq == bm.HasSeq &&
			am.Client == bm.Client && am.Req == bm.Req
	case msg.P1a:
		bm, ok := b.(msg.P1a)
		return ok && am == bm
	case msg.P1bMulti:
		bm, ok := b.(msg.P1bMulti)
		if !ok || am.Rnd != bm.Rnd || am.Acc != bm.Acc || am.Shard != bm.Shard ||
			len(am.Votes) != len(bm.Votes) {
			return false
		}
		for i := range am.Votes {
			if am.Votes[i].Inst != bm.Votes[i].Inst || am.Votes[i].VRnd != bm.Votes[i].VRnd ||
				!valEq(am.Votes[i].VVal, bm.Votes[i].VVal) {
				return false
			}
		}
		return true
	case msg.P2a:
		bm, ok := b.(msg.P2a)
		return ok && am.Inst == bm.Inst && am.Rnd == bm.Rnd && am.Coord == bm.Coord &&
			valEq(am.Val, bm.Val)
	case msg.P2b:
		bm, ok := b.(msg.P2b)
		return ok && am.Inst == bm.Inst && am.Rnd == bm.Rnd && am.Acc == bm.Acc &&
			am.Again == bm.Again && valEq(am.Val, bm.Val)
	case msg.Stale:
		bm, ok := b.(msg.Stale)
		return ok && am == bm
	case msg.Heartbeat:
		bm, ok := b.(msg.Heartbeat)
		return ok && am == bm
	case msg.Reply:
		bm, ok := b.(msg.Reply)
		return ok && am == bm
	case msg.CatchupReq:
		bm, ok := b.(msg.CatchupReq)
		return ok && am == bm
	case msg.CatchupResp:
		bm, ok := b.(msg.CatchupResp)
		return ok && am.Learner == bm.Learner && am.From == bm.From &&
			am.Frontier == bm.Frontier && am.Floor == bm.Floor && slices.EqualFunc(am.Cmds, bm.Cmds, cstruct.Cmd.Equal)
	case msg.Fill:
		bm, ok := b.(msg.Fill)
		return ok && am == bm
	case msg.Done:
		bm, ok := b.(msg.Done)
		return ok && am == bm
	case msg.SnapReq:
		bm, ok := b.(msg.SnapReq)
		return ok && am == bm
	case msg.SnapResp:
		bm, ok := b.(msg.SnapResp)
		return ok && am.Learner == bm.Learner && am.Frontier == bm.Frontier &&
			am.Crc == bm.Crc && am.Seq == bm.Seq && am.Total == bm.Total &&
			bytes.Equal(am.Chunk, bm.Chunk)
	default:
		return false
	}
}

// codecCases enumerates every msg.Type with its edge cases: nil vs ⊥
// c-structs, empty vote sets, zero-length results, max-varint counters.
func codecCases(set cstruct.Set) []struct {
	name string
	m    msg.Message
} {
	b := ballot.Ballot{MCount: 1, MinCount: 2, ID: 3, RType: 4}
	bMax := ballot.Ballot{MCount: math.MaxUint32, MinCount: math.MaxUint32,
		ID: math.MaxUint32, RType: math.MaxUint32}
	val := cstruct.AppendSeq(set.Bottom(), []cstruct.Cmd{
		{ID: 9, Key: "k", Op: cstruct.OpWrite, Payload: []byte("p")},
	})
	return []struct {
		name string
		m    msg.Message
	}{
		{"propose", msg.Propose{Inst: 7, Cmd: cstruct.Cmd{ID: 5, Key: "k", Op: cstruct.OpWrite, Payload: []byte("v")},
			AccQuorum: []msg.NodeID{200, 201}}},
		{"propose-seq-max", msg.Propose{Inst: math.MaxUint64, Cmd: cstruct.Cmd{ID: math.MaxUint64},
			Seq: math.MaxUint64, HasSeq: true}},
		{"propose-empty-cmd", msg.Propose{Cmd: cstruct.Cmd{}}},
		{"propose-client", msg.Propose{Cmd: cstruct.Cmd{ID: 1<<40 | 3, Key: "k"},
			Client: 1, Req: 3}},
		{"propose-client-max", msg.Propose{Cmd: cstruct.Cmd{ID: math.MaxUint64},
			Client: math.MaxUint32, Req: math.MaxUint64}},
		{"propose-client-zero-req", msg.Propose{Cmd: cstruct.Cmd{ID: 1 << 40}, Client: 1}},
		{"propose-client-stamped", msg.Propose{Cmd: cstruct.Cmd{ID: 1<<40 | 9, Key: "k"},
			Seq: 42, HasSeq: true, Client: 1, Req: 9}},
		{"1a", msg.P1a{Inst: 1, Rnd: b, Coord: 100, Shard: 3}},
		{"1a-max", msg.P1a{Inst: math.MaxUint64, Rnd: bMax, Coord: math.MaxUint32, Shard: math.MaxUint32}},
		{"1b-multi-empty", msg.P1bMulti{Rnd: b, Acc: 201, Shard: 1}},
		{"1b-multi", msg.P1bMulti{Rnd: b, Acc: 201, Shard: 1, Votes: []msg.InstVote{
			{Inst: 0, VRnd: b, VVal: val},
			{Inst: 4, VRnd: ballot.Zero},
			{Inst: math.MaxUint64, VRnd: bMax, VVal: set.Bottom()},
		}}},
		{"1b-multi-nil-vote", msg.P1bMulti{Rnd: b, Acc: 201, Votes: []msg.InstVote{
			{Inst: 2, VRnd: b},
		}}},
		{"1b-multi-max", msg.P1bMulti{Rnd: bMax, Acc: math.MaxUint32, Shard: math.MaxUint32}},
		{"2a-val", msg.P2a{Inst: 3, Rnd: b, Coord: 102, Val: val}},
		{"2a-bottom", msg.P2a{Inst: 3, Rnd: b, Coord: 104, Val: set.Bottom()}},
		{"2a-nil-val", msg.P2a{Inst: 3, Rnd: b, Coord: 104}},
		{"2b", msg.P2b{Inst: 4, Rnd: b, Acc: 202, Val: val}},
		{"2b-nil-val", msg.P2b{Inst: 4, Rnd: b, Acc: 202}},
		{"2b-bottom", msg.P2b{Inst: 4, Rnd: b, Acc: 202, Val: set.Bottom()}},
		{"2b-again", msg.P2b{Inst: 4, Rnd: b, Acc: 202, Val: val, Again: true}},
		{"stale", msg.Stale{Inst: 5, Acc: 200, Rnd: b, Got: ballot.Zero}},
		{"heartbeat", msg.Heartbeat{From: 100, Epoch: math.MaxUint64}},
		{"reply", msg.Reply{CmdID: 1<<40 | 3, From: 300, Inst: 11, Result: "OK"}},
		{"reply-empty-result", msg.Reply{CmdID: math.MaxUint64, From: math.MaxUint32, Inst: math.MaxUint64}},
		{"catchup-req", msg.CatchupReq{Learner: 300, From: 42}},
		{"catchup-req-max", msg.CatchupReq{Learner: math.MaxUint32, From: math.MaxUint64, Max: math.MaxUint32}},
		{"catchup-resp-empty", msg.CatchupResp{Learner: 301, From: 42, Frontier: 42}},
		{"catchup-resp", msg.CatchupResp{Learner: 301, From: 42, Frontier: 45, Cmds: []cstruct.Cmd{
			{ID: 9, Key: "k", Op: cstruct.OpWrite, Payload: []byte("p")},
			{ID: 10, Key: "q", Op: cstruct.OpRead},
		}}},
		{"fill", msg.Fill{Inst: 17, Learner: 300}},
		{"fill-max", msg.Fill{Inst: math.MaxUint64, Learner: math.MaxUint32}},
		{"fill-idle", msg.Fill{Inst: 17, Learner: 300, Idle: true}},
		{"catchup-resp-floor", msg.CatchupResp{Learner: 301, From: 3, Frontier: 96, Floor: 64}},
		{"done", msg.Done{From: 300, Frontier: 128, Watermark: 96}},
		{"done-zero", msg.Done{From: 301}},
		{"done-max", msg.Done{From: math.MaxUint32, Frontier: math.MaxUint64, Watermark: math.MaxUint64}},
		{"snap-req", msg.SnapReq{Learner: 300, From: 12}},
		{"snap-req-max", msg.SnapReq{Learner: math.MaxUint32, From: math.MaxUint64}},
		{"snap-resp", msg.SnapResp{Learner: 301, Frontier: 128, Crc: 0xdeadbeef,
			Seq: 1, Total: 3, Chunk: []byte{0x00, 0x41, 0xff}}},
		{"snap-resp-refusal", msg.SnapResp{Learner: 301}},
		{"snap-resp-max", msg.SnapResp{Learner: math.MaxUint32, Frontier: math.MaxUint64,
			Crc: math.MaxUint32, Seq: math.MaxUint32, Total: math.MaxUint32}},
	}
}

// TestCodecTableRoundTrip drives every message type and edge case through
// the codec: the decoded message must equal the original, and the encoding
// must be canonical (encode∘decode is the identity on the wire form).
func TestCodecTableRoundTrip(t *testing.T) {
	set := cstruct.SingleValueSet{}
	c := Codec{Set: set}
	for _, tc := range codecCases(set) {
		enc, err := c.Encode(tc.m)
		if err != nil {
			t.Fatalf("%s: encode: %v", tc.name, err)
		}
		if enc[0] != verBinary {
			t.Fatalf("%s: version byte %#x", tc.name, enc[0])
		}
		out, err := c.Decode(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		if !msgEq(tc.m, out) {
			t.Errorf("%s: mangled:\n in  %+v\n out %+v", tc.name, tc.m, out)
		}
		enc2, err := c.Encode(out)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", tc.name, err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Errorf("%s: encode∘decode not identity on wire form:\n% x\n% x", tc.name, enc, enc2)
		}
	}
}

func TestCodecRoundtripAllTypes(t *testing.T) {
	set := cstruct.NewHistorySet(cstruct.KeyConflict)
	c := Codec{Set: set}
	b := ballot.Ballot{MCount: 1, MinCount: 2, ID: 3, RType: 4}
	h := cstruct.AppendSeq(set.Bottom(), []cstruct.Cmd{
		{ID: 1, Key: "x", Op: cstruct.OpWrite, Payload: []byte("v")},
		{ID: 2, Key: "y"},
	})

	if got := roundtrip(t, c, msg.Propose{Inst: 7, Cmd: cstruct.Cmd{ID: 5, Key: "k"},
		AccQuorum: []msg.NodeID{200, 201}}).(msg.Propose); got.Cmd.ID != 5 ||
		got.Inst != 7 || len(got.AccQuorum) != 2 {
		t.Errorf("Propose mangled: %+v", got)
	}
	if got := roundtrip(t, c, msg.P1a{Rnd: b, Coord: 100, Shard: 3}).(msg.P1a); got.Rnd != b ||
		got.Coord != 100 || got.Shard != 3 {
		t.Errorf("P1a mangled: %+v", got)
	}
	p1b := roundtrip(t, c, msg.P1bMulti{Rnd: b, Acc: 200, Votes: []msg.InstVote{
		{Inst: 2, VRnd: b, VVal: h}}}).(msg.P1bMulti)
	if len(p1b.Votes) != 1 || p1b.Votes[0].VVal == nil || !set.Equal(p1b.Votes[0].VVal, h) {
		t.Errorf("P1bMulti value mangled: %+v", p1b.Votes)
	}
	p2a := roundtrip(t, c, msg.P2a{Rnd: b, Coord: 100, Val: h}).(msg.P2a)
	if !set.Equal(p2a.Val, h) {
		t.Errorf("P2a mangled: %+v", p2a)
	}
	p2b := roundtrip(t, c, msg.P2b{Rnd: b, Acc: 201, Val: h}).(msg.P2b)
	if !set.Equal(p2b.Val, h) {
		t.Errorf("P2b mangled: %+v", p2b)
	}
	st := roundtrip(t, c, msg.Stale{Acc: 200, Rnd: b, Got: ballot.Zero}).(msg.Stale)
	if st.Rnd != b {
		t.Errorf("Stale mangled: %+v", st)
	}
	hb := roundtrip(t, c, msg.Heartbeat{From: 100, Epoch: 9}).(msg.Heartbeat)
	if hb.From != 100 || hb.Epoch != 9 {
		t.Errorf("Heartbeat mangled: %+v", hb)
	}
	rp := roundtrip(t, c, msg.Reply{CmdID: 1<<40 | 7, From: 300, Inst: 13, Result: "OK"}).(msg.Reply)
	if rp.CmdID != 1<<40|7 || rp.From != 300 || rp.Inst != 13 || rp.Result != "OK" {
		t.Errorf("Reply mangled: %+v", rp)
	}
}

func TestCodecMultiPromise(t *testing.T) {
	set := cstruct.SingleValueSet{}
	c := Codec{Set: set}
	b := ballot.Ballot{MinCount: 1, ID: 2}
	in := msg.P1bMulti{Rnd: b, Acc: 200, Votes: []msg.InstVote{
		{Inst: 0, VRnd: b, VVal: cstruct.NewSingleValue(cstruct.Cmd{ID: 4})},
		{Inst: 1, VRnd: ballot.Zero, VVal: set.Bottom()},
	}}
	out := roundtrip(t, c, in).(msg.P1bMulti)
	if len(out.Votes) != 2 || out.Acc != 200 {
		t.Fatalf("P1bMulti mangled: %+v", out)
	}
	if !out.Votes[0].VVal.Contains(cstruct.Cmd{ID: 4}) {
		t.Errorf("vote value lost")
	}
}

func TestCodecBottomValue(t *testing.T) {
	set := cstruct.NewHistorySet(cstruct.KeyConflict)
	c := Codec{Set: set}
	p2a := roundtrip(t, c, msg.P2a{Rnd: ballot.Zero, Coord: 1, Val: set.Bottom()}).(msg.P2a)
	if p2a.Val == nil || p2a.Val.Len() != 0 {
		t.Errorf("⊥ must survive the trip, got %v", p2a.Val)
	}
	p2b := roundtrip(t, c, msg.P2b{Rnd: ballot.Zero, Acc: 1, Val: set.Bottom()}).(msg.P2b)
	if p2b.Val == nil || p2b.Val.Len() != 0 {
		t.Errorf("⊥ must survive the trip, got %v", p2b.Val)
	}
	// nil stays nil.
	if p2a := roundtrip(t, c, msg.P2a{Rnd: ballot.Zero, Coord: 1}).(msg.P2a); p2a.Val != nil {
		t.Errorf("nil 2a value must stay nil")
	}
	if p2b := roundtrip(t, c, msg.P2b{Rnd: ballot.Zero, Acc: 1}).(msg.P2b); p2b.Val != nil {
		t.Errorf("nil 2b value must stay nil")
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	c := Codec{Set: cstruct.SingleValueSet{}}
	cases := map[string][]byte{
		"empty":            {},
		"unknown version":  []byte("not a frame"),
		"truncated binary": {verBinary, byte(msg.TP1a)},
		"bad type":         {verBinary, 0xEE, 0},
		"bad flags":        {verBinary, byte(msg.THeartbeat), 0xFF, 0, 0},
		"overlong varint":  {verBinary, byte(msg.THeartbeat), 0, 0x81, 0x00, 0},
		// Bit 1 of a 2a's flags was the fast-round "any value" mark; no
		// message sets it any more.
		"retired 2a flag": {verBinary, byte(msg.TP2a), 0x02, 0x03, 0x01, 0x02, 0x03, 0x04, 0x68},
		// A 1b without the multi flag was the single-instance promise only
		// the simulator-only engine sends; it never crosses a socket.
		"single-instance 1b": unhex(t, "02 03 01 02 01 02 03 04 c8 01 01 02 03 04 01 09 01 6b 02 01 70"),
	}
	for name, data := range cases {
		if _, err := c.Decode(data); err == nil {
			t.Errorf("%s must fail to decode", name)
		}
	}
	// Trailing bytes after a valid message are corruption, not padding.
	enc, err := c.Encode(msg.Heartbeat{From: 1, Epoch: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Decode(append(enc, 0)); err == nil {
		t.Errorf("trailing bytes must fail to decode")
	}
}
