package transport

import (
	"testing"

	"mcpaxos/internal/ballot"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
)

// benchMsgs is the per-type workload for the codec benchmarks: the hot
// protocol messages with representative payloads (a proposal carrying a
// 16-byte command, an accept carrying a value, a multi-instance promise
// with two votes).
func benchMsgs() []struct {
	name string
	m    msg.Message
} {
	b := ballot.Ballot{MCount: 1, MinCount: 2, ID: 3, RType: 4}
	sv := cstruct.NewSingleValue(cstruct.Cmd{ID: 9, Key: "key-12", Op: cstruct.OpWrite,
		Payload: []byte("0123456789abcdef")})
	return []struct {
		name string
		m    msg.Message
	}{
		{"Propose", msg.Propose{Cmd: cstruct.Cmd{ID: 5, Key: "key-12", Op: cstruct.OpWrite,
			Payload: []byte("0123456789abcdef")}, Seq: 12, HasSeq: true}},
		{"P1a", msg.P1a{Inst: 1, Rnd: b, Coord: 100, Shard: 3}},
		{"P1bMulti", msg.P1bMulti{Rnd: b, Acc: 201, Shard: 1, Votes: []msg.InstVote{
			{Inst: 0, VRnd: b, VVal: sv},
			{Inst: 4, VRnd: ballot.Zero},
		}}},
		{"P2a", msg.P2a{Inst: 3, Rnd: b, Coord: 102, Val: sv}},
		{"P2b", msg.P2b{Inst: 4, Rnd: b, Acc: 202, Val: sv}},
		{"Stale", msg.Stale{Rnd: b}},
		{"Heartbeat", msg.Heartbeat{From: 100, Epoch: 9}},
		{"Reply", msg.Reply{CmdID: 1<<40 | 3, From: 300, Inst: 11, Result: "OK"}},
	}
}

func benchEncode(b *testing.B, c Codec) {
	for _, tc := range benchMsgs() {
		b.Run(tc.name, func(b *testing.B) {
			buf, err := c.AppendEncode(nil, tc.m)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.SetBytes(int64(len(buf)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf, err = c.AppendEncode(buf[:0], tc.m)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchDecode(b *testing.B, c Codec) {
	for _, tc := range benchMsgs() {
		b.Run(tc.name, func(b *testing.B) {
			data, err := c.Encode(tc.m)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Decode(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEncodeBinary(b *testing.B) { benchEncode(b, Codec{Set: cstruct.SingleValueSet{}}) }
func BenchmarkDecodeBinary(b *testing.B) { benchDecode(b, Codec{Set: cstruct.SingleValueSet{}}) }

// TestEncodeAllocs pins the binary encoder's allocation budget: appending
// any message type into a warm caller-owned buffer allocates nothing
// (SingleValue values are encoded without their Commands() flattening, and
// History.Commands returns its backing sequence).
func TestEncodeAllocs(t *testing.T) {
	c := Codec{Set: cstruct.SingleValueSet{}}
	for _, tc := range benchMsgs() {
		buf, err := c.AppendEncode(nil, tc.m)
		if err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(100, func() {
			var err error
			buf, err = c.AppendEncode(buf[:0], tc.m)
			if err != nil {
				t.Fatal(err)
			}
		})
		if got > 0 {
			t.Errorf("%s: %v allocs/op on warm encode, want 0", tc.name, got)
		}
	}
}

// TestDecodeAllocs pins the decoder's allocation budget for a vote: a 2a or
// 2b carrying a one-command value costs the command's key and payload copies,
// the boxed SingleValue and the boxed message — the value is read straight
// into its SingleValue, with no command slice and no boxed ⊥ beside it.
func TestDecodeAllocs(t *testing.T) {
	c := Codec{Set: cstruct.SingleValueSet{}}
	for _, tc := range benchMsgs() {
		if tc.name != "P2a" && tc.name != "P2b" {
			continue
		}
		data, err := c.Encode(tc.m)
		if err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(100, func() {
			if _, err := c.Decode(data); err != nil {
				t.Fatal(err)
			}
		})
		if got != 4 {
			t.Errorf("%s: %v allocs per decode, want 4", tc.name, got)
		}
	}
}
