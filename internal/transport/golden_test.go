package transport

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
)

// goldenFrames is the checked-in wire form of fuzzSeeds(), entry for entry:
// the bytes a peer running any build of this wire version must emit and
// accept. They replace the legacy codec as the oracle the encoder is held
// to — a layout change shows up here as a diff of bytes, not as two
// codecs quietly agreeing with each other.
var goldenFrames = []struct{ name, hex string }{
	{"propose-seq", "03 01 08 05 01 6b 00 00 0c"},
	{"propose-client", "03 01 10 83 80 80 80 80 20 01 6b 00 00 01 03"},
	{"propose-client-max", "03 01 10 ff ff ff ff ff ff ff ff ff 01 00 00 00 ff ff ff ff 0f ff ff ff ff ff ff ff ff ff 01"},
	{"propose-client-zero-req", "03 01 10 80 80 80 80 80 20 00 00 00 01 00"},
	{"propose-client-stamped", "03 01 18 89 80 80 80 80 20 01 6b 00 00 2a 01 09"},
	{"1a", "03 02 00 01 01 02 03 04 64 03"},
	{"1b-multi", "03 03 04 01 02 03 04 c9 01 01 02 00 01 02 03 04 01 01 09 01 6b 02 01 70 04 00 00 00 00 00"},
	{"2a", "03 04 01 03 01 02 03 04 66 01 09 01 6b 02 01 70"},
	{"2b", "03 05 01 04 01 02 03 04 ca 01 01 09 01 6b 02 01 70"},
	{"2b-again", "03 05 41 04 01 02 03 04 ca 01 01 09 01 6b 02 01 70"},
	{"2b-ack-hi", "03 05 80 04 00 00 00 00 00 ac 02"},
	{"stale", "03 06 00 01 02 03 04"},
	{"heartbeat", "03 07 00 64 09"},
	{"reply", "03 08 00 83 80 80 80 80 20 ac 02 0b 02 4f 4b"},
	{"catchup-req", "03 09 00 ac 02 2a"},
	{"catchup-resp", "03 0a 00 2a 2c 02 09 01 6b 02 01 70 0a 01 71 00 00"},
	{"catchup-resp-floor", "03 0a 20 03 60 40 00"},
	{"fill", "03 0b 00 11"},
	{"fill-idle", "03 0b 01 11"},
	{"done", "03 0c 00 ac 02 80 01 60"},
	{"snap-req", "03 0d 00 ac 02 0c"},
	{"snap-resp", "03 0e 00 ad 02 80 01 ef fd b6 f5 0d 01 03 03 00 41 ff"},
}

func unhex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(strings.ReplaceAll(s, " ", ""))
	if err != nil {
		t.Fatalf("bad golden hex %q: %v", s, err)
	}
	return b
}

// TestGoldenFrames checks every golden entry in both directions — the
// frame decodes to its message (same concrete type) and the message encodes
// to exactly the frame — and that the table covers every msg.Type.
func TestGoldenFrames(t *testing.T) {
	c := Codec{Set: cstruct.SingleValueSet{}}
	seeds := fuzzSeeds()
	if len(goldenFrames) != len(seeds) {
		t.Fatalf("%d golden frames for %d seeds", len(goldenFrames), len(seeds))
	}
	covered := make(map[msg.Type]bool)
	for i, m := range seeds {
		g := goldenFrames[i]
		want := unhex(t, g.hex)
		got, err := c.Decode(want)
		if err != nil {
			t.Errorf("%s: golden frame does not decode: %v", g.name, err)
		} else if !msgEq(m, got) {
			t.Errorf("%s: golden frame decodes to\n %+v\nwant\n %+v", g.name, got, m)
		}
		enc, err := c.Encode(m)
		if err != nil {
			t.Fatalf("%s: encode: %v", g.name, err)
		}
		if !bytes.Equal(enc, want) {
			t.Errorf("%s: encodes to\n % x\nwant golden\n % x", g.name, enc, want)
		}
		covered[m.Type()] = true
	}
	for typ := msg.TPropose; typ <= msg.TSnapResp; typ++ {
		if !covered[typ] {
			t.Errorf("no golden frame for message type %d", typ)
		}
	}
}

// TestLegacyVersionRejected: version byte 0x01 carried the gob encoding of
// earlier builds, and 0x02 the binary layout before Propose, Stale,
// CatchupReq, CatchupResp and Fill lost their unread fields. Nothing decodes
// either any more — a frame so prefixed gets the unknown-version error,
// whatever follows.
func TestLegacyVersionRejected(t *testing.T) {
	c := Codec{Set: cstruct.SingleValueSet{}}
	for _, v := range []byte{0x01, 0x02} {
		frame := unhex(t, goldenFrames[0].hex)
		frame[0] = v
		_, err := c.Decode(frame)
		if want := fmt.Sprintf("unknown wire version %#x", v); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%#x frame: err = %v, want the unknown-version error", v, err)
		}
	}
}
