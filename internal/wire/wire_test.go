package wire

import (
	"bytes"
	"math"
	"testing"
)

// TestUvarintCanonical: the reader accepts exactly the encoder's output —
// every value has one spelling, and truncated, overlong and zero-padded
// spellings are refused without consuming input.
func TestUvarintCanonical(t *testing.T) {
	for _, v := range []uint64{0, 1, 0x7f, 0x80, 300, math.MaxUint32, 1 << 63, math.MaxUint64} {
		enc := AppendUvarint(nil, v)
		r := Reader{B: append(enc, 0xAA)}
		if got := r.Uvarint("v"); got != v || r.Err != nil || !bytes.Equal(r.B, []byte{0xAA}) {
			t.Errorf("%d: read %d, err %v, %d bytes left", v, got, r.Err, len(r.B))
		}
	}
	for name, in := range map[string][]byte{
		"empty":       {},
		"truncated":   {0x80},
		"zero-padded": {0x80, 0x00},
		"padded one":  {0x81, 0x80, 0x00},
		"65 bits":     {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
		"11 bytes":    {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01},
	} {
		r := Reader{B: in}
		if got := r.Uvarint("v"); r.Err == nil {
			t.Errorf("%s: read %d, want an error", name, got)
		}
		if len(r.B) != len(in) {
			t.Errorf("%s: a failed read consumed input", name)
		}
	}
}

// TestReaderStickyAndBounded: after a failure every read is a zero-value
// no-op, a forged count is refused before anything is sized by it, and
// Finish rejects trailing bytes.
func TestReaderStickyAndBounded(t *testing.T) {
	r := Reader{B: []byte{0xff, 0xff, 0xff, 0x7f, 1, 2, 3}}
	if cs := r.Cmds(); cs != nil || r.Err == nil {
		t.Fatalf("forged command count: got %d commands, err %v", len(cs), r.Err)
	}
	first := r.Err
	if r.Uvarint("x") != 0 || r.Byte("x") != 0 || r.String("x") != "" || r.Bytes("x") != nil ||
		r.Cmds() != nil || r.Count("x", 1) != 0 {
		t.Error("reads after a failure returned data")
	}
	if r.Finish() != first {
		t.Errorf("Finish = %v, want the first failure %v", r.Finish(), first)
	}

	r = Reader{B: []byte{5, 0}}
	if r.U32("x") != 5 || r.Finish() == nil {
		t.Error("Finish accepted a trailing byte")
	}
	r = Reader{B: AppendUvarint(nil, math.MaxUint32+1)}
	if r.U32("x"); r.Err == nil {
		t.Error("U32 accepted a 33-bit value")
	}
}
