package wal

import (
	"bytes"
	"encoding/hex"
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"mcpaxos/internal/ballot"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/storage"
	"mcpaxos/internal/wire"
)

var (
	gb    = ballot.Ballot{MCount: 1, MinCount: 2, ID: 3, RType: 4}
	gbMax = ballot.Ballot{MCount: math.MaxUint32, MinCount: math.MaxUint32,
		ID: math.MaxUint32, RType: math.MaxUint32}
	gcmd = cstruct.Cmd{ID: 9, Key: "k", Op: cstruct.OpWrite, Payload: []byte("p")}
)

// goldenRecords is the checked-in byte form of the record vocabulary: whole
// frames (length, CRC-32C, version byte, record list) beside the batch each
// one holds. Every vocabulary type appears, at ordinary and at max-varint
// values; "vote-history" is the multi-command value a core or fast acceptor
// persists under storage.KeyVote, "accept" the two-record batch a classic
// acceptor writes per accepted instance.
var goldenRecords = []struct {
	name string
	hex  string
	recs []Rec
}{
	{"uint32", "00 00 00 0b 97 46 b3 ae 01 01 06 6d 63 6f 75 6e 74 01 03",
		[]Rec{{storage.KeyMCount, uint32(3)}}},
	{"uint32-max", "00 00 00 0f 73 1b dc 99 01 01 06 6d 63 6f 75 6e 74 01 ff ff ff ff 0f",
		[]Rec{{storage.KeyMCount, uint32(math.MaxUint32)}}},
	{"uint64", "00 00 00 0b 2b 16 77 67 01 01 05 66 6c 6f 6f 72 02 ac 02",
		[]Rec{{storage.KeyFloor, uint64(300)}}},
	{"uint64-max", "00 00 00 15 df bd ea e9 01 01 07 6d 61 78 69 6e 73 74 02 ff ff ff ff ff ff ff ff ff 01",
		[]Rec{{storage.KeyMaxInst, uint64(math.MaxUint64)}}},
	{"ballot", "00 00 00 0b 82 11 83 e7 01 01 03 72 6e 64 03 01 02 03 04",
		[]Rec{{storage.KeyRnd, gb}}},
	{"ballot-max", "00 00 00 1b 6f a9 64 da 01 01 03 72 6e 64 03 ff ff ff ff 0f ff ff ff ff 0f ff ff ff ff 0f ff ff ff ff 0f",
		[]Rec{{storage.KeyRnd, gbMax}}},
	{"vote", "00 00 00 16 60 b3 9a 98 01 01 06 76 6f 74 65 2f 37 04 07 01 02 03 04 01 09 01 6b 02 01 70",
		[]Rec{{"vote/7", storage.VoteRec{Inst: 7, VRnd: gb, Cmds: []cstruct.Cmd{gcmd}}}}},
	{"vote-nil-cmds", "00 00 00 10 7f 89 5f 95 01 01 06 76 6f 74 65 2f 38 04 08 01 02 03 04 00",
		[]Rec{{"vote/8", storage.VoteRec{Inst: 8, VRnd: gb}}}},
	{"vote-history", "00 00 00 20 d4 d0 4c 9a 01 01 04 76 6f 74 65 04 00 01 02 03 04 03 09 01 6b 02 01 70 0a 01 71 01 00 0b 01 6b 02 02 00 ff",
		[]Rec{{storage.KeyVote, storage.VoteRec{VRnd: gb, Cmds: []cstruct.Cmd{
			gcmd, {ID: 10, Key: "q", Op: cstruct.OpRead}, {ID: 11, Key: "k", Op: cstruct.OpWrite, Payload: []byte{0, 0xff}},
		}}}}},
	{"vote-max", "00 00 00 49 f9 55 97 9b 01 01 19 76 6f 74 65 2f 31 38 34 34 36 37 34 34 30 37 33 37 30 39 35 35 31 36 31 35 04 ff ff ff ff ff ff ff ff ff 01 ff ff ff ff 0f ff ff ff ff 0f ff ff ff ff 0f ff ff ff ff 0f 01 ff ff ff ff ff ff ff ff ff 01 00 ff 00",
		[]Rec{{"vote/18446744073709551615", storage.VoteRec{Inst: math.MaxUint64, VRnd: gbMax,
			Cmds: []cstruct.Cmd{{ID: math.MaxUint64, Op: cstruct.OpKind(255)}}}}}},
	{"deleted", "00 00 00 0a a2 82 c4 92 01 01 06 76 6f 74 65 2f 37 00",
		[]Rec{{"vote/7", tombstone{}}}},
	{"accept", "00 00 00 20 d4 b8 69 c7 01 02 06 76 6f 74 65 2f 37 04 07 01 02 03 04 01 09 01 6b 02 01 70 07 6d 61 78 69 6e 73 74 02 07",
		[]Rec{
			{"vote/7", storage.VoteRec{Inst: 7, VRnd: gb, Cmds: []cstruct.Cmd{gcmd}}},
			{storage.KeyMaxInst, uint64(7)},
		}},
	{"drop", "00 00 00 15 52 2f ea 00 01 03 06 76 6f 74 65 2f 31 00 07 74 61 6c 6c 79 2f 31 00 00 00",
		[]Rec{{"vote/1", tombstone{}}, {"tally/1", tombstone{}}, {"", tombstone{}}}},
}

// parentTallies are frames an earlier build wrote for an acceptor's partial 2a
// tallies (tagTally: Inst, Rnd, counted Coords, Cmds — ordinary, all-zero and
// max-varint). This build never writes one, so they are pinned in the decode
// direction only: each reads as the deletion of its key.
var parentTallies = []struct{ key, hex string }{
	{"tally/5", "00 00 00 1a 6b 08 74 8a 01 01 07 74 61 6c 6c 79 2f 35 05 05 01 02 03 04 02 64 66 01 09 01 6b 02 01 70"},
	{"tally/0", "00 00 00 12 7d bb c2 0d 01 01 07 74 61 6c 6c 79 2f 30 05 00 00 00 00 00 00 00"},
	{"tally/1", "00 00 00 30 f5 58 0c 99 01 01 07 74 61 6c 6c 79 2f 31 05 ff ff ff ff ff ff ff ff ff 01 ff ff ff ff 0f ff ff ff ff 0f ff ff ff ff 0f ff ff ff ff 0f 01 ff ff ff ff 0f 00"},
}

// golden returns the named goldenRecords entry's frame and records.
func golden(t testing.TB, name string) ([]byte, []Rec) {
	t.Helper()
	for _, g := range goldenRecords {
		if g.name == name {
			return unhex(t, g.hex), g.recs
		}
	}
	t.Fatalf("no golden record %q", name)
	return nil, nil
}

// gobStream opens the payload a gob-era build wrote: what an old log
// directory holds where this build expects a version byte.
const gobStream = "\x0c\xff\x81\x02\x01\x01\x03Rec\x01\xff\x82\x00"

func unhex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(strings.ReplaceAll(s, " ", ""))
	if err != nil {
		t.Fatalf("bad golden hex %q: %v", s, err)
	}
	return b
}

// goldenSnapshot is an index snapshot frame: the "accept" records as of all
// segments below index 5.
const goldenSnapshot = "00 00 00 21 69 d5 68 97 01 05 02 06 76 6f 74 65 2f 37 04 07 01 02 03 04 01 09 01 6b 02 01 70 07 6d 61 78 69 6e 73 74 02 07"

// TestGoldenRecords checks every golden entry in both directions: the frame
// decodes to its records with the very concrete types that were appended,
// and the records encode to exactly the frame.
func TestGoldenRecords(t *testing.T) {
	for _, g := range goldenRecords {
		want := unhex(t, g.hex)
		payload, n, ok := decodeFrame(want)
		if !ok || n != len(want) {
			t.Errorf("%s: golden frame fails its length or CRC check", g.name)
			continue
		}
		got, err := decodeBatch(payload)
		if err != nil {
			t.Errorf("%s: golden frame does not decode: %v", g.name, err)
		} else if !reflect.DeepEqual(got, g.recs) {
			t.Errorf("%s: golden frame decodes to\n %#v\nwant\n %#v", g.name, got, g.recs)
		}
		enc, err := encodeFrame(newFrame(), g.recs)
		if err != nil {
			t.Fatalf("%s: encode: %v", g.name, err)
		}
		if !bytes.Equal(enc, want) {
			t.Errorf("%s: encodes to\n % x\nwant golden\n % x", g.name, enc, want)
		}
	}

	for _, g := range parentTallies {
		frame := unhex(t, g.hex)
		payload, n, ok := decodeFrame(frame)
		if !ok || n != len(frame) {
			t.Errorf("%s: parent tally frame fails its length or CRC check", g.key)
			continue
		}
		got, err := decodeBatch(payload)
		if want := []Rec{{g.key, tombstone{}}}; err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: parent tally frame decodes to %#v (err %v), want a deletion of its key", g.key, got, err)
		}
	}

	// The canonical form has one spelling of "no commands": an empty slice
	// encodes like nil and comes back nil.
	empty := []Rec{{"vote/8", storage.VoteRec{Inst: 8, VRnd: gb, Cmds: []cstruct.Cmd{}}}}
	enc, err := encodeFrame(newFrame(), empty)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := golden(t, "vote-nil-cmds"); !bytes.Equal(enc, want) {
		t.Errorf("empty Cmds encode to\n % x\nwant the nil-Cmds golden\n % x", enc, want)
	}

	// The snapshot form: the same record list behind its since index.
	snap := unhex(t, goldenSnapshot)
	_, accept := golden(t, "accept")
	payload, n, ok := decodeFrame(snap)
	if !ok || n != len(snap) {
		t.Fatal("golden snapshot fails its length or CRC check")
	}
	since, recs, err := decodeSnapshot(payload)
	if err != nil || since != 5 || !reflect.DeepEqual(recs, accept) {
		t.Errorf("golden snapshot decodes to since=%d %#v (err %v)", since, recs, err)
	}
	enc, err = encodeFrame(wire.AppendUvarint(newFrame(), 5), recs)
	if err != nil || !bytes.Equal(enc, snap) {
		t.Errorf("snapshot encodes to\n % x (err %v)\nwant golden\n % x", enc, err, snap)
	}
}

// TestRecordDecodeRejects: what the decoder must refuse.
func TestRecordDecodeRejects(t *testing.T) {
	frame, _ := golden(t, "accept")
	accept := frame[wire.FrameHeader:]
	mut := func(f func(p []byte) []byte) []byte { return f(append([]byte(nil), accept...)) }
	for name, payload := range map[string][]byte{
		"empty":           {},
		"version only":    {recVersion},
		"unknown version": mut(func(p []byte) []byte { p[0] = 0x02; return p }),
		"gob stream":      []byte(gobStream),
		"unknown tag":     mut(func(p []byte) []byte { p[9] = 0x06; return p }),
		"trailing byte":   mut(func(p []byte) []byte { return append(p, 0) }),
		"truncated":       mut(func(p []byte) []byte { return p[:len(p)-1] }),
		"oversized count": {recVersion, 0xff, 0xff, 0xff, 0x7f},
		"count past end":  mut(func(p []byte) []byte { p[1] = 3; return p }),
		"overlong varint": {recVersion, 0x81, 0x00, 0x00, 0x00},
		"wide uint32":     {recVersion, 1, 0, tagUint32, 0x80, 0x80, 0x80, 0x80, 0x10},
	} {
		if recs, err := decodeBatch(payload); err == nil {
			t.Errorf("%s: decoded to %#v, want an error", name, recs)
		}
	}
}

// TestAppendOutsideVocabularyFails: a value the codec has no byte form for
// fails the Append (and so panics a Put) instead of reaching the log.
func TestAppendOutsideVocabularyFails(t *testing.T) {
	w, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append([]Rec{{"k", "a string"}}); err == nil {
		t.Fatal("Append took a string value")
	}
	if _, ok := w.Get("k"); ok {
		t.Error("rejected record reached the index")
	}
	defer func() {
		if recover() == nil {
			t.Error("Put did not panic on a value outside the vocabulary")
		}
	}()
	w.Put("k", int(1))
}

// TestRecordEncodeAllocs pins the record encoder's allocation budget: a
// batch of any vocabulary type appended into a warm buffer allocates
// nothing.
func TestRecordEncodeAllocs(t *testing.T) {
	for _, g := range goldenRecords {
		buf, err := encodeFrame(newFrame(), g.recs)
		if err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(100, func() {
			var err error
			buf, err = encodeFrame(append(buf[:wire.FrameHeader], recVersion), g.recs)
			if err != nil {
				t.Fatal(err)
			}
		})
		if got > 0 {
			t.Errorf("%s: %v allocs/op on warm encode, want 0", g.name, got)
		}
	}
}

// footprint is the heap a decoded record list holds: every slice at its
// capacity, every string at its length. The decoder returns all it built,
// on failure too (the partial list comes back beside the error), so this is
// what decoding allocated — counted exactly rather than read off the
// process-wide allocator, which a fuzz worker's other goroutines share.
func footprint(recs []Rec) uintptr {
	cmds := func(cs []cstruct.Cmd) uintptr {
		n := uintptr(cap(cs)) * unsafe.Sizeof(cstruct.Cmd{})
		for _, c := range cs {
			n += uintptr(len(c.Key) + cap(c.Payload))
		}
		return n
	}
	n := uintptr(cap(recs)) * unsafe.Sizeof(Rec{})
	for _, r := range recs {
		n += uintptr(len(r.Key))
		switch v := r.Val.(type) {
		case storage.VoteRec:
			n += unsafe.Sizeof(v) + cmds(v.Cmds)
		default:
			n += 16 // a boxed counter or ballot
		}
	}
	return n
}

// FuzzRecordRoundTrip feeds arbitrary payloads to the record decoder. It
// must never panic; what it allocates, accepted or not, stays within a
// constant factor of the input's own length (a forged count is refused
// before it is believed); and since the form is canonical, any payload it
// accepts re-encodes to the identical bytes — but for a parent-commit tally
// record, which is read and never written.
func FuzzRecordRoundTrip(f *testing.F) {
	for _, g := range goldenRecords {
		f.Add(unhex(f, g.hex)[wire.FrameHeader:])
	}
	for _, g := range parentTallies {
		f.Add(unhex(f, g.hex)[wire.FrameHeader:])
	}
	f.Add([]byte{})
	f.Add([]byte{recVersion, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{recVersion, 1, 0, tagVote, 0, 0, 0, 0, 0, 0xff, 0xff, 0x03})
	f.Add([]byte(gobStream))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := decodeBatch(data)
		// The densest input is a run of 2-byte tombstone records at 32 heap
		// bytes each, or of 4-byte commands at 56; 64× the input (plus the
		// empty list's slack) covers both and slice growth besides.
		if got, bound := footprint(recs), uintptr(64*len(data)+64); got > bound {
			t.Fatalf("decoding %d bytes built %d bytes of records, bound %d", len(data), got, bound)
		}
		if err != nil {
			return
		}
		enc, err := appendRecs([]byte{recVersion}, recs)
		if err != nil {
			t.Fatalf("decoded records failed to re-encode: %v", err)
		}
		if bytes.Equal(enc, data) {
			return
		}
		// Only a tally record may re-encode differently (as the tombstone it
		// was read as), and then to the same records.
		again, err := decodeBatch(enc)
		if !bytes.Contains(data, []byte{tagTally}) || err != nil || !reflect.DeepEqual(again, recs) {
			t.Fatalf("accepted payload is not canonical:\n in  % x\n out % x", data, enc)
		}
	})
}

// acceptBatch is what a classic acceptor appends per accepted instance: the
// vote (one command, 64-byte payload) and the high-water mark.
func acceptBatch() []Rec {
	return []Rec{
		{"vote/4711", storage.VoteRec{Inst: 4711, VRnd: gb, Cmds: []cstruct.Cmd{
			{ID: 1<<40 | 4711, Key: "k512", Op: cstruct.OpWrite, Payload: bytes.Repeat([]byte("v"), 64)}}}},
		{storage.KeyMaxInst, uint64(4711)},
	}
}

func BenchmarkRecordEncode(b *testing.B) {
	recs := acceptBatch()
	buf, err := encodeFrame(newFrame(), recs)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf, err = encodeFrame(append(buf[:wire.FrameHeader], recVersion), recs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRecordDecode(b *testing.B) {
	frame, err := encodeFrame(newFrame(), acceptBatch())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payload, _, ok := decodeFrame(frame)
		if !ok {
			b.Fatal("frame fails its CRC")
		}
		if _, err := decodeBatch(payload); err != nil {
			b.Fatal(err)
		}
	}
}
