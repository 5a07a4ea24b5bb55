package wal_test

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mcpaxos/internal/wal"
)

// buildSegment returns the raw bytes of a freshly written single-segment
// log containing a few records, for seeding the fuzzer with realistic
// prefixes.
func buildSegment(t interface{ TempDir() string }) []byte {
	dir := t.TempDir()
	w, err := wal.Open(dir, wal.Options{})
	if err != nil {
		panic(err)
	}
	w.Put("alpha", uint64(1))
	w.PutAll(map[string]any{"beta": uint64(2), "gamma": uint64(3)})
	w.Put("alpha", uint64(4))
	w.Drop([]string{"beta"})
	w.Close()
	seg, err := wal.NewestSegment(dir)
	if err != nil {
		panic(err)
	}
	data, err := os.ReadFile(seg)
	if err != nil {
		panic(err)
	}
	return data
}

// refScan is an independent reimplementation of the replay contract: the
// index a correct reader may return is exactly the records of the longest
// prefix of intact frames (sane length, matching CRC32-Castagnoli,
// decodable payload), applied in order — a deletion marker removes its key.
// FuzzWALReplay checks Open against it. (Open refuses, rather than
// truncates, at an intact frame that does not decode; the fuzz target
// accepts a refusal, so stopping there is the weaker, compatible claim.)
func refScan(data []byte) map[string]any {
	table := crc32.MakeTable(crc32.Castagnoli)
	out := make(map[string]any)
	off := 0
	for off+8 <= len(data) {
		length := binary.BigEndian.Uint32(data[off : off+4])
		if length == 0 || length > 16<<20 || int(length) > len(data)-off-8 {
			break
		}
		payload := data[off+8 : off+8+int(length)]
		if crc32.Checksum(payload, table) != binary.BigEndian.Uint32(data[off+4:off+8]) {
			break
		}
		recs, err := wal.DecodeBatch(payload)
		if err != nil {
			break
		}
		for _, r := range recs {
			if wal.IsTombstone(r.Val) {
				delete(out, r.Key)
			} else {
				out[r.Key] = r.Val
			}
		}
		off += 8 + int(length)
	}
	return out
}

// FuzzWALReplay feeds arbitrary bytes — truncated logs, bit-flipped logs,
// pure garbage — to Open as the only segment of a log directory. Replay
// must never panic, and every record it returns must come from an intact
// CRC-checked frame in the longest valid prefix (nothing conjured from a
// corrupt tail).
func FuzzWALReplay(f *testing.F) {
	valid := buildSegment(f)
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail mid-frame
	f.Add(valid[:7])            // torn tail mid-header
	if len(valid) > 10 {
		flipped := append([]byte(nil), valid...)
		flipped[len(flipped)-5] ^= 0x40
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Add([]byte("complete nonsense that is definitely not a wal segment"))
	f.Add(append(append([]byte(nil), valid...), 0xDE, 0xAD, 0xBE, 0xEF))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "00000001.wal"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := wal.Open(dir, wal.Options{})
		if err != nil {
			return // refusing corrupt input is allowed; panicking is not
		}
		defer w.Close()
		want := refScan(data)
		if w.Len() != len(want) {
			t.Fatalf("replayed %d records, valid prefix holds %d", w.Len(), len(want))
		}
		for k, wv := range want {
			gv, ok := w.Get(k)
			if !ok || !reflect.DeepEqual(gv, wv) {
				t.Fatalf("key %q: replayed %v (ok=%v), valid prefix holds %v", k, gv, ok, wv)
			}
		}
		// The open log must be appendable: replay truncated whatever the
		// fuzzer left dangling.
		if err := w.Append([]wal.Rec{{Key: "post-fuzz", Val: uint64(42)}}); err != nil {
			t.Fatalf("append after fuzzy replay: %v", err)
		}
	})
}
