package snapshot

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mcpaxos/internal/wire"
)

func sample() Snapshot {
	return Snapshot{
		Frontier: 128,
		State:    []byte("k1=v1;k2=v2;"),
		Order:    []uint64{9, 4, 1 << 40, 7},
		Replies: []Reply{
			{CmdID: 1<<40 | 3, Inst: 120, Result: "OK"},
			{CmdID: 1<<40 | 4, Inst: 121, Result: ""},
			{CmdID: 2<<40 | 1, Inst: 127, Result: "=v2"},
		},
	}
}

func snapEq(a, b Snapshot) bool {
	if a.Frontier != b.Frontier || !bytes.Equal(a.State, b.State) ||
		len(a.Order) != len(b.Order) || len(a.Replies) != len(b.Replies) {
		return false
	}
	for i := range a.Order {
		if a.Order[i] != b.Order[i] {
			return false
		}
	}
	for i := range a.Replies {
		if a.Replies[i] != b.Replies[i] {
			return false
		}
	}
	return true
}

func TestSnapshotRoundTrip(t *testing.T) {
	// A state past the 32 KiB chunk size earlier builds split blobs at.
	big := Snapshot{Frontier: 7, State: make([]byte, 3*32<<10+17)}
	for i := range big.State {
		big.State[i] = byte(i * 31)
	}
	for name, s := range map[string]Snapshot{
		"sample":          sample(),
		"zero":            {},
		"frontier-only":   {Frontier: 1},
		"one-byte-state":  {Frontier: 3, State: []byte{0}},
		"past-chunk-size": big,
	} {
		t.Run(name, func(t *testing.T) {
			got, err := Decode(Encode(s))
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if !snapEq(s, got) {
				t.Fatalf("round trip mismatch:\n in  %+v\n out %+v", s, got)
			}
		})
	}
}

// goldenSnapshot is sample()'s blob: one frame (length, CRC-32C) around the
// version byte, frontier, state, order and replies. A layout change shows up
// here as a diff of checked-in hex, as TestGoldenRecords pins the WAL's.
const goldenSnapshot = "00 00 00 38 b6 8a 14 0e 02 80 01 0c 6b 31 3d 76 31 3b 6b 32 3d 76 32 3b 04 09 04 80 80 80 80 80 20 07 03 83 80 80 80 80 20 78 02 4f 4b 84 80 80 80 80 20 79 00 81 80 80 80 80 40 7f 03 3d 76 32"

func TestGoldenSnapshot(t *testing.T) {
	want, err := hex.DecodeString(strings.ReplaceAll(goldenSnapshot, " ", ""))
	if err != nil {
		t.Fatal(err)
	}
	if got := Encode(sample()); !bytes.Equal(got, want) {
		t.Errorf("sample() encodes to\n % x\nwant golden\n % x", got, want)
	}
	if got, err := Decode(want); err != nil || !snapEq(got, sample()) {
		t.Errorf("golden decodes to %+v (err %v), want sample()", got, err)
	}
}

// Corruption anywhere in the blob — frame header or payload — must yield an
// error, never a partial snapshot.
func TestDecodeRejectsCorruption(t *testing.T) {
	blob := Encode(sample())
	for i := range blob {
		bad := append([]byte(nil), blob...)
		bad[i] ^= 0x41
		if s, err := Decode(bad); err == nil && !snapEq(s, sample()) {
			t.Fatalf("flip at byte %d decoded to a different snapshot without error", i)
		}
	}
	for cut := 0; cut < len(blob); cut += 7 {
		if _, err := Decode(blob[:cut]); err == nil {
			t.Fatalf("truncation at %d of %d accepted", cut, len(blob))
		}
	}
}

func TestStoreSaveLoad(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := st.Latest(); ok {
		t.Fatal("fresh store has a snapshot")
	}
	s := sample()
	if err := st.Save(s.Frontier, Encode(s)); err != nil {
		t.Fatal(err)
	}
	// Stale saves are ignored; newer ones win and GC the old file.
	if err := st.Save(64, Encode(Snapshot{Frontier: 64})); err != nil {
		t.Fatal(err)
	}
	s2 := sample()
	s2.Frontier = 256
	if err := st.Save(s2.Frontier, Encode(s2)); err != nil {
		t.Fatal(err)
	}

	re, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	blob, frontier, ok := re.Latest()
	if !ok || frontier != 256 {
		t.Fatalf("reopened store: ok=%v frontier=%d, want 256", ok, frontier)
	}
	got, err := Decode(blob)
	if err != nil || !snapEq(s2, got) {
		t.Fatalf("reopened snapshot mismatch: %v", err)
	}
	if files, _ := re.DiskStats(); files != 1 {
		t.Fatalf("DiskStats files = %d after GC, want 1", files)
	}
}

// Crash-point test: a crash mid-save leaves a .tmp orphan (and possibly a
// torn .snap written without rename — simulated here as a corrupt file with
// a newer name). Open must sweep the orphan and fall back to the newest
// valid snapshot.
func TestStoreSweepsCrashArtifacts(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := sample()
	if err := st.Save(s.Frontier, Encode(s)); err != nil {
		t.Fatal(err)
	}
	// Crash artifacts: an orphaned .tmp from an interrupted later save, and
	// a corrupt newer .snap (torn write that somehow got its final name).
	if err := os.WriteFile(filepath.Join(dir, "0000000000000512.snap.tmp"),
		[]byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "0000000000000999.snap"),
		[]byte("garbage not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if re.Swept() != 1 {
		t.Fatalf("Swept = %d, want 1", re.Swept())
	}
	if _, err := os.Stat(filepath.Join(dir, "0000000000000512.snap.tmp")); !os.IsNotExist(err) {
		t.Fatal("orphaned .tmp survived open")
	}
	blob, frontier, ok := re.Latest()
	if !ok || frontier != s.Frontier {
		t.Fatalf("fallback load: ok=%v frontier=%d, want %d", ok, frontier, s.Frontier)
	}
	if got, err := Decode(blob); err != nil || !snapEq(s, got) {
		t.Fatalf("fallback snapshot mismatch: %v", err)
	}
}

// TestStoreRefusesUnreadableSnapshots: acceptors drop votes below the
// learners' watermark, so a store that opens empty over a snapshot it cannot
// read loses acked state. Whatever a directory's only .snap holds — garbage,
// an intact frame of an unknown version, a blob in an earlier build's chunked
// form — OpenStore must refuse it, as wal.Open refuses an unreadable index.
func TestStoreRefusesUnreadableSnapshots(t *testing.T) {
	unknown := Encode(sample())
	unknown[wire.FrameHeader] = 0x7f
	wire.SealFrame(unknown)
	parent, err := os.ReadFile(filepath.Join("testdata", "parent-v1.snap"))
	if err != nil {
		t.Fatal(err)
	}
	for name, blob := range map[string][]byte{
		"garbage":         []byte("garbage not a snapshot"),
		"unknown version": unknown,
		"parent format":   parent,
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "0000000000000128.snap"), blob, 0o644); err != nil {
			t.Fatal(err)
		}
		if st, err := OpenStore(dir); err == nil {
			_, frontier, ok := st.Latest()
			t.Errorf("%s: OpenStore succeeded (snapshot ok=%v frontier=%d), want an error", name, ok, frontier)
		}
	}
}

func TestMemoryOnlyStore(t *testing.T) {
	st, err := OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save(4, Encode(Snapshot{Frontier: 4})); err != nil {
		t.Fatal(err)
	}
	if _, frontier, ok := st.Latest(); !ok || frontier != 4 {
		t.Fatalf("memory store Latest: ok=%v frontier=%d", ok, frontier)
	}
	if files, bytes := st.DiskStats(); files != 1 || bytes == 0 {
		t.Fatalf("memory store DiskStats = %d files %d bytes", files, bytes)
	}
}

// FuzzSnapshotReplay: arbitrary bytes fed to Decode must never panic, and
// any blob Decode accepts must re-encode to a blob that decodes to the same
// snapshot — a corrupt or truncated blob can never install partially.
func FuzzSnapshotReplay(f *testing.F) {
	f.Add(Encode(sample()))
	f.Add(Encode(Snapshot{}))
	f.Add(Encode(Snapshot{Frontier: 9, State: make([]byte, 300), Order: []uint64{0, 1 << 63}}))
	f.Add(wire.SealFrame([]byte{0, 0, 0, 0, 0, 0, 0, 0, version, 0x80, 0x00, 0, 0, 0}))
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 0})
	f.Add([]byte{})
	if parent, err := os.ReadFile(filepath.Join("testdata", "parent-v1.snap")); err == nil {
		f.Add(parent)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			if !snapEq(s, Snapshot{}) {
				t.Fatalf("failed decode leaked partial state: %+v", s)
			}
			return
		}
		again, err := Decode(Encode(s))
		if err != nil {
			t.Fatalf("re-encoded accepted snapshot failed to decode: %v", err)
		}
		if !snapEq(s, again) {
			t.Fatalf("re-encode changed snapshot:\n in  %+v\n out %+v", s, again)
		}
	})
}
