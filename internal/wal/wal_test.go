package wal_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mcpaxos/internal/ballot"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/storage"
	"mcpaxos/internal/wal"
)

// The WAL must be a drop-in stable storage for acceptors.
var _ storage.Stable = (*wal.WAL)(nil)

func mustOpen(t *testing.T, dir string, opts wal.Options) *wal.WAL {
	t.Helper()
	w, err := wal.Open(dir, opts)
	if err != nil {
		t.Fatalf("open %s: %v", dir, err)
	}
	return w
}

func TestPutGetSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, wal.Options{})
	w.Put("a", uint64(1))
	w.Put("b", uint64(2))
	w.Put("a", uint64(3)) // overwrite: replay must keep the latest
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, dir, wal.Options{})
	defer r.Close()
	if v, ok := r.Get("a"); !ok || v.(uint64) != 3 {
		t.Errorf("a = %v, %v; want 3", v, ok)
	}
	if v, ok := r.Get("b"); !ok || v.(uint64) != 2 {
		t.Errorf("b = %v, %v; want 2", v, ok)
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d, want 2", r.Len())
	}
}

func TestVoteRecRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, wal.Options{})
	rec := storage.VoteRec{
		Inst: 7,
		VRnd: ballot.Ballot{MCount: 1, MinCount: 2, ID: 3},
		Cmds: []cstruct.Cmd{{ID: 9, Key: "k", Op: cstruct.OpWrite, Payload: []byte{1, 2}}},
	}
	w.PutAll(map[string]any{"vote/7": rec, storage.KeyMaxInst: uint64(7)})
	w.Close()

	r := mustOpen(t, dir, wal.Options{})
	defer r.Close()
	got, ok := r.Get("vote/7")
	if !ok {
		t.Fatal("vote/7 missing after replay")
	}
	grec := got.(storage.VoteRec)
	if grec.Inst != 7 || !grec.VRnd.Equal(rec.VRnd) || len(grec.Cmds) != 1 ||
		grec.Cmds[0].ID != 9 || !bytes.Equal(grec.Cmds[0].Payload, []byte{1, 2}) {
		t.Errorf("replayed VoteRec = %+v, want %+v", grec, rec)
	}
	if hi, ok := r.Get(storage.KeyMaxInst); !ok || hi.(uint64) != 7 {
		t.Errorf("maxinst = %v, %v", hi, ok)
	}
}

func TestWritesAndFsyncAccounting(t *testing.T) {
	w := mustOpen(t, t.TempDir(), wal.Options{})
	defer w.Close()
	w.Put("a", uint64(1))
	w.PutAll(map[string]any{"b": uint64(2), "c": uint64(3)})
	if got := w.Writes(); got != 2 {
		t.Errorf("Writes = %d, want 2 (one per Put/PutAll)", got)
	}
	// One fsync per Put/PutAll.
	if got := w.Fsyncs(); got != 2 {
		t.Errorf("Fsyncs = %d, want 2", got)
	}
	w.ResetWrites()
	w.ResetFsyncs()
	if w.Writes() != 0 || w.Fsyncs() != 0 {
		t.Error("counters not reset")
	}
	if _, ok := w.Get("b"); !ok {
		t.Error("data lost by counter reset")
	}
}

func TestTornTailTruncated(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mangle func(dir string) error
	}{
		{"truncate-mid-frame", func(dir string) error { return wal.TruncateTail(dir, 3) }},
		{"bit-rot", func(dir string) error { return wal.FlipTailByte(dir, 2) }},
		{"garbage-tail", func(dir string) error { return wal.AppendGarbage(dir, []byte("\x00\x00\x00\x09nonsense!")) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			w := mustOpen(t, dir, wal.Options{})
			w.Put("keep", uint64(1))
			w.Put("tail", uint64(2)) // the record the fault destroys (except garbage-tail)
			w.Close()
			if err := tc.mangle(dir); err != nil {
				t.Fatal(err)
			}

			r := mustOpen(t, dir, wal.Options{})
			if v, ok := r.Get("keep"); !ok || v.(uint64) != 1 {
				t.Fatalf("record before torn tail lost: %v, %v", v, ok)
			}
			if tc.name == "garbage-tail" {
				if v, ok := r.Get("tail"); !ok || v.(uint64) != 2 {
					t.Fatalf("intact record dropped: %v, %v", v, ok)
				}
			} else if _, ok := r.Get("tail"); ok {
				t.Fatal("torn record replayed despite bad CRC")
			}
			// The tail was truncated away: appending and reopening again
			// must work and keep both old and new records.
			r.Put("after", uint64(3))
			r.Close()
			r2 := mustOpen(t, dir, wal.Options{})
			defer r2.Close()
			if _, ok := r2.Get("keep"); !ok {
				t.Error("keep lost after re-append")
			}
			if v, ok := r2.Get("after"); !ok || v.(uint64) != 3 {
				t.Errorf("after = %v, %v", v, ok)
			}
		})
	}
}

func TestSegmentRollAndReplay(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, wal.Options{SegmentBytes: 256})
	const n = 100
	for i := 0; i < n; i++ {
		w.Put("k"+strings.Repeat("x", i%7), uint64(i))
	}
	if segs := w.SegmentCount(); segs < 3 {
		t.Fatalf("expected multiple segments, got %d", segs)
	}
	w.Close()

	r := mustOpen(t, dir, wal.Options{SegmentBytes: 256})
	defer r.Close()
	if r.Len() != 7 {
		t.Errorf("Len = %d, want 7 distinct keys", r.Len())
	}
	if v, ok := r.Get("k"); !ok || v.(uint64) != uint64(n-2) {
		// i%7==0 last hit at i=98.
		t.Errorf("k = %v, %v; want %d", v, ok, n-2)
	}
}

func TestSnapshotCompactsAndSurvives(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, wal.Options{SegmentBytes: 128})
	for i := 0; i < 60; i++ {
		w.Put("hot", uint64(i))
	}
	w.Put("cold", uint64(7))
	before := w.SegmentCount()
	if err := w.Snapshot(); err != nil {
		t.Fatal(err)
	}
	after := w.SegmentCount()
	if after >= before {
		t.Errorf("snapshot did not GC segments: %d -> %d", before, after)
	}
	// Records after the snapshot land in the fresh segment.
	w.Put("post", uint64(1))
	w.Close()

	r := mustOpen(t, dir, wal.Options{SegmentBytes: 128})
	defer r.Close()
	for key, want := range map[string]uint64{"hot": 59, "cold": 7, "post": 1} {
		if v, ok := r.Get(key); !ok || v.(uint64) != want {
			t.Errorf("%s = %v, %v; want %d", key, v, ok, want)
		}
	}
}

func TestMidLogCorruptionIsAnError(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, wal.Options{SegmentBytes: 64})
	for i := 0; i < 40; i++ {
		w.Put("k", uint64(i))
	}
	if w.SegmentCount() < 2 {
		t.Fatal("need at least two segments")
	}
	w.Close()
	// Corrupt the FIRST segment: that is not a torn tail and must refuse
	// to open rather than silently drop acknowledged records.
	ents, _ := os.ReadDir(dir)
	var first string
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".wal" {
			first = filepath.Join(dir, e.Name())
			break
		}
	}
	f, err := os.OpenFile(first, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	if _, err := f.ReadAt(b[:], 9); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b[:], 9); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := wal.Open(dir, wal.Options{}); err == nil {
		t.Fatal("Open succeeded on mid-log corruption")
	}
}

func TestInjectedFsyncFailureKillsTheLog(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Open(dir, wal.Options{Sync: wal.FailSyncAfter(2)})
	if err != nil {
		t.Fatal(err)
	}
	w.Put("a", uint64(1))
	w.Put("b", uint64(2))
	if err := w.Append([]wal.Rec{{Key: "c", Val: uint64(3)}}); err == nil {
		t.Fatal("Append succeeded past injected fsync failure")
	}
	// The log is sticky-dead: durability can no longer be promised.
	if err := w.Append([]wal.Rec{{Key: "d", Val: uint64(4)}}); err == nil {
		t.Fatal("Append succeeded on a dead log")
	}
	// Put must panic rather than silently ack.
	defer func() {
		if recover() == nil {
			t.Fatal("Put did not panic on a dead log")
		}
	}()
	w.Put("e", uint64(5))
}

func TestEmptyDirOpens(t *testing.T) {
	w := mustOpen(t, filepath.Join(t.TempDir(), "fresh"), wal.Options{})
	defer w.Close()
	if w.Len() != 0 {
		t.Errorf("fresh log Len = %d", w.Len())
	}
	if _, ok := w.Get("nope"); ok {
		t.Error("Get on empty log returned a record")
	}
}

// TestCorruptionBeforeIntactTailRefusesOpen pins down the torn-tail /
// bit-rot distinction: a torn write can only leave garbage after the bad
// frame, so when intact frames FOLLOW the bad one inside the tail segment,
// truncating would silently drop acknowledged records — Open must refuse.
func TestCorruptionBeforeIntactTailRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, wal.Options{})
	w.Put("a", uint64(1))
	w.Put("b", uint64(2))
	w.Put("c", uint64(3))
	w.Close()
	// Flip a byte inside the FIRST frame: frames for b and c stay intact.
	seg, err := wal.NewestSegment(dir)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(seg, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var bt [1]byte
	if _, err := f.ReadAt(bt[:], 9); err != nil {
		t.Fatal(err)
	}
	bt[0] ^= 0xFF
	if _, err := f.WriteAt(bt[:], 9); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := wal.Open(dir, wal.Options{}); err == nil {
		t.Fatal("Open truncated past intact acknowledged records")
	}
}

// TestUnreadableSnapshotRefusesOpen: snapshots appear via fsync-then-rename
// only, so an unreadable one means media corruption — and its segments are
// already garbage-collected. Opening with an empty index would forget
// acknowledged votes; Open must refuse instead.
func TestUnreadableSnapshotRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, wal.Options{SegmentBytes: 128})
	for i := 0; i < 40; i++ {
		w.Put("k", uint64(i))
	}
	if err := w.Snapshot(); err != nil {
		t.Fatal(err)
	}
	w.Close()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	snapped := false
	for _, e := range ents {
		if filepath.Ext(e.Name()) != ".snap" {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		var bt [1]byte
		if _, err := f.ReadAt(bt[:], 10); err != nil {
			t.Fatal(err)
		}
		bt[0] ^= 0xFF
		if _, err := f.WriteAt(bt[:], 10); err != nil {
			t.Fatal(err)
		}
		f.Close()
		snapped = true
	}
	if !snapped {
		t.Fatal("no snapshot file found")
	}
	if _, err := wal.Open(dir, wal.Options{SegmentBytes: 128}); err == nil {
		t.Fatal("Open succeeded with only an unreadable snapshot")
	}
}

// TestAppendBehindFailedFsyncFails: once one fsync fails, every Append
// blocked behind it must fail too, even if a later fsync would "succeed" —
// its frame would sit unreachable behind the corrupt region at replay. The
// first sync call fails slowly (so the second appender provably waits
// during it); the second would succeed if ever attempted.
func TestAppendBehindFailedFsyncFails(t *testing.T) {
	var calls atomic.Int64
	firstSyncFails := func(f *os.File) error {
		if calls.Add(1) == 1 {
			time.Sleep(100 * time.Millisecond)
			return errors.New("injected: first fsync dies")
		}
		return f.Sync()
	}
	w, err := wal.Open(t.TempDir(), wal.Options{Sync: firstSyncFails})
	if err != nil {
		t.Fatal(err)
	}
	errA := make(chan error, 1)
	go func() {
		errA <- w.Append([]wal.Rec{{Key: "a", Val: uint64(1)}})
	}()
	time.Sleep(20 * time.Millisecond) // A is inside the dying fsync
	errB := w.Append([]wal.Rec{{Key: "b", Val: uint64(2)}})
	if err := <-errA; err == nil {
		t.Error("Append succeeded past a failed fsync")
	}
	if errB == nil {
		t.Error("an Append blocked behind a failed fsync was acked")
	}
	if err := w.Append([]wal.Rec{{Key: "c", Val: uint64(3)}}); err == nil {
		t.Error("Append succeeded on a dead log")
	}
}

// foreignFrame frames payload exactly as the log does — length, CRC-32C —
// whatever the payload holds.
func foreignFrame(payload []byte) []byte {
	out := make([]byte, 8+len(payload))
	binary.BigEndian.PutUint32(out[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(out[4:8], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	copy(out[8:], payload)
	return out
}

// TestOpenRefusesIntactUndecodableFrame: a crash tears a frame, and a torn
// frame fails its CRC. One whose CRC verifies but whose payload this build
// cannot decode — another record format, another version byte — was written
// whole and acknowledged; treating it as a torn tail would truncate acked
// votes away and open "successfully" on what is left. Open must refuse with
// ErrCorrupt, in the tail segment as much as mid-log, and leave the file's
// bytes alone.
func TestOpenRefusesIntactUndecodableFrame(t *testing.T) {
	// What a gob-era build put in a frame, and a well-formed batch stamped
	// with a version this build does not know.
	gobPayload := []byte("\x0c\xff\x81\x02\x01\x01\x03Rec\x01\xff\x82\x00\x00\x21\xff\x82")
	futurePayload := []byte{0x02, 1, 1, 'k', 2, 7}
	first := func(dir string) string { return filepath.Join(dir, "00000001.wal") }

	for _, tc := range []struct {
		name  string
		build func(t *testing.T, dir string) (victim string)
	}{
		{"tail-only-foreign-frames", func(t *testing.T, dir string) string {
			// A directory written entirely by another format.
			var seg []byte
			for i := 0; i < 3; i++ {
				seg = append(seg, foreignFrame(gobPayload)...)
			}
			if err := os.WriteFile(first(dir), seg, 0o644); err != nil {
				t.Fatal(err)
			}
			return first(dir)
		}},
		{"tail-after-good-records", func(t *testing.T, dir string) string {
			w := mustOpen(t, dir, wal.Options{})
			w.Put("a", uint64(1))
			w.Put("b", uint64(2))
			w.Close()
			if err := wal.AppendGarbage(dir, foreignFrame(gobPayload)); err != nil {
				t.Fatal(err)
			}
			return first(dir)
		}},
		{"tail-unknown-version", func(t *testing.T, dir string) string {
			w := mustOpen(t, dir, wal.Options{})
			w.Put("a", uint64(1))
			w.Close()
			if err := wal.AppendGarbage(dir, foreignFrame(futurePayload)); err != nil {
				t.Fatal(err)
			}
			return first(dir)
		}},
		{"mid-log", func(t *testing.T, dir string) string {
			w := mustOpen(t, dir, wal.Options{SegmentBytes: 64})
			for i := 0; i < 40; i++ {
				w.Put("k", uint64(i))
			}
			if w.SegmentCount() < 3 {
				t.Fatal("need several segments")
			}
			w.Close()
			f, err := os.OpenFile(first(dir), os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.Write(foreignFrame(gobPayload)); err != nil {
				t.Fatal(err)
			}
			return first(dir)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			victim := tc.build(t, dir)
			before, err := os.ReadFile(victim)
			if err != nil {
				t.Fatal(err)
			}
			w, err := wal.Open(dir, wal.Options{})
			if err == nil {
				w.Close()
				t.Fatalf("Open succeeded with %d keys over an intact frame it cannot decode", w.Len())
			}
			if !errors.Is(err, wal.ErrCorrupt) {
				t.Errorf("err = %v, want ErrCorrupt", err)
			}
			after, err := os.ReadFile(victim)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Errorf("refused log was modified: %d bytes before, %d after", len(before), len(after))
			}
		})
	}
}

// TestSnapshotLoadRule pins the checkpoint load rule the index snapshot
// shares with the learners' snapshot store: a newest snapshot that is torn
// falls back to the older one, while a newest one that is an intact frame
// this build cannot decode refuses the open — it was written whole, and
// falling back past it would forget what it held.
func TestSnapshotLoadRule(t *testing.T) {
	for _, tc := range []struct {
		name   string
		newest []byte
		opens  bool
	}{
		{"torn-newest-falls-back", []byte("torn snapshot"), true},
		{"undecodable-newest-refuses", foreignFrame([]byte{0x02, 0, 0}), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			w := mustOpen(t, dir, wal.Options{})
			w.Put("a", uint64(1))
			if err := w.Snapshot(); err != nil {
				t.Fatal(err)
			}
			w.Close()
			if err := os.WriteFile(filepath.Join(dir, "99999999.snap"), tc.newest, 0o644); err != nil {
				t.Fatal(err)
			}
			r, err := wal.Open(dir, wal.Options{})
			if !tc.opens {
				if !errors.Is(err, wal.ErrCorrupt) {
					t.Fatalf("Open err = %v, want ErrCorrupt", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if v, ok := r.Get("a"); !ok || v.(uint64) != 1 {
				t.Fatalf("fallback snapshot lost a = %v, %v", v, ok)
			}
		})
	}
}
