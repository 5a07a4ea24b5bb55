package wal_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/storage"
	"mcpaxos/internal/wal"
)

// A Drop must survive a crash before any Compact runs: tombstones are
// replayed as deletions, never resurrecting the dropped keys.
func TestDropSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, wal.Options{})
	for _, k := range []string{"vote/1", "vote/2", "vote/3", "keep"} {
		w.Put(k, uint64(7))
	}
	w.Drop([]string{"vote/1", "vote/2"})
	if _, ok := w.Get("vote/1"); ok {
		t.Fatal("dropped key still visible")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, dir, wal.Options{})
	if _, ok := r.Get("vote/1"); ok {
		t.Fatal("dropped key resurrected by replay")
	}
	if _, ok := r.Get("vote/2"); ok {
		t.Fatal("dropped key resurrected by replay")
	}
	if v, ok := r.Get("vote/3"); !ok || v.(uint64) != 7 {
		t.Fatalf("undropped key lost: %v %v", v, ok)
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	r.Close()
}

// Compact after Drop reclaims physical space: the rewritten index omits the
// dropped records and the covered segments (holding both the original Puts
// and the tombstones) are GC'd.
func TestCompactReclaimsDroppedSpace(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, wal.Options{SegmentBytes: 512})
	defer w.Close()
	big := storage.VoteRec{Cmds: []cstruct.Cmd{{ID: 1, Payload: bytes.Repeat([]byte("x"), 256)}}}
	keys := make([]string, 0, 64)
	for i := 0; i < 64; i++ {
		k := keyN("vote/", i)
		w.Put(k, big)
		keys = append(keys, k)
	}
	w.Put("keep", uint64(1))
	_, _, before := w.DiskStats()

	w.Drop(keys)
	if err := w.Compact(); err != nil {
		t.Fatal(err)
	}
	segs, snaps, after := w.DiskStats()
	if after >= before {
		t.Fatalf("compact did not shrink disk: %d -> %d bytes", before, after)
	}
	if snaps != 1 {
		t.Fatalf("snapshots on disk = %d, want 1", snaps)
	}
	if segs > 2 {
		t.Fatalf("live segments = %d after compact, want <= 2", segs)
	}
	if v, ok := w.Get("keep"); !ok || v.(uint64) != 1 {
		t.Fatalf("surviving key lost across compact: %v %v", v, ok)
	}

	// And the compacted state replays.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir, wal.Options{SegmentBytes: 512})
	defer r.Close()
	if r.Len() != 1 {
		t.Fatalf("reopened Len = %d, want 1", r.Len())
	}
}

func keyN(prefix string, i int) string {
	return prefix + string(rune('a'+i/26)) + string(rune('a'+i%26))
}

// Crash-point test: a crash between Snapshot's temp-file write and its
// rename leaves an orphaned .tmp. Open must sweep it — it was never part of
// the durable state — and replay the intact log unchanged.
func TestOpenSweepsOrphanedSnapshotTmp(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, wal.Options{})
	w.Put("a", uint64(1))
	if err := w.Snapshot(); err != nil {
		t.Fatal(err)
	}
	w.Put("b", uint64(2))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// The crash artifact: Snapshot died after writing its temp file but
	// before the rename made it durable.
	orphan := filepath.Join(dir, "00000009.snap.tmp")
	if err := os.WriteFile(orphan, []byte("half-written snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, dir, wal.Options{})
	defer r.Close()
	if r.Swept() != 1 {
		t.Fatalf("Swept = %d, want 1", r.Swept())
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("orphaned .tmp survived Open")
	}
	if v, ok := r.Get("a"); !ok || v.(uint64) != 1 {
		t.Fatalf("snapshot-covered key lost: %v %v", v, ok)
	}
	if v, ok := r.Get("b"); !ok || v.(uint64) != 2 {
		t.Fatalf("post-snapshot key lost: %v %v", v, ok)
	}
}
