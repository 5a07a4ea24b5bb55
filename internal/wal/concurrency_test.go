package wal_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"mcpaxos/internal/wal"
)

// TestConcurrentAppendersSerialize drives many goroutines through one log
// (run it with -race: this is the concurrency contract of the WAL). Appends
// serialize, each its own write and fsync — the log batches nothing; its
// caller decides what shares an fsync — and every acked record must be
// durable and replayable afterwards.
func TestConcurrentAppendersSerialize(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const appenders, per = 16, 25
	var wg sync.WaitGroup
	for g := 0; g < appenders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := fmt.Sprintf("acc%d", g)
			for i := 0; i < per; i++ {
				if err := w.Append([]wal.Rec{{Key: key, Val: uint64(i)}}); err != nil {
					t.Errorf("appender %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	if got := w.Writes(); got != appenders*per {
		t.Errorf("Writes = %d, want %d (one logical write per Append)", got, appenders*per)
	}
	if w.Fsyncs() != w.Writes() {
		t.Errorf("%d fsyncs for %d writes, want one each", w.Fsyncs(), w.Writes())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Everything acked must be on disk with its final value.
	r, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != appenders {
		t.Fatalf("replayed %d keys, want %d", r.Len(), appenders)
	}
	for g := 0; g < appenders; g++ {
		key := fmt.Sprintf("acc%d", g)
		if v, ok := r.Get(key); !ok || v.(uint64) != per-1 {
			t.Errorf("%s = %v, %v; want %d", key, v, ok, per-1)
		}
	}
}

// TestConcurrentAppendersWithSnapshot checks that Snapshot can run while
// appenders are live without losing any acked record to segment GC.
func TestConcurrentAppendersWithSnapshot(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Open(dir, wal.Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	const appenders, per = 8, 40
	var wg sync.WaitGroup
	for g := 0; g < appenders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := fmt.Sprintf("acc%d", g)
			for i := 0; i < per; i++ {
				if err := w.Append([]wal.Rec{{Key: key, Val: uint64(i)}}); err != nil {
					t.Errorf("appender %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if err := w.Snapshot(); err != nil {
				t.Errorf("snapshot: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for g := 0; g < appenders; g++ {
		key := fmt.Sprintf("acc%d", g)
		if v, ok := r.Get(key); !ok || v.(uint64) != per-1 {
			t.Errorf("%s = %v, %v; want %d (lost to snapshot GC?)", key, v, ok, per-1)
		}
	}
}
