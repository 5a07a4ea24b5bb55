package batch

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"mcpaxos/internal/cstruct"
)

func mkCmds(n int) []cstruct.Cmd {
	out := make([]cstruct.Cmd, n)
	for i := range out {
		out[i] = cstruct.Cmd{
			ID:      uint64(i + 1),
			Key:     fmt.Sprintf("k%d", i%7),
			Op:      cstruct.OpWrite,
			Payload: []byte{1, byte(i)},
		}
	}
	return out
}

func TestPackUnpackRoundtrip(t *testing.T) {
	cmds := mkCmds(32)
	cmds[3].Payload = nil // empty payloads survive
	cmds[4].Key = ""      // empty keys survive
	cmds[5].Op = cstruct.OpRead
	b := Pack(cmds)
	if !IsBatch(b) {
		t.Fatalf("packed command not recognized as batch")
	}
	if b.ID != cmds[0].ID|IDBase {
		t.Errorf("batch ID = %d", b.ID)
	}
	got, ok := Unpack(b)
	if !ok {
		t.Fatalf("Unpack failed")
	}
	if len(got) != len(cmds) {
		t.Fatalf("unpacked %d/%d commands", len(got), len(cmds))
	}
	for i, c := range got {
		w := cmds[i]
		if c.ID != w.ID || c.Key != w.Key || c.Op != w.Op || !bytes.Equal(c.Payload, w.Payload) {
			t.Errorf("cmd %d mangled: got %+v want %+v", i, c, w)
		}
	}
}

func TestUnpackRejectsNonBatch(t *testing.T) {
	if _, ok := Unpack(cstruct.Cmd{ID: 1, Key: "x", Payload: []byte{1, 2}}); ok {
		t.Errorf("plain command unpacked as batch")
	}
	// Same magic byte but not the reserved key: still not a batch.
	if _, ok := Unpack(cstruct.Cmd{ID: 1, Key: "x", Payload: []byte{magic}}); ok {
		t.Errorf("magic byte alone must not make a batch")
	}
	// Truncated payload must not unpack.
	b := Pack(mkCmds(4))
	b.Payload = b.Payload[:len(b.Payload)-3]
	if _, ok := Unpack(b); ok {
		t.Errorf("truncated batch unpacked")
	}
}

func TestUnpackRejectsHugeCount(t *testing.T) {
	// A wire-supplied count far beyond the payload must fail cleanly, not
	// attempt a multi-exabyte allocation.
	payload := append([]byte{magic}, binary.AppendUvarint(nil, 1<<62)...)
	c := cstruct.Cmd{ID: 1, Key: Key, Op: cstruct.OpWrite, Payload: payload}
	if _, ok := Unpack(c); ok {
		t.Errorf("absurd count unpacked")
	}
}

func TestBatcherFlushOnSize(t *testing.T) {
	var flushed []cstruct.Cmd
	now := int64(0)
	b := NewBatcher(4, 10, func() int64 { return now }, func(c cstruct.Cmd) {
		flushed = append(flushed, c)
	})
	for _, c := range mkCmds(9) {
		b.Add(c)
	}
	if len(flushed) != 2 {
		t.Fatalf("flushed %d batches, want 2", len(flushed))
	}
	for _, f := range flushed {
		sub, ok := Unpack(f)
		if !ok || len(sub) != 4 {
			t.Errorf("batch size %d, want 4", len(sub))
		}
	}
	if b.Pending() != 1 {
		t.Errorf("pending = %d, want 1", b.Pending())
	}
}

func TestBatcherFlushOnDeadline(t *testing.T) {
	var flushed []cstruct.Cmd
	now := int64(0)
	b := NewBatcher(100, 5, func() int64 { return now }, func(c cstruct.Cmd) {
		flushed = append(flushed, c)
	})
	b.Add(mkCmds(3)[0])
	now = 2
	b.Add(mkCmds(3)[1])
	if at, ok := b.Deadline(); !ok || at != 5 {
		t.Fatalf("deadline = %d/%v, want 5", at, ok)
	}
	now = 4
	b.Tick()
	if len(flushed) != 0 {
		t.Fatalf("flushed before deadline")
	}
	now = 5
	b.Tick()
	if len(flushed) != 1 {
		t.Fatalf("deadline flush missing")
	}
	if sub, ok := Unpack(flushed[0]); !ok || len(sub) != 2 {
		t.Errorf("deadline batch wrong: %v %v", sub, ok)
	}
	if _, ok := b.Deadline(); ok {
		t.Errorf("deadline armed with empty buffer")
	}
}

func TestBatcherSinglePassesThrough(t *testing.T) {
	var flushed []cstruct.Cmd
	b := NewBatcher(8, 5, func() int64 { return 0 }, func(c cstruct.Cmd) {
		flushed = append(flushed, c)
	})
	c := mkCmds(1)[0]
	b.Add(c)
	b.Flush()
	if len(flushed) != 1 || IsBatch(flushed[0]) || flushed[0].ID != c.ID {
		t.Fatalf("single command should pass through unwrapped: %+v", flushed)
	}
	if b.Singles != 1 || b.Batches != 0 {
		t.Errorf("counters: singles=%d batches=%d", b.Singles, b.Batches)
	}
}

func TestBatcherDisabled(t *testing.T) {
	var flushed []cstruct.Cmd
	b := NewBatcher(1, 0, func() int64 { return 0 }, func(c cstruct.Cmd) {
		flushed = append(flushed, c)
	})
	for _, c := range mkCmds(3) {
		b.Add(c)
	}
	if len(flushed) != 3 {
		t.Fatalf("MaxCmds=1 must flush every Add: %d", len(flushed))
	}
	for _, f := range flushed {
		if IsBatch(f) {
			t.Errorf("disabled batcher wrapped a command")
		}
	}
}

// The shard router must spread a stream round-robin, flush full batches to
// the owning shard only, and flush stragglers on FlushAll.
func TestRouterSpreadsAcrossShards(t *testing.T) {
	var now int64
	clock := func() int64 { return now }
	got := make(map[int][]cstruct.Cmd)
	r := NewRouter(4, 4, 0, clock, func(shard int, _ uint64, c cstruct.Cmd) {
		got[shard] = append(got[shard], c)
	})
	const n = 70 // not a multiple of 4×4: stragglers on every shard
	for i := 0; i < n; i++ {
		r.Route(cstruct.Cmd{ID: uint64(1 + i), Key: "k"})
	}
	r.FlushAll()
	counts := r.Counts()
	total := 0
	for shard, want := range []uint64{18, 18, 17, 17} {
		if counts[shard] != want {
			t.Errorf("shard %d routed %d commands, want %d", shard, counts[shard], want)
		}
		unpacked := 0
		for _, c := range got[shard] {
			if sub, ok := Unpack(c); ok {
				unpacked += len(sub)
				// Every constituent must belong to this shard's residue
				// class of the round-robin split.
				for _, s := range sub {
					if int((s.ID-1)%4) != shard {
						t.Errorf("shard %d flushed foreign command c%d", shard, s.ID)
					}
				}
			} else {
				unpacked++
			}
		}
		total += unpacked
	}
	if total != n {
		t.Fatalf("flushed %d commands, want %d", total, n)
	}
	if p := r.Pending(); p != 0 {
		t.Fatalf("%d commands still pending after FlushAll", p)
	}
}
