package batch

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/wire"
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
		if !c.Equal(w) {
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
	payload := append([]byte{magic}, wire.AppendUvarint(nil, 1<<62)...)
	c := cstruct.Cmd{ID: 1, Key: Key, Op: cstruct.OpWrite, Payload: payload}
	if _, ok := Unpack(c); ok {
		t.Errorf("absurd count unpacked")
	}
}

// goldenCmds is a fixed three-command batch: a client-stamped write, an
// empty-keyed read without payload, and a payload holding a zero byte.
var goldenCmds = []cstruct.Cmd{
	{ID: 1<<40 | 7, Key: "k1", Op: cstruct.OpWrite, Payload: []byte("v")},
	{ID: 300, Op: cstruct.OpRead},
	{ID: 1<<40 | 8, Key: "k2", Op: cstruct.OpWrite, Payload: []byte{0x00, 0xff}},
}

// goldenPayload is goldenCmds' batch payload: the magic byte, then the
// commands as one wire command sequence. Batches ride every 2a, 2b, WAL
// record and snapshot, so a layout change must show up here as a diff.
const goldenPayload = "b7 03 87 80 80 80 80 20 02 6b 31 02 01 76 ac 02 00 01 00 " +
	"88 80 80 80 80 20 02 6b 32 02 02 00 ff"

func TestGoldenBatch(t *testing.T) {
	want, err := hex.DecodeString(strings.ReplaceAll(goldenPayload, " ", ""))
	if err != nil {
		t.Fatal(err)
	}
	b := Pack(goldenCmds)
	if !bytes.Equal(b.Payload, want) {
		t.Fatalf("Pack payload\n got % x\nwant % x", b.Payload, want)
	}
	if b.ID != BatchID(goldenCmds[0]) || b.Key != Key || b.Op != cstruct.OpWrite {
		t.Errorf("batch header %+v", b)
	}
	got, ok := Unpack(cstruct.Cmd{Key: Key, Payload: want})
	if !ok || len(got) != len(goldenCmds) {
		t.Fatalf("Unpack golden: %v %v", got, ok)
	}
	for i, c := range got {
		w := goldenCmds[i]
		if !c.Equal(w) {
			t.Errorf("cmd %d: got %+v want %+v", i, c, w)
		}
	}
	meta, ok := UnpackMeta(cstruct.Cmd{Key: Key, Payload: want})
	if !ok || len(meta) != len(goldenCmds) {
		t.Fatalf("UnpackMeta golden: %v %v", meta, ok)
	}
	for i, c := range meta {
		w := goldenCmds[i]
		if c.ID != w.ID || c.Key != w.Key || c.Op != w.Op || c.Payload != nil {
			t.Errorf("meta %d: got %+v want %+v without payload", i, c, w)
		}
	}
}

// TestUnpackRejectsNonCanonical: Unpack accepts only what Pack emits — a
// zero-padded count, bytes after the last command and an empty batch are
// refused.
func TestUnpackRejectsNonCanonical(t *testing.T) {
	valid := Pack(mkCmds(2)).Payload
	for name, payload := range map[string][]byte{
		"non-minimal count": {magic, 0x81, 0x00, 0x05, 0, 0, 0},
		"trailing bytes":    append(append([]byte(nil), valid...), 0),
		"empty batch":       {magic, 0},
	} {
		c := cstruct.Cmd{ID: IDBase, Key: Key, Op: cstruct.OpWrite, Payload: payload}
		if got, ok := Unpack(c); ok {
			t.Errorf("%s: Unpack accepted %v", name, got)
		}
		if got, ok := UnpackMeta(c); ok {
			t.Errorf("%s: UnpackMeta accepted %v", name, got)
		}
	}
}

// FuzzBatchUnpack: Unpack never panics on an arbitrary payload, and every
// payload it accepts is exactly what Pack makes of the commands it read.
func FuzzBatchUnpack(f *testing.F) {
	f.Add(Pack(goldenCmds).Payload)
	f.Add(Pack(mkCmds(8)).Payload)
	f.Add([]byte{magic, 0x81, 0x00, 0x05, 0, 0, 0})
	f.Add([]byte{magic})
	f.Fuzz(func(t *testing.T, payload []byte) {
		c := cstruct.Cmd{Key: Key, Op: cstruct.OpWrite, Payload: payload}
		cmds, ok := Unpack(c)
		meta, metaOK := UnpackMeta(c)
		if ok != metaOK || len(cmds) != len(meta) {
			t.Fatalf("Unpack %v (%d cmds) but UnpackMeta %v (%d)", ok, len(cmds), metaOK, len(meta))
		}
		if !ok {
			return
		}
		if again := Pack(cmds).Payload; !bytes.Equal(again, payload) {
			t.Fatalf("accepted payload does not re-Pack to itself:\n in % x\nout % x", payload, again)
		}
	})
}

// TestPackUnpackAllocs pins the allocations of an 8-command batch with
// 64-byte payloads: Pack sizes its payload once, Unpack allocates the slice
// plus a key and a payload per command, UnpackMeta the slice and the keys.
func TestPackUnpackAllocs(t *testing.T) {
	cmds := make([]cstruct.Cmd, 8)
	for i := range cmds {
		cmds[i] = cstruct.Cmd{ID: uint64(i + 1), Key: fmt.Sprintf("key-%d", i),
			Op: cstruct.OpWrite, Payload: make([]byte, 64)}
	}
	b := Pack(cmds)
	for _, pin := range []struct {
		name string
		max  float64
		f    func()
	}{
		{"Pack", 1, func() { Pack(cmds) }},
		{"Unpack", 17, func() { Unpack(b) }},
		{"UnpackMeta", 9, func() { UnpackMeta(b) }},
	} {
		n := testing.AllocsPerRun(100, pin.f)
		t.Logf("%s: %.0f allocations", pin.name, n)
		if n > pin.max {
			t.Errorf("%s: %.0f allocations, want at most %.0f", pin.name, n, pin.max)
		}
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
