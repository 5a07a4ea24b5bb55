// Package wal implements the acceptors' stable storage as a real on-disk
// write-ahead log: an append-only sequence of record batches, each one
// wire frame (length, CRC-32C, payload) in the versioned binary record form
// of record.go, split across size-bounded segment files. It replaces the
// simulated in-memory storage.Disk behind the storage.Stable interface with
// something a process restart actually survives.
//
// Durability follows the paper's accounting (Sections 4.2 and 4.4): every
// Put/PutAll is one logical synchronous write and returns only once its
// records are on disk, so an acceptor may send its 2b the moment the call
// returns. The log batches nothing itself: each Append is one frame and one
// fsync, and concurrent Appends serialize. Its caller decides what shares an
// fsync — an acceptor commits every vote of a mailbox burst with one PutAll
// (classic/commit.go), and a batch of commands is one vote.
//
// On Open the log is replayed: the newest valid snapshot seeds the key
// index, the remaining segments are applied in order, and a torn tail
// (a partially written final frame, the expected result of a crash during
// a write) is detected by its CRC and truncated away. Only a frame that
// fails its CRC can be torn: one that passes but does not decode — another
// format version, or corruption the checksum happens to cover — is refused
// with ErrCorrupt and its file left untouched, never truncated. Snapshot
// writes the compacted index as a single-frame checkpoint (checkpoint.go —
// the writer and load rule the learners' snapshot store uses too) and
// garbage-collects the segments it covers.
package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"mcpaxos/internal/wire"
)

// Rec is one key/value record. Val must be of the acceptor record
// vocabulary — uint32, uint64, ballot.Ballot or storage.VoteRec — which is
// all the record codec gives a byte form (record.go); Append fails on
// anything else.
type Rec struct {
	Key string
	Val any
}

// tombstone marks a durably deleted key. A deletion must survive a crash
// exactly like a Put — replay applies it by removing the key from the index
// — so Drop appends tombstone records through Append like any Put.
// Tombstones never appear in the index and thus vanish from the next
// snapshot, which is what reclaims their space.
type tombstone struct{}

// Options parameterizes Open.
type Options struct {
	// SegmentBytes rolls to a new segment file once the current one
	// reaches this size. Zero means the 1 MiB default.
	SegmentBytes int64
	// Sync flushes a data file to disk. Nil means (*os.File).Sync. Tests
	// inject faults (failing or slow fsyncs) here.
	Sync func(*os.File) error
}

const (
	defaultSegmentBytes = 1 << 20
	// maxFrameBytes bounds a frame's payload length: longer claims are
	// treated as corruption rather than allocated.
	maxFrameBytes = 16 << 20
)

// ErrCorrupt reports corruption that torn-tail truncation cannot repair: a
// bad frame in the middle of the log rather than at its end, or an intact
// frame anywhere whose payload this build cannot decode.
var ErrCorrupt = errors.New("wal: corrupt or undecodable record")

// WAL is an append-only segmented log with an in-memory key index. It is
// safe for concurrent use and implements storage.Stable.
type WAL struct {
	dir  string
	opts Options

	// mu guards the index and the segment file, and is held across an
	// Append's write and fsync: the log has one writer at a time.
	mu      sync.Mutex
	index   map[string]any
	closed  bool
	err     error // sticky I/O error: the log is dead once set
	seg     *os.File
	segIdx  uint64
	segSize int64

	writes atomic.Uint64 // logical synchronous writes (Appends)
	fsyncs atomic.Uint64 // physical data-file fsyncs
	swept  int           // orphaned .tmp files removed by Open
}

// Open opens (creating if needed) the log in dir, replays it into the key
// index, truncates any torn tail, and readies the last segment for appends.
func Open(dir string, opts Options) (*WAL, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	if opts.Sync == nil {
		opts.Sync = (*os.File).Sync
	}
	w := &WAL{dir: dir, opts: opts, index: make(map[string]any)}
	if err := w.replay(); err != nil {
		return nil, err
	}
	return w, nil
}

// Dir returns the log's directory.
func (w *WAL) Dir() string { return w.dir }

// Writes returns the number of logical synchronous writes performed: one
// per Put or PutAll, matching the simulated Disk's accounting.
func (w *WAL) Writes() uint64 { return w.writes.Load() }

// ResetWrites zeroes the logical write counter (the data stays).
func (w *WAL) ResetWrites() { w.writes.Store(0) }

// Fsyncs returns the number of physical data-file fsyncs performed: one per
// Append, plus those that segment rolls and snapshots make.
func (w *WAL) Fsyncs() uint64 { return w.fsyncs.Load() }

// ResetFsyncs zeroes the fsync counter.
func (w *WAL) ResetFsyncs() { w.fsyncs.Store(0) }

// Len returns the number of distinct keys stored.
func (w *WAL) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.index)
}

// Get reads the latest record stored under key.
func (w *WAL) Get(key string) (any, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	v, ok := w.index[key]
	return v, ok
}

// Put durably stores value under key: one logical synchronous write. It
// panics if the record cannot be made durable — acking an accept without
// stable storage would break the safety argument (Section 4.4).
func (w *WAL) Put(key string, value any) {
	if err := w.Append([]Rec{{Key: key, Val: value}}); err != nil {
		panic(fmt.Sprintf("wal: stable storage lost: %v", err))
	}
}

// PutAll durably stores several records as one atomic batch: one logical
// synchronous write (torn-tail truncation removes the batch wholly or not
// at all). It panics if durability cannot be provided.
func (w *WAL) PutAll(records map[string]any) {
	recs := make([]Rec, 0, len(records))
	for k, v := range records {
		recs = append(recs, Rec{Key: k, Val: v})
	}
	if err := w.Append(recs); err != nil {
		panic(fmt.Sprintf("wal: stable storage lost: %v", err))
	}
}

// Drop durably deletes the records under keys as one atomic batch: one
// logical synchronous write of tombstone records, so the deletion survives a
// crash (replaying a tombstone removes the key instead of resurrecting it).
// It panics if durability cannot be provided, exactly like Put: forgetting
// that a vote range was truncated would let recovery serve stale history the
// cluster already compacted.
func (w *WAL) Drop(keys []string) {
	if len(keys) == 0 {
		return
	}
	recs := make([]Rec, len(keys))
	for i, k := range keys {
		recs[i] = Rec{Key: k, Val: tombstone{}}
	}
	if err := w.Append(recs); err != nil {
		panic(fmt.Sprintf("wal: stable storage lost: %v", err))
	}
}

// Compact reclaims the space of dropped and superseded records by writing
// the live index as a snapshot and GC'ing the segments (and tombstones) it
// covers.
func (w *WAL) Compact() error { return w.Snapshot() }

// Append durably stores one batch of records as one frame and returns once
// it is on disk: one write, one fsync. Concurrent Appends serialize, each
// with its own fsync.
func (w *WAL) Append(recs []Rec) error {
	if len(recs) == 0 {
		return nil
	}
	frame, err := encodeFrame(newFrame(), recs)
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errors.New("wal: closed")
	}
	// Once a write or fsync has failed the log is dead: a frame behind the
	// failed one must never be acked, or replay would find it stranded
	// behind a corrupt frame.
	if w.err != nil {
		return w.err
	}
	w.apply(recs)
	w.writes.Add(1)
	w.err = w.write(frame)
	return w.err
}

// write appends one frame to the current segment, rolling to the next one
// if it is full, and makes it durable. Callers hold mu.
func (w *WAL) write(frame []byte) error {
	if w.segSize >= w.opts.SegmentBytes {
		if err := w.roll(); err != nil {
			return err
		}
	}
	if _, err := w.seg.Write(frame); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	w.segSize += int64(len(frame))
	return w.sync(w.seg)
}

// sync flushes f through the (possibly fault-injected) Sync hook.
func (w *WAL) sync(f *os.File) error {
	w.fsyncs.Add(1)
	if err := w.opts.Sync(f); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	return nil
}

// roll seals the current segment and starts the next one. Callers hold mu.
func (w *WAL) roll() error {
	if w.seg != nil {
		if err := w.sync(w.seg); err != nil {
			return err
		}
		if err := w.seg.Close(); err != nil {
			return fmt.Errorf("wal: close segment: %w", err)
		}
	}
	return w.openSegment(w.segIdx + 1)
}

// openSegment opens segment idx for appending. Callers hold mu or are inside
// Open.
func (w *WAL) openSegment(idx uint64) error {
	f, err := os.OpenFile(w.segPath(idx), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open segment: %w", err)
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return fmt.Errorf("wal: seek segment: %w", err)
	}
	w.seg, w.segIdx, w.segSize = f, idx, size
	return syncDir(w.dir)
}

func (w *WAL) segPath(idx uint64) string {
	return filepath.Join(w.dir, fmt.Sprintf("%08d.wal", idx))
}

// Snapshot writes the current key index as a checkpoint and deletes the
// segments (and older snapshots) it makes redundant, bounding replay work
// and disk use. One data fsync.
func (w *WAL) Snapshot() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	// Seal the current segment: records appended from here on land in
	// segment segIdx+1, which the snapshot does not cover.
	if err := w.roll(); err != nil {
		return err
	}
	since := w.segIdx
	recs := make([]Rec, 0, len(w.index))
	for k, v := range w.index {
		recs = append(recs, Rec{Key: k, Val: v})
	}
	frame, err := encodeFrame(wire.AppendUvarint(newFrame(), since), recs)
	if err != nil {
		return err
	}
	if err := WriteCheckpoint(w.dir, fmt.Sprintf("%08d.snap", since), frame, w.sync); err != nil {
		return err
	}
	// GC the segments the snapshot covers.
	segs, err := w.segments()
	if err != nil {
		return err
	}
	for _, idx := range segs {
		if idx < since {
			os.Remove(w.segPath(idx))
		}
	}
	return syncDir(w.dir)
}

// SegmentCount reports how many segment files exist, for tests.
func (w *WAL) SegmentCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	segs, err := w.segments()
	if err != nil {
		return -1
	}
	return len(segs)
}

// Swept reports how many orphaned .tmp files Open removed — crash artifacts
// of an interrupted Snapshot.
func (w *WAL) Swept() int { return w.swept }

// DiskStats reports the log's on-disk footprint: live segment files,
// snapshot files, and total bytes across both. It feeds the disk-accounting
// experiments (E16) and the nemesis per-seed disk report.
func (w *WAL) DiskStats() (segs, snaps int, bytes int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	ents, err := os.ReadDir(w.dir)
	if err != nil {
		return 0, 0, 0
	}
	for _, e := range ents {
		name := e.Name()
		info, err := e.Info()
		if err != nil {
			continue
		}
		switch {
		case strings.HasSuffix(name, ".wal"):
			segs++
			bytes += info.Size()
		case strings.HasSuffix(name, ".snap"):
			snaps++
			bytes += info.Size()
		}
	}
	return segs, snaps, bytes
}

// Close waits for any in-flight Append and closes the segment file. The log
// cannot be used afterwards.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if w.seg == nil {
		return nil
	}
	err := w.seg.Close()
	w.seg = nil
	return err
}

// ---------------------------------------------------------------- replay --

// segments lists segment indices, ascending. Callers hold mu or are inside
// Open.
func (w *WAL) segments() ([]uint64, error) {
	ents, err := os.ReadDir(w.dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []uint64
	for _, e := range ents {
		if name := e.Name(); strings.HasSuffix(name, ".wal") {
			var idx uint64
			if _, err := fmt.Sscanf(name, "%08d.wal", &idx); err == nil {
				segs = append(segs, idx)
			}
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return segs, nil
}

// replay rebuilds the index: the snapshot LoadCheckpoint picks first — an
// unreadable one refuses the open, since the segments it covered are already
// GC'd and an empty index would silently forget acked votes — then every
// surviving segment in order, truncating a torn tail on the last one.
func (w *WAL) replay() error {
	since := uint64(0)
	_, swept, err := LoadCheckpoint(w.dir, maxFrameBytes, func(payload []byte) error {
		snapSince, recs, err := decodeSnapshot(payload)
		if err == nil {
			w.apply(recs)
			since = snapSince
		}
		return err
	})
	w.swept = swept
	if err != nil {
		return err
	}
	segs, err := w.segments()
	if err != nil {
		return err
	}
	replayable := segs[:0:0]
	for _, idx := range segs {
		if idx >= since {
			replayable = append(replayable, idx)
		}
	}
	for i, idx := range replayable {
		last := i == len(replayable)-1
		if err := w.replaySegment(idx, last); err != nil {
			return err
		}
	}
	// Append to the newest segment, or start a fresh one.
	start := since
	if n := len(replayable); n > 0 {
		start = replayable[n-1]
	}
	if start == 0 {
		start = 1
	}
	return w.openSegment(start)
}

// apply folds records into the key index: a tombstone deletes its key,
// anything else overwrites it. Callers hold mu or are inside Open.
func (w *WAL) apply(recs []Rec) {
	for _, r := range recs {
		if _, dead := r.Val.(tombstone); dead {
			delete(w.index, r.Key)
		} else {
			w.index[r.Key] = r.Val
		}
	}
}

// replaySegment applies one segment's frames to the index. On the last
// segment a frame that fails its length or CRC check is a torn tail:
// everything from it on is truncated. Anywhere else it is unrepairable
// corruption — as is, in any segment, a frame whose CRC verifies but whose
// payload does not decode: a crash cannot produce one (the checksum covers
// the whole payload), so truncating it would discard acked records, and the
// likeliest cause is a directory written in another record format.
func (w *WAL) replaySegment(idx uint64, last bool) error {
	path := w.segPath(idx)
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	off := 0
	for off < len(data) {
		payload, n, ok := decodeFrame(data[off:])
		if !ok {
			break
		}
		recs, err := decodeBatch(payload)
		if err != nil {
			return fmt.Errorf("%w: segment %d offset %d: intact frame does not decode: %v", ErrCorrupt, idx, off, err)
		}
		w.apply(recs)
		off += n
	}
	if off == len(data) {
		return nil
	}
	if !last {
		return fmt.Errorf("%w: segment %d offset %d", ErrCorrupt, idx, off)
	}
	// Torn tail or corruption inside the tail segment? A torn write can
	// only leave garbage after the bad frame — frames are appended in
	// order and an fsync covers every frame before it, so an intact frame
	// after a bad one means an acknowledged record would be silently
	// dropped by truncation. Refuse to open instead.
	if anyIntactFrame(data[off+1:]) {
		return fmt.Errorf("%w: segment %d offset %d (intact records follow)", ErrCorrupt, idx, off)
	}
	if err := os.Truncate(path, int64(off)); err != nil {
		return fmt.Errorf("wal: truncate torn tail: %w", err)
	}
	return nil
}

// anyIntactFrame reports whether a CRC-valid frame starts at any offset of
// data. Length sanity rejects nearly all garbage before the CRC runs.
func anyIntactFrame(data []byte) bool {
	for o := 0; o+wire.FrameHeader < len(data); o++ {
		if _, _, ok := decodeFrame(data[o:]); ok {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------- frames --

// Every frame the log writes is a wire frame whose payload is a record list
// in the form of record.go.

// newFrame starts a frame buffer: the header reserved, the payload opened
// with its version byte.
func newFrame() []byte {
	return append(make([]byte, wire.FrameHeader, 128), recVersion)
}

// encodeFrame completes the frame begun in buf: recs are encoded straight
// onto the payload, then the reserved header is filled in.
func encodeFrame(buf []byte, recs []Rec) ([]byte, error) {
	buf, err := appendRecs(buf, recs)
	if err != nil {
		return nil, err
	}
	if n := len(buf) - wire.FrameHeader; n > maxFrameBytes {
		return nil, fmt.Errorf("wal: frame payload of %d bytes exceeds the %d-byte limit", n, maxFrameBytes)
	}
	return wire.SealFrame(buf), nil
}

// decodeFrame reads one log frame from the head of data (wire.ReadFrame).
func decodeFrame(data []byte) (payload []byte, n int, ok bool) {
	return wire.ReadFrame(data, maxFrameBytes)
}
