// Package snapshot implements durable state snapshots of the applied SMR
// state at a merge frontier, the foundation of log compaction: once a
// snapshot covering instances [0, Frontier) exists, the decided-command log
// below Frontier is redundant for this node — any peer can be caught up by
// shipping the snapshot and replaying only the log suffix.
//
// A snapshot's wire and disk form is one wire frame, the frame a WAL record
// batch is, whose payload is built from package wire's layouts:
//
//	[version 0x02] [frontier] [state: bytes] [order: count × cmd id]
//	[replies: count × (cmd id, instance, result: string)]
//
// Decode is all-or-nothing: the complete snapshot or an error, never a
// partial state. On disk the Store keeps each blob as a checkpoint of package
// wal — installed by wal.WriteCheckpoint through .tmp, fsync and rename, and
// picked back up by wal.LoadCheckpoint's rule — so a torn newest file falls
// back to an older one and a directory whose newest intact file does not
// decode, or whose every file is torn, refuses to open, as a WAL does.
package snapshot

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"

	"mcpaxos/internal/wal"
	"mcpaxos/internal/wire"
)

// Reply is one exported reply-cache record: it seeds duplicate suppression
// on the installing learner so retried proposals for commands applied below
// the snapshot frontier still re-elicit their original replies.
type Reply struct {
	CmdID  uint64
	Inst   uint64
	Result string
}

// Snapshot is the complete applied state of a learner at a merge frontier.
type Snapshot struct {
	// Frontier is the exclusive upper bound: instances [0, Frontier) are
	// folded into State and need never be replayed.
	Frontier uint64
	// State is the opaque machine state (smr.DurableMachine.MarshalState).
	State []byte
	// Order is the merged apply order (command IDs) up to Frontier. It keeps
	// a snapshot-installed learner's history comparable to its peers' — the
	// nemesis convergence judgment requires prefix-consistent orders — and
	// doubles as the dedup floor for commands applied before the cut.
	Order []uint64
	// Replies is the reply-cache export at the cut.
	Replies []Reply
}

const (
	// version is the payload's first byte; a payload opening with any
	// other was written by another build and does not decode.
	version = 0x02
	// maxPayload bounds a blob's payload. Order grows with history, so the
	// bound sits far above the WAL's; a longer claimed length is corruption,
	// not an allocation.
	maxPayload = 1 << 30
	// MaxBlob is the length of the longest blob Decode accepts.
	MaxBlob = wire.FrameHeader + maxPayload
)

// ErrCorrupt reports a snapshot blob that failed its frame check or does not
// decode. Nothing was installed.
var ErrCorrupt = errors.New("snapshot: corrupt or truncated blob")

// Encode renders s as one self-contained frame: what Store persists and what
// SnapResp messages ship in slices.
func Encode(s Snapshot) []byte {
	b := make([]byte, wire.FrameHeader, 64+len(s.State)+8*len(s.Order)+16*len(s.Replies))
	b = wire.AppendUvarint(append(b, version), s.Frontier)
	b = wire.AppendBytes(b, s.State)
	b = wire.AppendUvarint(b, uint64(len(s.Order)))
	for _, id := range s.Order {
		b = wire.AppendUvarint(b, id)
	}
	b = wire.AppendUvarint(b, uint64(len(s.Replies)))
	for _, r := range s.Replies {
		b = wire.AppendUvarint(b, r.CmdID)
		b = wire.AppendUvarint(b, r.Inst)
		b = wire.AppendString(b, r.Result)
	}
	return wire.SealFrame(b)
}

// Decode parses a blob produced by Encode. It is all-or-nothing: framing
// damage, a checksum mismatch, truncation or trailing garbage yields
// ErrCorrupt (wrapped) and a zero Snapshot.
func Decode(blob []byte) (Snapshot, error) {
	payload, n, ok := wire.ReadFrame(blob, maxPayload)
	if !ok || n != len(blob) {
		return Snapshot{}, fmt.Errorf("%w: torn or damaged frame", ErrCorrupt)
	}
	return decodePayload(payload)
}

// decodePayload parses a frame's payload through wire.Reader.
func decodePayload(p []byte) (Snapshot, error) {
	r := &wire.Reader{B: p}
	if r.Byte("version") != version {
		r.Fail("version")
	}
	s := Snapshot{Frontier: r.Uvarint("frontier"), State: r.Bytes("state")}
	if n := r.Count("order count", 1); n > 0 {
		s.Order = make([]uint64, n)
		for i := range s.Order {
			s.Order[i] = r.Uvarint("order entry")
		}
	}
	if n := r.Count("reply count", 3); n > 0 {
		s.Replies = make([]Reply, n)
		for i := range s.Replies {
			s.Replies[i] = Reply{CmdID: r.Uvarint("reply cmd id"), Inst: r.Uvarint("reply instance"),
				Result: r.String("reply result")}
		}
	}
	if err := r.Finish(); err != nil {
		return Snapshot{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return s, nil
}

// Crc returns the checksum of the whole blob, carried in SnapResp chunks so
// a receiver can cheaply pre-verify reassembly before the full Decode.
func Crc(blob []byte) uint32 { return wire.Checksum(blob) }

// Store persists snapshot blobs in a directory, newest-wins. With an empty
// dir it is memory-only (the simulator and WAL-less deployments), which
// still bounds the learner's retained log — only durability across process
// restart is lost.
type Store struct {
	dir string

	mu       sync.Mutex
	blob     []byte // newest valid blob, always resident for cheap serving
	frontier uint64
	have     bool
	swept    int
}

// OpenStore opens (creating if needed) a snapshot directory and loads its
// newest snapshot under wal.LoadCheckpoint's rule: orphaned .tmp files are
// swept, a torn newest file falls back to an older one, and the open fails
// if the newest intact file does not decode or every file is torn — opening
// empty there would lose state the acceptors have already truncated.
// dir == "" yields a memory-only store.
func OpenStore(dir string) (*Store, error) {
	s := &Store{dir: dir}
	if dir == "" {
		return s, nil
	}
	var err error
	s.blob, s.swept, err = wal.LoadCheckpoint(dir, maxPayload, func(payload []byte) error {
		snap, err := decodePayload(payload)
		s.frontier = snap.Frontier
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	s.have = s.blob != nil
	return s, nil
}

// Save persists a blob covering [0, frontier). A durable store installs it
// with wal.WriteCheckpoint, which removes older snapshot files only once the
// new one is durable, so the previous snapshot survives any crash before the
// rename lands. The store takes ownership of blob: it is kept, not copied,
// and Latest hands it out, so the caller must not modify it afterwards.
func (s *Store) Save(frontier uint64, blob []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.have && frontier <= s.frontier {
		return nil
	}
	if s.dir != "" {
		if err := wal.WriteCheckpoint(s.dir, fmt.Sprintf("%016d.snap", frontier), blob, nil); err != nil {
			return err
		}
	}
	s.blob = blob
	s.frontier, s.have = frontier, true
	return nil
}

// Latest returns the newest snapshot blob and its frontier.
func (s *Store) Latest() (blob []byte, frontier uint64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.blob, s.frontier, s.have
}

// DiskStats reports the on-disk footprint: snapshot file count and bytes.
// Memory-only stores report the resident blob instead.
func (s *Store) DiskStats() (files int, bytes int64) {
	s.mu.Lock()
	dir, have, resident := s.dir, s.have, int64(len(s.blob))
	s.mu.Unlock()
	if dir == "" {
		if have {
			return 1, resident
		}
		return 0, 0
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0
	}
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".snap") {
			continue
		}
		files++
		if info, err := e.Info(); err == nil {
			bytes += info.Size()
		}
	}
	return files, bytes
}
