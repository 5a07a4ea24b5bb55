package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
)

// This file is the fault-injection harness for crash-recovery testing. The
// two crash surfaces a log has are the fsync path (Options.Sync lets tests
// fail it) and the bytes already on disk (the tail mutators below
// simulate torn writes and media corruption between a hard kill and the
// restart's Open).

// ErrInjectedSync is returned by fsync hooks built with FailSyncAfter.
var ErrInjectedSync = errors.New("wal: injected fsync failure")

// FailSyncAfter returns a Sync hook that succeeds for the first n calls and
// fails forever after, modelling a dying disk. Once Append observes the
// failure the log goes sticky-dead and Put/PutAll panic — an acceptor
// without stable storage must stop (Section 4.4).
func FailSyncAfter(n int64) func(*os.File) error {
	var calls atomic.Int64
	return func(f *os.File) error {
		if calls.Add(1) > n {
			return ErrInjectedSync
		}
		return f.Sync()
	}
}

// NewestSegment returns the path of the highest-indexed segment file in
// dir, or an error if none exists. The newest segment holds the log's tail,
// which is where a crash lands.
func NewestSegment(dir string) (string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	var segs []string
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".wal" {
			segs = append(segs, e.Name())
		}
	}
	if len(segs) == 0 {
		return "", fmt.Errorf("wal: no segments in %s", dir)
	}
	sort.Strings(segs)
	return filepath.Join(dir, segs[len(segs)-1]), nil
}

// TruncateTail cuts the last n bytes off the newest segment, simulating a
// torn write: the crash happened mid-frame and only a prefix hit the
// platter. Replay must drop the torn frame and keep everything before it.
func TruncateTail(dir string, n int64) error {
	path, err := NewestSegment(dir)
	if err != nil {
		return err
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	size := st.Size() - n
	if size < 0 {
		size = 0
	}
	return os.Truncate(path, size)
}

// FlipTailByte XORs 0xFF into the byte n from the end of the newest
// segment, simulating bit rot in the tail. The frame's CRC must catch it.
func FlipTailByte(dir string, n int64) error {
	path, err := NewestSegment(dir)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	off := st.Size() - 1 - n
	if off < 0 {
		return fmt.Errorf("wal: segment smaller than offset %d", n)
	}
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		return err
	}
	b[0] ^= 0xFF
	_, err = f.WriteAt(b[:], off)
	return err
}

// AppendGarbage appends raw bytes to the newest segment, simulating a crash
// that left allocated-but-unwritten blocks (or another process's trash) at
// the tail. Replay must refuse to interpret it as records.
func AppendGarbage(dir string, data []byte) error {
	path, err := NewestSegment(dir)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.Write(data)
	return err
}
