package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"mcpaxos/internal/wire"
)

// This file is the checkpoint discipline the log's index snapshots and the
// learners' state snapshots (internal/snapshot) share. A checkpoint is a
// directory's *.snap file holding one wire frame, newer checkpoints sorting
// after older ones by name; WriteCheckpoint is the only code that installs
// one and LoadCheckpoint the only code that picks one back up, so both kinds
// survive a crash — and refuse to open on what a crash cannot explain — by
// the same rule.

const checkpointExt = ".snap"

// WriteCheckpoint durably installs data as dir/name, a name ending in .snap:
// it writes name.tmp, flushes it with sync (nil means (*os.File).Sync),
// renames it to name and fsyncs dir. The rename is the commit point — a crash
// before it leaves an orphan that LoadCheckpoint sweeps, never a torn name.
// Once name is durable the checkpoints it supersedes, those whose names sort
// below it, are removed.
func WriteCheckpoint(dir, name string, data []byte, sync func(*os.File) error) error {
	if sync == nil {
		sync = (*os.File).Sync
	}
	final := filepath.Join(dir, name)
	f, err := os.OpenFile(final+".tmp", os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	_, err = f.Write(data)
	if err == nil {
		err = sync(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(final+".tmp", final)
	}
	if err == nil {
		err = syncDir(dir)
	}
	if err != nil {
		return fmt.Errorf("wal: checkpoint %s: %w", name, err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil // the new checkpoint is durable; the old ones wait for the next
	}
	for _, e := range ents {
		if old := e.Name(); strings.HasSuffix(old, checkpointExt) && old < name {
			os.Remove(filepath.Join(dir, old))
		}
	}
	return nil
}

// LoadCheckpoint opens dir, creating it if needed, and loads its newest
// checkpoint under the rule the log and the snapshot store share:
//
//   - orphaned .tmp files are removed (swept counts them): a crash left them
//     before their rename, so they never held durable state;
//   - files are tried newest — greatest name — first, and a torn one, which is
//     not exactly one intact frame of at most limit payload bytes, falls back
//     to the next older;
//   - the first intact one is handed to decode, whose error refuses the open:
//     that frame was written whole, by a build that is not this one or onto a
//     medium that rotted under its checksum, and falling back past it would
//     drop state without a word;
//   - if every file is torn, the open is refused too.
//
// It returns the loaded file's bytes, nil if dir holds no checkpoint.
func LoadCheckpoint(dir string, limit int, decode func(payload []byte) error) (data []byte, swept int, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, fmt.Errorf("wal: %w", err)
	}
	ents, err := os.ReadDir(dir) // sorted by name
	if err != nil {
		return nil, 0, fmt.Errorf("wal: %w", err)
	}
	var names []string
	for _, e := range ents {
		switch name := e.Name(); {
		case strings.HasSuffix(name, ".tmp"):
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return nil, swept, fmt.Errorf("wal: sweep tmp: %w", err)
			}
			swept++
		case strings.HasSuffix(name, checkpointExt):
			names = append(names, name)
		}
	}
	for i := len(names) - 1; i >= 0; i-- {
		data, err := os.ReadFile(filepath.Join(dir, names[i]))
		if err != nil {
			return nil, swept, fmt.Errorf("wal: %w", err)
		}
		payload, n, ok := wire.ReadFrame(data, limit)
		if !ok || n != len(data) {
			continue // torn: fall back to an older checkpoint
		}
		if err := decode(payload); err != nil {
			return nil, swept, fmt.Errorf("%w: checkpoint %s is intact but does not decode: %w", ErrCorrupt, names[i], err)
		}
		return data, swept, nil
	}
	if len(names) > 0 {
		// Checkpoints only appear by rename, so a torn one is media damage —
		// and whatever it superseded is already gone.
		return nil, swept, fmt.Errorf("%w: none of %d checkpoints in %s is intact", ErrCorrupt, len(names), dir)
	}
	return nil, swept, nil
}

// syncDir flushes directory metadata so created, renamed and removed names
// survive a crash. Directory syncs are not counted as data fsyncs.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: open dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}
