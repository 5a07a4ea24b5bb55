package wal

// Hooks for the external test package: FuzzWALReplay's reference scan
// decodes payloads with the record codec and must tell deletions apart.

var DecodeBatch = decodeBatch

func IsTombstone(v any) bool {
	_, dead := v.(tombstone)
	return dead
}

// Inspectors that only the tests read.

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
