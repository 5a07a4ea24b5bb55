package snapshot

// Accessors and helpers that only this package's tests use: no shipped code
// reads them.

// Swept reports how many orphaned .tmp files OpenStore removed.
func (s *Store) Swept() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.swept
}
