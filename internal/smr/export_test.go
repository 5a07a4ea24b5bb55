package smr

// Accessors and helpers that only this package's tests use: no shipped code
// reads them.

// Len returns the number of keys.
func (s *KVStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.data)
}

// Len reports the total number of cached results across all clients.
func (c *ReplyCache) Len() int {
	n := 0
	for _, w := range c.byClient {
		n += len(w.results)
	}
	return n
}

// ClientLen reports how many results are cached for one client (testing the
// per-client bound).
func (c *ReplyCache) ClientLen(client uint64) int {
	if w := c.byClient[client]; w != nil {
		return len(w.results)
	}
	return 0
}
