package linearize

// Accessors and helpers that only this package's tests use: no shipped code
// reads them.

// Len reports how many operations were invoked (discarded ones included).
func (h *History) Len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.ops)
}
