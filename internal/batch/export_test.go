package batch

// Accessors and helpers that only this package's tests use: no shipped code
// reads them.

// Shards returns the number of shards routed over.
func (r *Router) Shards() int { return len(r.batchers) }

// Counts returns how many commands each shard has been routed.
func (r *Router) Counts() []uint64 {
	out := make([]uint64, len(r.counts))
	copy(out, r.counts)
	return out
}

// Seqs returns each shard's next sequence number — equivalently, how many
// batches (or lone commands) have been flushed to that shard so far.
func (r *Router) Seqs() []uint64 {
	out := make([]uint64, len(r.seqs))
	copy(out, r.seqs)
	return out
}

// Pending reports how many commands are buffered across all shards.
func (r *Router) Pending() int {
	n := 0
	for _, b := range r.batchers {
		n += b.Pending()
	}
	return n
}

// Batches sums the flushed batch count across shards; Singles sums the
// pass-through flushes.
func (r *Router) Batches() (batches, singles uint64) {
	for _, b := range r.batchers {
		batches += b.Batches
		singles += b.Singles
	}
	return batches, singles
}
