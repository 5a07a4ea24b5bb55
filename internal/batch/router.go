package batch

import "mcpaxos/internal/cstruct"

// Submit receives each flushed batch (or lone command) together with the
// shard it is bound for and the shard's next sequence number; hosts forward
// it to that shard's coordinator group (e.g. classic.Proposer.ProposeSeq).
// seq numbers each shard's flush stream 0, 1, 2, … — multicoordinated
// groups derive the consensus instance from it (instance = seq·N + shard),
// so every group member assigns the same batch to the same instance without
// coordination.
type Submit func(shard int, seq uint64, cmd cstruct.Cmd)

// Router spreads a client command stream across the shard-leaders of a
// sharded deployment (leader k sequences instances ≡ k mod N): each shard
// gets its own Batcher, so batches fill independently per shard and flush to
// their shard's leader. Commands are spread round-robin, which keeps the
// instance space dense when every shard sees the same rate; Counts exposes
// the per-shard split so experiments can verify the balance.
//
// Like Batcher, the Router is passive: it owns no goroutine or timer. Hosts
// drive time-triggered flushes by calling Tick.
type Router struct {
	batchers []*Batcher
	counts   []uint64
	seqs     []uint64
	rr       int
}

// NewRouter builds a router over nShards per-shard batchers, each flushing
// through submit with its shard number and the shard's next sequence
// number. maxCmds, maxWait and clock are the per-shard Batcher parameters.
func NewRouter(nShards, maxCmds int, maxWait int64, clock Clock, submit Submit) *Router {
	if nShards < 1 {
		nShards = 1
	}
	r := &Router{
		batchers: make([]*Batcher, nShards),
		counts:   make([]uint64, nShards),
		seqs:     make([]uint64, nShards),
	}
	for k := 0; k < nShards; k++ {
		shard := k
		r.batchers[k] = NewBatcher(maxCmds, maxWait, clock, func(c cstruct.Cmd, _ []cstruct.Cmd) {
			seq := r.seqs[shard]
			r.seqs[shard]++
			submit(shard, seq, c)
		})
	}
	return r
}

// Route buffers one command on the next shard round-robin, flushing that
// shard's batch if it filled.
func (r *Router) Route(cmd cstruct.Cmd) {
	shard := r.rr
	r.rr = (r.rr + 1) % len(r.batchers)
	r.RouteTo(shard, cmd)
}

// RouteTo buffers one command on a specific shard (e.g. to keep a key's
// commands on one sequencer).
func (r *Router) RouteTo(shard int, cmd cstruct.Cmd) {
	r.counts[shard]++
	r.batchers[shard].Add(cmd)
}

// Tick drives time-triggered flushes on every shard's batcher.
func (r *Router) Tick() {
	for _, b := range r.batchers {
		b.Tick()
	}
}

// FlushAll flushes every shard's partial batch.
func (r *Router) FlushAll() {
	for _, b := range r.batchers {
		b.Flush()
	}
}

// PendingShard reports how many commands one shard's batcher is buffering.
func (r *Router) PendingShard(shard int) int { return r.batchers[shard].Pending() }
