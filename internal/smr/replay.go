// Reply replay: a bounded per-client cache of applied command results.
//
// A learner replica replies exactly once, at apply time. On a lossy network
// that is a liveness hole: if every replica's reply frame for a command is
// dropped, the client retransmits, the learners deduplicate the proposal
// (the instance is already decided and applied), and no reply is ever sent
// again. The ReplyCache closes the hole — each learner remembers the result
// of recently applied commands keyed by the stamped command ID, so a
// retransmitted proposal for an already-applied command re-elicits its
// msg.Reply without touching the state machine (at-most-once apply is
// preserved; at-least-once reply is restored).
package smr

import "mcpaxos/internal/snapshot"

// ReplyRecord is one cached apply result.
type ReplyRecord struct {
	// Inst is the merged-order instance the command was delivered at.
	Inst uint64
	// Result is the state machine's apply result.
	Result string
}

// ReplyCache holds the most recent perClient apply results of every client,
// evicted by per-client watermark: client sequence numbers are stamped
// monotonically (id = client<<shift | seq, the layout of classic.CmdID), so
// once seq s is cached, anything below s-perClient+1 can no longer draw a
// retransmission from a correct client — its call resolved or was abandoned
// long before the client's window advanced that far — and is dropped.
// Memory is therefore bounded by perClient × (number of distinct clients
// seen), independent of history length.
//
// The cache is not safe for concurrent use; callers serialize (the learner
// mailbox goroutine in the live stack).
type ReplyCache struct {
	perClient int
	shift     uint
	// byClient maps client → its cached window; floor is the lowest
	// sequence number still retained (watermark).
	byClient map[uint64]*clientWindow
}

type clientWindow struct {
	floor   uint64
	hi      uint64
	results map[uint64]ReplyRecord // seq → record
}

// NewReplyCache builds a cache keeping up to perClient results per client;
// shift is the bit position of the client ID inside a command ID
// (classic.ClientShift in a deployment). perClient must be at least 1.
func NewReplyCache(perClient int, shift uint) *ReplyCache {
	return &ReplyCache{perClient: perClient, shift: shift, byClient: make(map[uint64]*clientWindow)}
}

func (c *ReplyCache) split(cmdID uint64) (client, seq uint64) {
	return cmdID >> c.shift, cmdID & (1<<c.shift - 1)
}

// Put records the apply result of cmdID. Sequence numbers more than
// perClient below the client's highest seen are already evicted and are not
// re-admitted (the watermark only advances).
func (c *ReplyCache) Put(cmdID uint64, inst uint64, result string) {
	client, seq := c.split(cmdID)
	w := c.byClient[client]
	if w == nil {
		w = &clientWindow{results: make(map[uint64]ReplyRecord)}
		c.byClient[client] = w
	}
	if seq < w.floor {
		return // below the watermark: evicted, stays evicted
	}
	w.results[seq] = ReplyRecord{Inst: inst, Result: result}
	w.hi = max(w.hi, seq)
	// Advance the watermark so at most perClient entries survive. The
	// eviction walk is bounded by min(floor gap, live entries): a sparse
	// window that jumped far ahead is swept by map scan instead of by
	// counting through seqs that were never cached.
	if span := c.perClient; w.hi >= uint64(span) {
		newFloor := w.hi - uint64(span) + 1
		if gap := newFloor - w.floor; gap <= uint64(len(w.results)) {
			for f := w.floor; f < newFloor; f++ {
				delete(w.results, f)
			}
		} else {
			for s := range w.results {
				if s < newFloor {
					delete(w.results, s)
				}
			}
		}
		w.floor = newFloor
	}
}

// Get returns the cached result of cmdID, if retained.
func (c *ReplyCache) Get(cmdID uint64) (ReplyRecord, bool) {
	client, seq := c.split(cmdID)
	w := c.byClient[client]
	if w == nil {
		return ReplyRecord{}, false
	}
	r, ok := w.results[seq]
	return r, ok
}

// Len reports the total number of cached results across all clients.
func (c *ReplyCache) Len() int {
	n := 0
	for _, w := range c.byClient {
		n += len(w.results)
	}
	return n
}

// Export returns every retained record keyed by its full command ID: the
// reply-cache section of a state snapshot. The installing learner restores
// them so retried proposals for commands applied below the snapshot frontier
// still re-elicit replies.
func (c *ReplyCache) Export() []snapshot.Reply {
	var out []snapshot.Reply
	for client, w := range c.byClient {
		for seq, r := range w.results {
			out = append(out, snapshot.Reply{
				CmdID: client<<c.shift | seq, Inst: r.Inst, Result: r.Result,
			})
		}
	}
	return out
}

// Restore re-admits a snapshot's records through the normal Put path, so the
// per-client bound and watermark semantics hold on the importing side too.
func (c *ReplyCache) Restore(entries []snapshot.Reply) {
	for _, e := range entries {
		c.Put(e.CmdID, e.Inst, e.Result)
	}
}

// EvictBelow drops every record whose delivery instance is below floor —
// the reply-cache layer of log compaction. A record below the compaction
// watermark belongs to a command whose client call resolved (or was
// abandoned) long before the cluster agreed everything below the watermark
// was applied everywhere, so it can no longer draw a retransmission.
// Returns how many records were dropped. An emptied window stays, with its
// floor: dropping it would re-admit the sequence numbers it evicted.
func (c *ReplyCache) EvictBelow(floor uint64) int {
	dropped := 0
	for _, w := range c.byClient {
		for seq, r := range w.results {
			if r.Inst < floor {
				delete(w.results, seq)
				dropped++
			}
		}
	}
	return dropped
}

// ClientLen reports how many results are cached for one client (testing the
// per-client bound).
func (c *ReplyCache) ClientLen(client uint64) int {
	if w := c.byClient[client]; w != nil {
		return len(w.results)
	}
	return 0
}
