package core

// Accessors and helpers that only this package's tests use: no shipped code
// reads them.

// LearnedCount returns the number of learned commands.
func (l *Learner) LearnedCount() int { return l.learned.Len() }

// Queued reports how many commands wait for a pipeline slot.
func (p *Proposer) Queued() int { return len(p.queue) }

// Inflight reports how many submitted commands are not yet learned.
func (p *Proposer) Inflight() int { return len(p.inflight) }
