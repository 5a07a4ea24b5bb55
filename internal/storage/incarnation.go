package storage

import "mcpaxos/internal/ballot"

// KeyMCount holds the uint32 MCount of the acceptor's current round (Section
// 4.4). Incarnation is its only reader and writer.
const KeyMCount = "mcount"

// Incarnation is the round half of an acceptor's stable state. Section 4.4
// keeps an acceptor's current round volatile and persists only its MCount:
// a process that finds the record on its disk has crashed, and comes back at
// ⟨MCount+1, 0, 0⟩, above every round it can have joined. The record must
// therefore follow the rounds the acceptor joins, whoever's recovery raised
// them — not count the acceptor's own recoveries.
type Incarnation struct {
	disk Stable
	mc   uint32
}

// LoadIncarnation opens disk's incarnation record and returns the round the
// acceptor starts from. With no record this is the first start: it writes 0
// (the paper's "acceptors write on disk only once, when started") and the
// acceptor starts at round Zero. With one, this is a recovery, at the cost of
// one write: the acceptor starts at ⟨stored+1, 0, 0⟩. voted is the highest
// round among the votes restored from disk; a store written before the
// record followed the joined rounds may hold votes above its counter, and the
// recovery must clear those too.
func LoadIncarnation(disk Stable, voted ballot.Ballot) (Incarnation, ballot.Ballot) {
	rec, ok := disk.Get(KeyMCount)
	if !ok {
		disk.Put(KeyMCount, uint32(0))
		return Incarnation{disk: disk}, ballot.Zero
	}
	mc := max(rec.(uint32), voted.MCount) + 1
	disk.Put(KeyMCount, mc)
	return Incarnation{disk: disk, mc: mc}, ballot.Ballot{MCount: mc}
}

// Observe records that the acceptor is joining round r. It must return
// before the 1b or 2b for r leaves. It writes only when r's MCount is news,
// which happens once per acceptor per recovery anywhere in the cluster and
// never in a stable run.
func (i *Incarnation) Observe(r ballot.Ballot) {
	if r.MCount > i.mc {
		i.mc = r.MCount
		i.disk.Put(KeyMCount, i.mc)
	}
}
