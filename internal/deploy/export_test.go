package deploy

// Accessors and helpers that only this package's tests use: no shipped code
// reads them.

import (
	"time"

	"mcpaxos/internal/ballot"
	"mcpaxos/internal/classic"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/node"
	"mcpaxos/internal/storage"
)

// AcceptorFloors reports each hosted acceptor's vote-history compaction
// floor (instances below it were truncated on a gossiped watermark). It
// reads, on the acceptor's mailbox, the storage.KeyFloor record the
// acceptor writes in the same step that raises its floor, so it reports 0
// for an acceptor without a WAL.
func (r *Replica) AcceptorFloors() []uint64 {
	var out []uint64
	for _, a := range r.spec.Acceptors {
		r.mu.Lock()
		w := r.wals[msg.NodeID(a.ID)]
		r.mu.Unlock()
		r.on(msg.NodeID(a.ID), func(node.Handler) {
			var floor uint64
			if w != nil {
				rec, _ := w.Get(storage.KeyFloor)
				floor, _ = rec.(uint64)
			}
			out = append(out, floor)
		})
	}
	return out
}

// ShardRounds reports, per shard, the highest round any hosted acceptor is
// serving: comparing snapshots before and after a drain detects round
// changes even when the crashed coordinator can no longer report.
func (r *Replica) ShardRounds() []ballot.Ballot {
	out := make([]ballot.Ballot, r.cfg.NShards())
	r.onEach(r.spec.Acceptors, func(hd node.Handler) {
		a := hd.(*classic.Acceptor)
		for k := range out {
			out[k] = ballot.Max(out[k], a.ShardRnd(k))
		}
	})
	return out
}

// propose stamps, registers and routes one command from the mailbox
// goroutine (test convenience; the Client submits via proposeMsg).
func (h *clientHandler) propose(cmd cstruct.Cmd) *Call {
	cmd.ID = classic.CmdID(h.env.ID(), h.seq.Add(1)-1)
	call := &Call{ID: cmd.ID, done: make(chan struct{}), start: time.Now()}
	h.proposeCall(cmd, call)
	return call
}
