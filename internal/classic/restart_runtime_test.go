package classic

import (
	"path/filepath"
	"testing"

	"mcpaxos/internal/ballot"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/node"
	"mcpaxos/internal/quorum"
	"mcpaxos/internal/runtime"
	"mcpaxos/internal/wal"
)

// TestRestartOverWALForgetsPartialTally is the runtime half of the
// multicoordinated recovery path: a WAL-backed classic acceptor in a
// 3-member coordinator-group deployment, hosted on its own Network, is
// crash-restarted — Stop, then a new Network over the reopened WAL, as a
// deployment restarts a node — in the middle of a batch — one instance fully accepted
// (vote on disk), the next holding a partial coordinator tally (one of the
// required two matching 2as arrived). The tally was never written, so the
// replacement comes back with the vote alone, above every round its previous
// life can have joined, for exactly one disk write — a restart asks nothing of
// the handler it builds. The stalled instance then completes from the
// group's retransmitted 2as in a higher round, as the Stale-driven recovery
// would drive it.
func TestRestartOverWALForgetsPartialTally(t *testing.T) {
	n := runtime.NewNetwork()
	defer n.Stop()

	cfg := Config{
		Coords:         []msg.NodeID{100, 101, 102},
		Acceptors:      []msg.NodeID{200, 201, 202},
		Learners:       []msg.NodeID{300},
		Quorums:        quorum.MustAcceptorSystem(3, 1, 0),
		CoordsPerShard: 3,
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(t.TempDir(), "acc200")
	w, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}

	acc := n.Spawn(200, func(env node.Env) node.Handler {
		return NewAcceptor(env, cfg, w)
	})

	r := ballot.Ballot{MinCount: 1, ID: 100}
	val := func(id uint64) cstruct.CStruct {
		return cstruct.NewSingleValue(cstruct.Cmd{ID: id, Key: "k", Op: cstruct.OpWrite})
	}
	// Instance 0: a full coordinator quorum (members 100 and 101 of 3) —
	// the vote hits the WAL before the 2b leaves.
	acc.Inject(100, msg.P2a{Inst: 0, Rnd: r, Coord: 100, Val: val(10)})
	acc.Inject(101, msg.P2a{Inst: 0, Rnd: r, Coord: 101, Val: val(10)})
	// Instance 1: only member 100's 2a — a partial tally, in memory only.
	acc.Inject(100, msg.P2a{Inst: 1, Rnd: r, Coord: 100, Val: val(11)})
	acc.Do(func(h node.Handler) {
		a := h.(*Acceptor)
		if _, _, ok := a.Vote(0); !ok {
			t.Error("instance 0 not accepted before the crash")
		}
		if _, coords, ok := a.Tally(1); !ok || len(coords) != 1 {
			t.Errorf("instance 1 tally = (%v, %v), want member 100's 2a alone", coords, ok)
		}
	})
	if got := w.Writes(); got != 2 {
		t.Errorf("first start, one accept and one partial tally cost %d writes, want 2", got)
	}

	// Hard restart: the old agent dies with its volatile state and fd, the
	// replacement replays the log directory on a host of its own.
	n.Stop()
	w.Close()
	if w, err = wal.Open(dir, wal.Options{}); err != nil {
		t.Fatalf("reopen wal: %v", err)
	}
	defer func() { w.Close() }()
	n = runtime.NewNetwork()
	defer n.Stop()
	restarted := n.Spawn(200, func(env node.Env) node.Handler {
		return NewAcceptor(env, cfg, w)
	})

	if got := w.Writes(); got != 1 {
		t.Errorf("recovery over the reopened WAL cost %d writes, want exactly 1", got)
	}
	if _, ok := w.Get("tally/1"); ok {
		t.Error("a tally record is on disk")
	}

	var mcount uint32
	restarted.Do(func(h node.Handler) {
		a := h.(*Acceptor)
		if _, v, ok := a.Vote(0); !ok || v.ID != 10 {
			t.Errorf("vote for instance 0 lost across restart (got %v, ok=%v)", v, ok)
		}
		if _, _, ok := a.Tally(1); ok {
			t.Error("a partial tally came back from disk")
		}
		if mcount = a.Rnd().MCount; mcount != r.MCount+1 {
			t.Errorf("recovered at %v, want the incarnation above round %v", a.Rnd(), r)
		}
	})

	// The stalled instance completes in a round above the recovered floor:
	// the group rejoins (1a) and a coordinator quorum re-forwards it.
	r2 := ballot.Ballot{MCount: mcount, MinCount: 1, ID: 100}
	restarted.Inject(100, msg.P1a{Rnd: r2, Coord: 100, Shard: 0})
	restarted.Inject(100, msg.P2a{Inst: 1, Rnd: r2, Coord: 100, Val: val(11)})
	restarted.Inject(101, msg.P2a{Inst: 1, Rnd: r2, Coord: 101, Val: val(11)})
	restarted.Do(func(h node.Handler) {
		a := h.(*Acceptor)
		if vrnd, v, ok := a.Vote(1); !ok || v.ID != 11 || !vrnd.Equal(r2) {
			t.Errorf("instance 1 did not complete after recovery (got %v@%v, ok=%v)", v, vrnd, ok)
		}
	})
}
