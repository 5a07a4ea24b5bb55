package classic

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"mcpaxos/internal/ballot"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/storage"
)

// recorder captures messages sent to an otherwise-unused node ID, standing in
// for a learner observing the acceptor's catch-up responses.
type recorder struct{ msgs []msg.Message }

func (r *recorder) OnMessage(_ msg.NodeID, m msg.Message) { r.msgs = append(r.msgs, m) }

// TestAcceptorCompactionWatermark drives the acceptor half of the watermark
// protocol end to end on a WAL-backed acceptor: a gossiped Done durably drops
// the vote history below the watermark, requests below the floor are refused
// with the floor attached (the learner's escalation trigger), retained votes
// still re-announce, and a hard crash + restart replays the floor and the
// surviving votes — never the truncated ones.
func TestAcceptorCompactionWatermark(t *testing.T) {
	wc := newWALCluster(t, ClusterOpts{NCoords: 1, NAcceptors: 3, F: 1, Seed: 23, NLearners: 2})
	wc.Lead(0)
	const decided = 10
	for i := 0; i < decided; i++ {
		wc.Prop.Propose(cstruct.Cmd{ID: uint64(700 + i), Key: "k"})
		wc.Sim.Run()
	}
	if len(wc.LearnedCmds) != decided {
		t.Fatalf("decided %d/%d instances", len(wc.LearnedCmds), decided)
	}

	const wm = 6
	a := wc.Accs[0]
	deliver(a, wc.Cfg.Learners[0], msg.Done{From: wc.Cfg.Learners[0], Frontier: wm, Watermark: wm})
	if a.Floor() != wm {
		t.Fatalf("Floor = %d after Done, want %d", a.Floor(), wm)
	}
	for inst := uint64(0); inst < wm; inst++ {
		if _, _, ok := a.Vote(inst); ok {
			t.Errorf("vote %d survived truncation below watermark", inst)
		}
	}
	for inst := uint64(wm); inst < decided; inst++ {
		if _, _, ok := a.Vote(inst); !ok {
			t.Errorf("vote %d above the watermark was lost", inst)
		}
	}
	// A stale (lower) watermark must not move the floor backwards.
	deliver(a, wc.Cfg.Learners[0], msg.Done{From: wc.Cfg.Learners[0], Frontier: 2, Watermark: 2})
	if a.Floor() != wm {
		t.Fatalf("Floor regressed to %d on stale Done", a.Floor())
	}

	// A catch-up request below the floor is refused with the floor attached;
	// one at or above it is served with re-announced 2bs.
	rec := &recorder{}
	wc.Sim.Register(99, rec)
	deliver(a, 99, msg.CatchupReq{Learner: 99, From: 2})
	wc.Sim.Run()
	refused := false
	for _, m := range rec.msgs {
		if cr, ok := m.(msg.CatchupResp); ok {
			if cr.Floor != wm || len(cr.Cmds) != 0 {
				t.Fatalf("refusal = %+v, want Floor %d and no cmds", cr, wm)
			}
			refused = true
		}
		if _, ok := m.(msg.P2b); ok {
			t.Fatal("truncated votes were re-announced below the floor")
		}
	}
	if !refused {
		t.Fatal("no refusal for a request below the floor")
	}
	rec.msgs = nil
	deliver(a, 99, msg.CatchupReq{Learner: 99, From: wm})
	wc.Sim.Run()
	served := 0
	for _, m := range rec.msgs {
		if _, ok := m.(msg.P2b); ok {
			served++
		}
	}
	if served != decided-wm {
		t.Fatalf("served %d re-announcements above the floor, want %d", served, decided-wm)
	}

	// Crash and restart: the floor and the surviving votes replay from the
	// one log; the truncated prefix stays truncated.
	wc.hardCrash(0)
	ra := wc.restart(0)
	if ra.Floor() != wm {
		t.Fatalf("restarted Floor = %d, want %d", ra.Floor(), wm)
	}
	for inst := uint64(0); inst < wm; inst++ {
		if _, _, ok := ra.Vote(inst); ok {
			t.Errorf("truncated vote %d resurrected by replay", inst)
		}
	}
	for inst := uint64(wm); inst < decided; inst++ {
		if _, _, ok := ra.Vote(inst); !ok {
			t.Errorf("restarted acceptor lost surviving vote %d", inst)
		}
	}
}

// countEnv is a discardEnv that counts the 2bs sent through it.
type countEnv struct {
	discardEnv
	p2bs int
}

func (e *countEnv) Send(_ msg.NodeID, m msg.Message) {
	if _, ok := m.(msg.P2b); ok {
		e.p2bs++
	}
}

// A CatchupReq names only where the range starts: however many votes the
// acceptor holds above it, it re-announces at most catchupMax.
func TestAcceptorCatchupBoundsRange(t *testing.T) {
	const held = 300
	cl := NewCluster(ClusterOpts{NCoords: 1, NAcceptors: 3, F: 1, Seed: 29})
	cl.Lead(0)
	for i := 0; i < held; i++ {
		cl.Prop.Propose(cstruct.Cmd{ID: uint64(1 + i), Key: "k"})
	}
	cl.Sim.Run()
	env := &countEnv{}
	a := NewAcceptor(env, cl.Cfg, cl.Disks[0]) // recovers the votes the disk holds
	if got := len(a.votes); got != held {
		t.Fatalf("acceptor holds %d votes, want %d", got, held)
	}
	deliver(a, 300, msg.CatchupReq{Learner: 300})
	if env.p2bs != catchupMax {
		t.Fatalf("re-announced %d votes, want catchupMax = %d", env.p2bs, catchupMax)
	}
}

// failingCompact is a Disk whose Compact fails while fail is set.
type failingCompact struct {
	storage.Disk
	fail  bool
	calls int
}

func (d *failingCompact) Compact() error {
	d.calls++
	if d.fail {
		return errors.New("no space left on device")
	}
	return nil
}

// A failed physical compaction is retried at the next watermark, not after
// another compactAfterDrops truncations; a successful one starts the count
// over.
func TestAcceptorRetriesFailedCompaction(t *testing.T) {
	disk := &failingCompact{fail: true}
	cl := NewCluster(ClusterOpts{NCoords: 1, NAcceptors: 3, F: 1, Seed: 3,
		Stable: func(i int) storage.Stable {
			if i == 0 {
				return disk
			}
			return &storage.Disk{}
		}})
	cl.Lead(0)
	for i := 0; i < compactAfterDrops+2; i++ {
		cl.Prop.Propose(cstruct.Cmd{ID: uint64(1 + i), Key: "k"})
	}
	cl.Sim.Run()
	done := func(wm uint64) { deliver(cl.Accs[0], 300, msg.Done{From: 300, Frontier: wm, Watermark: wm}) }

	done(compactAfterDrops)
	if disk.calls != 1 {
		t.Fatalf("%d drops asked for %d compactions, want 1", compactAfterDrops, disk.calls)
	}
	disk.fail = false
	done(compactAfterDrops + 1)
	if disk.calls != 2 {
		t.Fatalf("a failed compaction was not retried at the next watermark (%d calls)", disk.calls)
	}
	done(compactAfterDrops + 2)
	if disk.calls != 2 {
		t.Fatalf("a successful compaction did not reset the drop count (%d calls)", disk.calls)
	}
}

// An acceptor votes only at or above its compaction floor. Below it every
// instance was decided and its votes are gone, so no phase 1 could find the
// value chosen there: a full coordinator quorum's 2as for instance 0 draw no
// vote, no 2b and no write — only the floor, sent back to each member.
func TestAcceptorRefusesVotesBelowFloor(t *testing.T) {
	const floor = 64
	cfg := NewCluster(ClusterOpts{NAcceptors: 3, F: 1, Seed: 1, CoordsPerShard: 3}).Cfg
	a, disk, env := loggedAcceptor(cfg)
	deliver(a, cfg.Learners[0], msg.Done{From: cfg.Learners[0], Frontier: floor, Watermark: floor})
	*disk.log, env.sent = nil, nil

	r := ballot.Ballot{MinCount: 1, ID: uint32(cfg.Coords[0])}
	var want []string
	for _, co := range cfg.RoundGroup(0, r) {
		deliver(a, co, msg.P2a{Inst: 0, Rnd: r, Coord: co, Val: wrap(cstruct.Cmd{ID: 7})})
		want = append(want, fmt.Sprintf("send msg.Done to %v", co))
	}
	if !slices.Equal(*disk.log, want) {
		t.Fatalf("2as below the floor did\n  %v\nwant\n  %v", *disk.log, want)
	}
	for _, m := range env.sent {
		if d := m.(msg.Done); d.Watermark != floor || d.From != env.ID() {
			t.Errorf("refusal %+v, want the floor %d from %v", d, floor, env.ID())
		}
	}
	if _, _, ok := a.Vote(0); ok {
		t.Error("the acceptor holds a vote below its floor")
	}
	if _, _, ok := a.Tally(0); ok {
		t.Error("the acceptor holds a tally below its floor")
	}
}

// A coordinator that stamped below the acceptors' floor — a restarted one
// counts from slot 0 — catches up on their refusal: it forgets the slot, the
// window and the request's stamp, so the client's retry restamps at the
// floor and is forwarded there.
func TestCoordinatorCatchesUpToFloor(t *testing.T) {
	const floor = 64
	cfg := NewCluster(ClusterOpts{NCoords: 1, NAcceptors: 3, F: 1, Seed: 1}).Cfg
	env := &sinkEnv{id: cfg.Coords[0]}
	co := NewCoordinator(env, cfg)
	co.IngressBatchMax = 1
	co.leading = true
	deliver(co, 7, ingressSub(0))
	if _, ok := co.proposals[0]; !ok || co.Inflight() != 1 {
		t.Fatalf("submission not stamped at slot 0: %v in flight", co.Inflight())
	}

	deliver(co, cfg.Acceptors[0], msg.Done{From: cfg.Acceptors[0], Frontier: floor, Watermark: floor})
	if co.Inflight() != 0 || co.Retained() != 0 || !co.isLearned(floor-1) || co.isLearned(floor) {
		t.Fatalf("after the floor: %d in flight, %d retained; want the window empty and [0, %d) learned",
			co.Inflight(), co.Retained(), floor)
	}
	if _, restamped, _ := co.IngressCounts(); restamped != 1 {
		t.Errorf("%d requests forgotten, want 1", restamped)
	}

	env.sent = nil
	deliver(co, 7, ingressSub(0)) // the client's retry
	var at []uint64
	for _, m := range env.sent {
		if p2a, ok := m.(msg.P2a); ok {
			at = append(at, p2a.Inst)
		}
	}
	if len(at) == 0 || at[0] != floor {
		t.Fatalf("the retry's 2as went to instances %v, want %d", at, floor)
	}
}
