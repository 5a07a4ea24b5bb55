package classic

import (
	"fmt"
	"path/filepath"
	"sort"
	"testing"

	"mcpaxos/internal/batch"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/smr"
	"mcpaxos/internal/storage"
	"mcpaxos/internal/wal"
)

// These are the crash-recovery scenario tests for WAL-backed classic
// acceptors: an acceptor is hard-killed at a chosen point mid-protocol (its
// process state and file descriptors die, only the log directory survives),
// restarted from a fresh replay of that directory, and the cluster must
// neither lose a learned value nor let any learner adopt a conflicting one.

// walCluster is a Cluster whose acceptors write through real on-disk WALs,
// remembering each log directory so a crashed acceptor can be rebuilt from
// disk alone.
type walCluster struct {
	*Cluster
	t    *testing.T
	dirs []string
}

func newWALCluster(t *testing.T, o ClusterOpts) *walCluster {
	t.Helper()
	base := t.TempDir()
	dirs := make([]string, o.NAcceptors)
	o.Stable = func(i int) storage.Stable {
		dirs[i] = filepath.Join(base, fmt.Sprintf("acc%d", i))
		w, err := wal.Open(dirs[i], wal.Options{})
		if err != nil {
			t.Fatalf("open wal %d: %v", i, err)
		}
		return w
	}
	return &walCluster{Cluster: NewCluster(o), t: t, dirs: dirs}
}

// hardCrash kills acceptor i: the simulator stops delivering to it and its
// WAL handle (the process's fd) is closed. Volatile state is NOT reset here
// — it dies with the handler when restart builds a replacement, exactly as
// a real process death discards the heap.
func (wc *walCluster) hardCrash(i int) {
	wc.Sim.Crash(wc.Cfg.Acceptors[i])
	wc.Disks[i].(*wal.WAL).Close()
}

// restart rebuilds acceptor i from its log directory: reopen (replaying the
// segments and truncating any torn tail), construct a brand-new Acceptor
// over the replayed store, and run the recovery hook (one incarnation
// write, Section 4.4).
func (wc *walCluster) restart(i int) *Acceptor {
	wc.t.Helper()
	id := wc.Cfg.Acceptors[i]
	w, err := wal.Open(wc.dirs[i], wal.Options{})
	if err != nil {
		wc.t.Fatalf("reopen wal %d: %v", i, err)
	}
	a := NewAcceptor(wc.Sim.Env(id), wc.Cfg, w)
	wc.Sim.Register(id, a)
	wc.Accs[i] = a
	wc.Disks[i] = w
	wc.Sim.Recover(id)
	return a
}

// checkNoLossNoConflict asserts that every instance learned before the
// crash still holds the same command, and that the two learners never
// disagree on any instance.
func (wc *walCluster) checkNoLossNoConflict(before map[uint64]cstruct.Cmd) {
	wc.t.Helper()
	for inst, cmd := range before {
		got, ok := wc.LearnedCmds[inst]
		if !ok || got.ID != cmd.ID {
			wc.t.Errorf("instance %d: learned value changed across crash: had c%d, now %v (ok=%v)",
				inst, cmd.ID, got, ok)
		}
	}
	for inst := range wc.LearnedCmds {
		c0, ok0 := wc.Learners[0].Learned(inst)
		c1, ok1 := wc.Learners[1].Learned(inst)
		if ok0 && ok1 && c0.ID != c1.ID {
			wc.t.Errorf("instance %d: learners disagree: c%d vs c%d", inst, c0.ID, c1.ID)
		}
	}
}

func snapshotLearned(m map[uint64]cstruct.Cmd) map[uint64]cstruct.Cmd {
	out := make(map[uint64]cstruct.Cmd, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// TestWALRecoveryAfterAccept crashes an acceptor after it has voted in
// several instances. The restarted acceptor must restore exactly those
// votes from its WAL and report them in the next leader's phase 1.
func TestWALRecoveryAfterAccept(t *testing.T) {
	eachC(t, func(t *testing.T, c int) {
		wc := newWALCluster(t, ClusterOpts{NAcceptors: 3, F: 1, Seed: 7, NLearners: 2, CoordsPerShard: c})
		wc.Lead(0)
		for i := 0; i < 6; i++ {
			wc.Prop.Propose(cstruct.Cmd{ID: uint64(100 + i), Key: "k"})
			wc.Sim.Run()
		}
		votesBefore := make(map[uint64]cstruct.Cmd)
		for inst := range wc.LearnedCmds {
			if _, cmd, ok := wc.Accs[0].Vote(inst); ok {
				votesBefore[inst] = cmd
			}
		}
		if len(votesBefore) != 6 {
			t.Fatalf("acceptor 0 voted in %d/6 instances before crash", len(votesBefore))
		}
		before := snapshotLearned(wc.LearnedCmds)

		wc.hardCrash(0)
		// The cluster keeps deciding on the surviving quorum.
		for i := 6; i < 10; i++ {
			wc.Prop.Propose(cstruct.Cmd{ID: uint64(100 + i), Key: "k"})
			wc.Sim.Run()
		}

		a := wc.restart(0)
		for inst, want := range votesBefore {
			vrnd, got, ok := a.Vote(inst)
			if !ok || got.ID != want.ID {
				t.Errorf("instance %d: vote lost across restart: want c%d, got %v (ok=%v)", inst, want.ID, got, ok)
			}
			if vrnd.IsZero() {
				t.Errorf("instance %d: restored vote has zero round", inst)
			}
		}
		if a.Rnd().MCount == 0 {
			t.Error("recovery did not bump the incarnation counter")
		}

		// A new leader round must re-integrate the recovered acceptor without
		// disturbing any decided instance.
		wc.Coords[0].BecomeLeaderAt(a.Rnd().MCount + 1)
		wc.Sim.Run()
		for i := 10; i < 13; i++ {
			wc.Prop.Propose(cstruct.Cmd{ID: uint64(100 + i), Key: "k"})
			wc.Sim.Run()
		}
		if got := len(wc.LearnedCmds); got < 13 {
			t.Fatalf("cluster learned %d instances, want ≥ 13", got)
		}
		wc.checkNoLossNoConflict(before)
	})
}

// TestWALRecoveryAfterPromise crashes an acceptor right after phase 1: it
// promised a round but never voted. Restart must come up with no votes, a
// dominating incarnation round, and the cluster must still decide
// everything once the leader chases past the recovered round.
func TestWALRecoveryAfterPromise(t *testing.T) {
	eachC(t, func(t *testing.T, c int) {
		wc := newWALCluster(t, ClusterOpts{NAcceptors: 3, F: 1, Seed: 11, NLearners: 2, CoordsPerShard: c})
		wc.Lead(0) // all three acceptors have promised, none has voted
		wc.hardCrash(0)
		a := wc.restart(0)
		if _, _, ok := a.Vote(0); ok {
			t.Error("acceptor that never voted restored a vote")
		}
		// The promise itself was volatile (Section 4.4): recovery substitutes
		// the incarnation bump, which must dominate the promised round.
		if !wc.Coords[0].Rnd().Less(a.Rnd()) {
			t.Errorf("recovered round %v does not dominate promised round %v", a.Rnd(), wc.Coords[0].Rnd())
		}
		before := snapshotLearned(wc.LearnedCmds)
		for i := 0; i < 8; i++ {
			wc.Prop.Propose(cstruct.Cmd{ID: uint64(200 + i), Key: "k"})
			wc.Sim.Run()
		}
		if got := len(wc.LearnedCmds); got != 8 {
			t.Fatalf("cluster learned %d/8 after promise-crash recovery", got)
		}
		wc.checkNoLossNoConflict(before)
	})
}

// TestWALRecoveryMidBatch crashes an acceptor in the middle of a batched,
// pipelined stream: some batch instances are accepted and on disk, others
// are still in flight. After restart every command of every batch must be
// learned exactly once, with no instance changing its value.
func TestWALRecoveryMidBatch(t *testing.T) {
	eachC(t, func(t *testing.T, c int) {
		wc := newWALCluster(t, ClusterOpts{NAcceptors: 3, F: 1, Seed: 13,
			NLearners: 2, MaxInflight: 4, CoordsPerShard: c})
		wc.Lead(0)

		const commands, batchSize = 32, 8
		bt := batch.NewBatcher(batchSize, 0, wc.Sim.Now, func(c cstruct.Cmd) {
			wc.Prop.Propose(c)
		})
		for i := 0; i < commands; i++ {
			bt.Add(cstruct.Cmd{ID: uint64(300 + i), Key: "k", Op: cstruct.OpWrite})
		}
		bt.Flush()

		// Deliver two communication steps' worth of events: the 2a messages
		// are out and the acceptors have persisted some batches, but learns
		// are still in flight — then kill acceptor 0 mid-stream.
		wc.Sim.RunUntil(wc.Sim.Now() + 2)
		mid := snapshotLearned(wc.LearnedCmds)
		wc.hardCrash(0)
		wc.Sim.Run()

		a := wc.restart(0)
		wc.Coords[0].BecomeLeaderAt(a.Rnd().MCount + 1)
		wc.Sim.Run()

		// Every command must be learned exactly once (batches unpacked;
		// replicas dedup by ID, so count distinct IDs).
		got := make(map[uint64]int)
		for _, cmd := range wc.LearnedCmds {
			if sub, ok := batch.Unpack(cmd); ok {
				for _, c := range sub {
					got[c.ID]++
				}
			} else {
				got[cmd.ID]++
			}
		}
		for i := 0; i < commands; i++ {
			id := uint64(300 + i)
			if got[id] == 0 {
				t.Errorf("command c%d lost across mid-batch crash", id)
			}
		}
		wc.checkNoLossNoConflict(mid)

		// And the cluster stays live with the recovered acceptor back in.
		wc.Prop.Propose(cstruct.Cmd{ID: 999, Key: "k"})
		wc.Sim.Run()
		found := false
		for _, cmd := range wc.LearnedCmds {
			if cmd.ID == 999 {
				found = true
			}
		}
		if !found {
			t.Error("cluster stopped deciding after mid-batch recovery")
		}
	})
}

// TestWALRecoveryShardedMidBatch is the sharded crash scenario: two
// concurrent shard-leaders drive batched, pipelined streams over their
// residue classes, an acceptor is hard-killed mid-stream with both shards
// active, and the restart must rebuild both shards' votes and round floors
// from ONE replayed log. Afterwards both leaders re-establish themselves and
// every command of every shard is learned exactly once, in a mergeable total
// order.
func TestWALRecoveryShardedMidBatch(t *testing.T) {
	eachC(t, func(t *testing.T, c int) {
		wc := newWALCluster(t, ClusterOpts{NAcceptors: 3, F: 1, Seed: 17,
			NLearners: 2, MaxInflight: 2, Shards: 2, CoordsPerShard: c})
		wc.LeadAll()

		const commands, batchSize = 48, 4
		router := batch.NewRouter(2, batchSize, 0, wc.Sim.Now, func(shard int, seq uint64, c cstruct.Cmd) {
			wc.Prop.ProposeSeq(shard, seq, c)
		})
		for i := 0; i < commands; i++ {
			router.Route(cstruct.Cmd{ID: uint64(400 + i), Key: "k", Op: cstruct.OpWrite})
		}
		router.FlushAll()

		// Let both shards persist a few batches, then kill acceptor 0 with
		// instances of BOTH residue classes in flight.
		wc.Sim.RunUntil(wc.Sim.Now() + 2)
		mid := snapshotLearned(wc.LearnedCmds)
		wc.hardCrash(0)
		wc.Sim.Run()

		a := wc.restart(0)
		// One replay must have rebuilt votes in both residue classes.
		shardsSeen := make(map[int]int)
		for inst := uint64(0); inst < uint64(commands); inst++ {
			if _, _, ok := a.Vote(inst); ok {
				shardsSeen[wc.Cfg.ShardOf(inst)]++
			}
		}
		if len(shardsSeen) != 2 {
			t.Fatalf("replayed votes cover shards %v, want both shards of one log", shardsSeen)
		}
		// Recovery bumps the incarnation for every shard's round floor.
		for shard := 0; shard < 2; shard++ {
			if a.ShardRnd(shard).MCount == 0 {
				t.Errorf("shard %d round floor not bumped on recovery", shard)
			}
		}

		// Both shard-leaders step to rounds dominating the recovered floors.
		wc.Coords[0].BecomeLeaderAt(a.Rnd().MCount + 1)
		wc.Coords[1].BecomeLeaderAt(a.Rnd().MCount + 1)
		wc.Sim.Run()

		// Every command learned exactly once (batches unpacked, dedup by ID).
		got := make(map[uint64]int)
		for _, cmd := range wc.LearnedCmds {
			if sub, ok := batch.Unpack(cmd); ok {
				for _, c := range sub {
					got[c.ID]++
				}
			} else {
				got[cmd.ID]++
			}
		}
		for i := 0; i < commands; i++ {
			id := uint64(400 + i)
			if got[id] == 0 {
				t.Errorf("command c%d lost across sharded mid-batch crash", id)
			}
		}
		wc.checkNoLossNoConflict(mid)

		// The learned instances merge back into one gapless total order.
		m := smr.NewMerger(nil)
		insts := make([]uint64, 0, len(wc.LearnedCmds))
		for inst := range wc.LearnedCmds {
			insts = append(insts, inst)
		}
		sort.Slice(insts, func(i, j int) bool { return insts[i] < insts[j] })
		for _, inst := range insts {
			m.Add(inst, wc.LearnedCmds[inst])
		}
		if m.Buffered() != 0 {
			t.Errorf("merged total order has a permanent gap at instance %d (%d buffered)",
				m.Next(), m.Buffered())
		}

		// Both shards keep deciding with the recovered acceptor back in.
		wc.Prop.ProposeTo(0, cstruct.Cmd{ID: 990, Key: "k"})
		wc.Prop.ProposeTo(1, cstruct.Cmd{ID: 991, Key: "k"})
		wc.Sim.Run()
		found := map[uint64]bool{}
		for _, cmd := range wc.LearnedCmds {
			found[cmd.ID] = true
		}
		if !found[990] || !found[991] {
			t.Errorf("shards stopped deciding after recovery: got 990=%v 991=%v", found[990], found[991])
		}
	})
}

// TestWALRecoveryMulticoordTallyReplay crashes a WAL-backed acceptor while
// it holds a partial coordinator tally (one of the required two matching
// 2as of a 3-member group arrived). The restart must replay the coord-vote
// state — round, tallied members and value — from the one log, alongside
// the votes, and the cluster must then drain a batched stream through the
// recovered deployment without losing or conflicting anything.
func TestWALRecoveryMulticoordTallyReplay(t *testing.T) {
	wc := newWALCluster(t, ClusterOpts{NAcceptors: 3, F: 1, Seed: 29,
		NLearners: 2, CoordsPerShard: 3})
	wc.LeadAll()
	r := wc.Coords[0].Rnd()

	// A real decided instance first, so the replay covers votes and tallies.
	wc.Prop.ProposeTo(0, cstruct.Cmd{ID: 800, Key: "k"})
	wc.Sim.Run()
	if _, ok := wc.LearnedCmds[0]; !ok {
		t.Fatal("baseline instance undecided")
	}

	// One member's 2a for instance 1 reaches acceptor 0 and nothing else:
	// a partial tally, persisted through the shard stream.
	wc.Accs[0].OnMessage(wc.Cfg.Coords[0], msg.P2a{
		Inst: 1, Rnd: r, Coord: wc.Cfg.Coords[0], Val: wrap(cstruct.Cmd{ID: 801, Key: "k"}),
	})
	wc.hardCrash(0)
	a := wc.restart(0)

	if _, _, ok := a.Vote(0); !ok {
		t.Error("decided instance's vote lost across restart")
	}
	tr, coords, ok := a.Tally(1)
	if !ok {
		t.Fatal("partial coordinator tally lost across restart")
	}
	if !tr.Equal(r) || len(coords) != 1 || coords[0] != wc.Cfg.Coords[0] {
		t.Errorf("replayed tally = (%v, %v), want (%v, [%v])", tr, coords, r, wc.Cfg.Coords[0])
	}
	if a.Rnd().MCount == 0 {
		t.Error("recovery did not bump the incarnation counter")
	}

	// The recovered deployment keeps deciding: a batched stream drains with
	// every command learned and no learner conflict (the recovered
	// acceptor's round floor forces the group into a higher round, which
	// re-forwards instance 1 too).
	mid := snapshotLearned(wc.LearnedCmds)
	const commands, batchSize = 24, 4
	// The proposer's own per-shard counter continues past the pre-crash
	// sequence numbers (a fresh router would restart at 0 and collide with
	// the decided instances).
	router := batch.NewRouter(1, batchSize, 0, wc.Sim.Now, func(shard int, _ uint64, c cstruct.Cmd) {
		wc.Prop.ProposeTo(shard, c)
	})
	for i := 0; i < commands; i++ {
		router.Route(cstruct.Cmd{ID: uint64(810 + i), Key: "k", Op: cstruct.OpWrite})
	}
	router.FlushAll()
	wc.Sim.Run()
	got := make(map[uint64]int)
	for _, cmd := range wc.LearnedCmds {
		if sub, ok := batch.Unpack(cmd); ok {
			for _, c := range sub {
				got[c.ID]++
			}
		} else {
			got[cmd.ID]++
		}
	}
	for i := 0; i < commands; i++ {
		if got[uint64(810+i)] == 0 {
			t.Errorf("command c%d lost after tally-replay recovery", 810+i)
		}
	}
	wc.checkNoLossNoConflict(mid)
}

// TestWALShardedRoundIsolation checks the per-shard round state: one
// shard-leader starting a new round must not stale-out the other shard's
// leader, and each shard's promise reports only that shard's votes.
func TestWALShardedRoundIsolation(t *testing.T) {
	wc := newWALCluster(t, ClusterOpts{NCoords: 2, NAcceptors: 3, F: 1, Seed: 19,
		NLearners: 2, Shards: 2})
	wc.LeadAll()
	for i := 0; i < 6; i++ {
		wc.Prop.ProposeTo(i%2, cstruct.Cmd{ID: uint64(500 + i), Key: "k", Op: cstruct.OpWrite})
	}
	wc.Sim.Run()
	if got := len(wc.LearnedCmds); got != 6 {
		t.Fatalf("learned %d/6 across two shards", got)
	}

	// Shard 1's leader starts a fresh round; shard 0's leader must stay
	// leading and able to decide without a round change.
	r0 := wc.Coords[0].Rnd()
	wc.Coords[1].BecomeLeader()
	wc.Sim.Run()
	if !wc.Coords[0].Leading() || !wc.Coords[0].Rnd().Equal(r0) {
		t.Fatalf("shard 0 leader disturbed by shard 1 round change (leading=%v rnd=%v, was %v)",
			wc.Coords[0].Leading(), wc.Coords[0].Rnd(), r0)
	}
	wc.Prop.ProposeTo(0, cstruct.Cmd{ID: 600, Key: "k"})
	wc.Sim.Run()
	learned := false
	for _, cmd := range wc.LearnedCmds {
		if cmd.ID == 600 {
			learned = true
		}
	}
	if !learned {
		t.Fatal("shard 0 could not decide after shard 1's round change")
	}

	// Acceptor per-shard rounds diverge: shard 1's is now higher.
	a := wc.Accs[0]
	if !a.ShardRnd(0).Less(a.ShardRnd(1)) {
		t.Errorf("expected shard 1 round %v above shard 0 round %v after shard 1 re-led",
			a.ShardRnd(1), a.ShardRnd(0))
	}
}
