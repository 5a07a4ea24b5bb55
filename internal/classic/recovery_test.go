package classic

import (
	"cmp"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"mcpaxos/internal/ballot"
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
// segments and truncating any torn tail) and restart the node over the
// replayed store — building the replacement is the recovery (one incarnation
// write, Section 4.4).
func (wc *walCluster) restart(i int) *Acceptor {
	wc.t.Helper()
	w, err := wal.Open(wc.dirs[i], wal.Options{})
	if err != nil {
		wc.t.Fatalf("reopen wal %d: %v", i, err)
	}
	wc.Disks[i] = w
	wc.Restart(wc.Cfg.Acceptors[i])
	return wc.Accs[i]
}

// checkNoLossNoConflict asserts that every instance learned before the
// crash still holds the same command, and that the two learners never
// disagree on any instance.
func (wc *walCluster) checkNoLossNoConflict(before map[uint64]cstruct.Cmd) {
	wc.t.Helper()
	for inst, cmd := range before {
		got, ok := wc.LearnedCmds[inst]
		if !ok || !got.Equal(cmd) {
			wc.t.Errorf("instance %d: learned value changed across crash: had c%d, now %v (ok=%v)",
				inst, cmd.ID, got, ok)
		}
	}
	for inst := range wc.LearnedCmds {
		c0, ok0 := wc.Learners[0].Learned(inst)
		c1, ok1 := wc.Learners[1].Learned(inst)
		if ok0 && ok1 && !c0.Equal(c1) {
			wc.t.Errorf("instance %d: learners disagree: c%d vs c%d", inst, c0.ID, c1.ID)
		}
	}
}

// leadAt starts phase 1 on co at incarnation mcount, dominating the rounds a
// recovered acceptor may have joined before its crash.
func leadAt(co *Coordinator, mcount uint32) {
	co.startRound(ballot.SingleScheme{}.First(mcount, uint32(co.env.ID())))
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
			if !ok || !got.Equal(want) {
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
		leadAt(wc.Coords[0], a.Rnd().MCount+1)
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
		bt := batch.NewBatcher(batchSize, 0, wc.Sim.Now, func(c cstruct.Cmd, _ []cstruct.Cmd) {
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
		leadAt(wc.Coords[0], a.Rnd().MCount+1)
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
		leadAt(wc.Coords[0], a.Rnd().MCount+1)
		leadAt(wc.Coords[1], a.Rnd().MCount+1)
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
		m := smr.NewMerger(func(uint64, cstruct.Cmd) {})
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

// TestWALRecoveryPartialTallyIsVolatile crashes a WAL-backed acceptor while
// it holds a partial coordinator tally (one of the required two matching 2as
// of a 3-member group arrived). The tally cost no write and is not on disk:
// the restarted acceptor knows nothing of it, and the instance completes
// anyway, from the coordinators' ordinary retransmission. The cluster must
// then drain a batched stream through the recovered deployment without
// losing or conflicting anything.
func TestWALRecoveryPartialTallyIsVolatile(t *testing.T) {
	wc := newWALCluster(t, ClusterOpts{NAcceptors: 3, F: 1, Seed: 29,
		NLearners: 2, CoordsPerShard: 3, RetryEvery: 4})
	wc.LeadAll()

	// A real decided instance first, so the replay has a vote to restore.
	wc.Prop.ProposeTo(0, cstruct.Cmd{ID: 800, Key: "k"})
	wc.Sim.Run()
	if _, ok := wc.LearnedCmds[0]; !ok {
		t.Fatal("baseline instance undecided")
	}

	// With two of the three members down, instance 1 gets no further than a
	// one-member tally at every acceptor.
	wc.Sim.Crash(wc.Cfg.Coords[1])
	wc.Sim.Crash(wc.Cfg.Coords[2])
	writes := wc.TotalDiskWrites()
	wc.Prop.ProposeTo(0, cstruct.Cmd{ID: 801, Key: "k"})
	wc.Sim.RunUntil(wc.Sim.Now() + 20)
	if _, coords, ok := wc.Accs[0].Tally(1); !ok || len(coords) != 1 {
		t.Fatalf("partial tally = (%v, %v), want one member's 2a", coords, ok)
	}
	if got := wc.TotalDiskWrites() - writes; got != 0 {
		t.Errorf("partial tallies cost %d disk writes, want 0", got)
	}
	wc.hardCrash(0)
	a := wc.restart(0)

	if _, _, ok := a.Vote(0); !ok {
		t.Error("decided instance's vote lost across restart")
	}
	if _, _, ok := a.Tally(1); ok {
		t.Error("a partial tally came back from disk")
	}
	if _, ok := wc.Disks[0].Get("tally/1"); ok {
		t.Error("a tally record is on disk")
	}
	if a.Rnd().MCount == 0 {
		t.Error("recovery did not bump the incarnation counter")
	}

	// A second member returns, and with another acceptor down nothing decides
	// without the recovered one. Retransmitted 2as at the old round draw Stale
	// from it, the group moves above its floor and re-forwards instance 1: it
	// decides the value the lost tally held.
	wc.Sim.Crash(wc.Cfg.Acceptors[1])
	wc.Restart(wc.Cfg.Coords[1])
	wc.Sim.Run()
	if got, ok := wc.LearnedCmds[1]; !ok || got.ID != 801 {
		t.Fatalf("instance 1 learned %v (ok=%v) after the restart, want c801", got, ok)
	}
	if vrnd, got, ok := a.Vote(1); !ok || got.ID != 801 || vrnd.MCount != a.Rnd().MCount {
		t.Errorf("recovered acceptor's vote for instance 1 = c%d@%v (ok=%v), want c801 above its floor", got.ID, vrnd, ok)
	}

	// The recovered deployment keeps deciding: a batched stream drains with
	// every command learned and no learner conflict.
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

// parentSegment is an acceptor log as the build before this one wrote it, one
// frame a line: the first-start incarnation record (0); an accept at
// ⟨1:3,100⟩ — above that counter, which did not follow the joined rounds
// then; and a partial-tally record for instance 1 in the same round, a type
// nothing writes any more.
const parentSegment = `
00 00 00 0b 84 16 40 5a 01 01 06 6d 63 6f 75 6e 74 01 00
00 00 00 1f b8 23 55 eb 01 02 06 76 6f 74 65 2f 30 04 00 01 03 64 00 01 0a 01 6b 02 00 07 6d 61 78 69 6e 73 74 02 00
00 00 00 22 eb 6a a6 e2 01 02 07 74 61 6c 6c 79 2f 31 05 01 01 03 64 00 01 64 01 0b 01 6b 02 00 07 6d 61 78 69 6e 73 74 02 01`

// TestWALRecoveryFromParentDirectory: a log directory written by the previous
// build opens, replays its vote, drops the tally record, and the acceptor
// built over it recovers above the restored vote's round, not merely above
// its stored counter.
func TestWALRecoveryFromParentDirectory(t *testing.T) {
	seg, err := hex.DecodeString(strings.NewReplacer(" ", "", "\n", "").Replace(parentSegment))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "00000001.wal"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatalf("the parent's directory does not open: %v", err)
	}
	defer w.Close()
	if _, ok := w.Get("tally/1"); ok {
		t.Error("the tally record survived the replay")
	}

	cfg := NewCluster(ClusterOpts{NAcceptors: 3, F: 1, Seed: 1, CoordsPerShard: 3}).Cfg
	a := NewAcceptor(&sinkEnv{id: cfg.Acceptors[0]}, cfg, w)
	voted := ballot.Ballot{MCount: 1, MinCount: 3, ID: 100}
	if vrnd, cmd, ok := a.Vote(0); !ok || !vrnd.Equal(voted) || cmd.ID != 10 {
		t.Errorf("restored vote = c%d@%v (ok=%v), want c10@%v", cmd.ID, vrnd, ok, voted)
	}
	if _, _, ok := a.Tally(1); ok {
		t.Error("a tally came back from the parent's record")
	}
	if want := (ballot.Ballot{MCount: 2}); a.Rnd() != want {
		t.Errorf("recovered at %v, want %v: above the restored vote", a.Rnd(), want)
	}
	if got := w.Writes(); got != 1 {
		t.Errorf("recovery cost %d writes, want 1", got)
	}
}

// sinkEnv is a node.Env that keeps what its agent sends.
type sinkEnv struct {
	id   msg.NodeID
	sent []msg.Message
}

func (e *sinkEnv) ID() msg.NodeID                   { return e.id }
func (e *sinkEnv) Now() int64                       { return 0 }
func (e *sinkEnv) Send(_ msg.NodeID, m msg.Message) { e.sent = append(e.sent, m) }
func (e *sinkEnv) SetTimer(int64, int)              {}

// TestPromiseSurvivesRecovery: an acceptor rebuilt over its store answers no
// round it can have joined in its previous life (Section 4.4). It votes at
// round vote, promises round promise (another coordinator's) and restarts; a
// 2a at probe, between the two, must then be refused — when the whole
// exchange happens at an MCount some earlier recovery raised the cluster to
// (the acceptor's own restart count dominates nothing), and when a peer's
// recovery lifted the rounds after the vote.
func TestPromiseSurvivesRecovery(t *testing.T) {
	cfg := NewCluster(ClusterOpts{NCoords: 2, NAcceptors: 3, F: 1, Seed: 1}).Cfg
	for _, tc := range []struct {
		name                 string
		vote, promise, probe ballot.Ballot
	}{
		{"rounds already at the incarnation the restart reaches",
			ballot.Ballot{MCount: 1, MinCount: 3, ID: 100}, ballot.Ballot{MCount: 1, MinCount: 5, ID: 101}, ballot.Ballot{MCount: 1, MinCount: 4, ID: 100}},
		{"a peer's recovery lifted the rounds after the vote",
			ballot.Ballot{MinCount: 3, ID: 100}, ballot.Ballot{MCount: 1, MinCount: 5, ID: 101}, ballot.Ballot{MCount: 1, MinCount: 4, ID: 100}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env, disk := &sinkEnv{id: cfg.Acceptors[0]}, &storage.Disk{}
			a := NewAcceptor(env, cfg, disk)
			deliver(a, 100, msg.P2a{Inst: 0, Rnd: tc.vote, Coord: 100, Val: wrap(cstruct.Cmd{ID: 1})})
			if vrnd, _, ok := a.Vote(0); !ok || !vrnd.Equal(tc.vote) {
				t.Fatalf("no vote at %v before the crash", tc.vote)
			}
			deliver(a, 101, msg.P1a{Rnd: tc.promise, Coord: 101})
			if !a.Rnd().Equal(tc.promise) {
				t.Fatalf("joined %v, want the promised %v", a.Rnd(), tc.promise)
			}

			pre := disk.Writes()
			env.sent = nil
			a = NewAcceptor(env, cfg, disk)
			if got := disk.Writes() - pre; got != 1 {
				t.Errorf("recovery cost %d writes, want 1", got)
			}
			if !tc.promise.Less(a.Rnd()) {
				t.Errorf("recovered at %v, not above the promised %v", a.Rnd(), tc.promise)
			}
			deliver(a, 100, msg.P2a{Inst: 1, Rnd: tc.probe, Coord: 100, Val: wrap(cstruct.Cmd{ID: 2})})
			if _, _, ok := a.Vote(1); ok {
				t.Errorf("voted at %v after promising %v", tc.probe, tc.promise)
			}
			var st msg.Stale
			if len(env.sent) == 1 {
				st, _ = env.sent[0].(msg.Stale)
			}
			if !tc.promise.Less(st.Rnd) {
				t.Errorf("the 2a at %v drew %v, want one Stale above %v", tc.probe, env.sent, tc.promise)
			}
		})
	}
}

// An acceptor's promise is a function of its state: an acceptor holding 16
// votes of one shard answers 8 repeated 1as for one round with the votes in
// ascending instance order every time, not in map iteration order.
func TestPromiseVotesInInstanceOrder(t *testing.T) {
	cfg := NewCluster(ClusterOpts{NAcceptors: 3, F: 1, Seed: 1}).Cfg
	env := &sinkEnv{id: cfg.Acceptors[0]}
	a := NewAcceptor(env, cfg, &storage.Disk{})
	owner := cfg.Coords[0]
	r := ballot.Ballot{MinCount: 1, ID: uint32(owner)}
	const n = 16
	for inst, held := uint64(0), 0; held < n; inst++ {
		if cfg.ShardOf(inst) != 0 {
			continue
		}
		held++
		for _, co := range cfg.RoundGroup(0, r) {
			deliver(a, co, msg.P2a{Inst: inst, Rnd: r, Coord: co, Val: wrap(cstruct.Cmd{ID: inst + 1})})
		}
	}
	for try := 0; try < 8; try++ {
		env.sent = nil
		deliver(a, owner, msg.P1a{Rnd: r, Coord: owner})
		if len(env.sent) == 0 {
			t.Fatalf("1a %d drew no promise", try)
		}
		for _, m := range env.sent {
			p := m.(msg.P1bMulti)
			if len(p.Votes) != n || !slices.IsSortedFunc(p.Votes, func(x, y msg.InstVote) int { return cmp.Compare(x.Inst, y.Inst) }) {
				insts := make([]uint64, len(p.Votes))
				for i, v := range p.Votes {
					insts[i] = v.Inst
				}
				t.Fatalf("1a %d: promise reports instances %v, want %d in ascending order", try, insts, n)
			}
		}
	}
}
