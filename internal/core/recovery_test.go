package core

import (
	"fmt"
	"path/filepath"
	"testing"

	"mcpaxos/internal/ballot"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/storage"
	"mcpaxos/internal/wal"
)

// Crash-recovery scenario tests for WAL-backed Multicoordinated Paxos
// acceptors: a hard kill destroys the process (volatile state and file
// descriptors); the restarted acceptor has only its log directory. The
// learned c-struct must keep growing compatibly — nothing learned before
// the crash may be lost, and no learner may adopt a conflicting extension.

type walCoreCluster struct {
	*Cluster
	t    *testing.T
	dirs []string
}

func newWALCoreCluster(t *testing.T, o ClusterOpts) *walCoreCluster {
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
	return &walCoreCluster{Cluster: NewCluster(o), t: t, dirs: dirs}
}

func (wc *walCoreCluster) hardCrash(i int) {
	wc.Sim.Crash(wc.Cfg.Acceptors[i])
	wc.Disks[i].(*wal.WAL).Close()
}

// restart reopens acceptor i's log directory and restarts the node over the
// replayed store: building the replacement is the recovery.
func (wc *walCoreCluster) restart(i int) *Acceptor {
	wc.t.Helper()
	w, err := wal.Open(wc.dirs[i], wal.Options{})
	if err != nil {
		wc.t.Fatalf("reopen wal %d: %v", i, err)
	}
	wc.Disks[i] = w
	wc.Restart(wc.Cfg.Acceptors[i])
	return wc.Accs[i]
}

// TestWALRecoveryCoreAfterAccept crashes an acceptor after it accepted a
// c-struct carrying several commands; the replayed store must rebuild the
// exact accepted value (via its representative command sequence and the
// deployment's c-struct set), and the cluster must keep agreeing.
func TestWALRecoveryCoreAfterAccept(t *testing.T) {
	wc := newWALCoreCluster(t, ClusterOpts{NCoords: 3, NAcceptors: 3, F: 1,
		Seed: 3, NLearners: 2, Set: cstruct.NewHistorySet(cstruct.KeyConflict)})
	wc.Start(0)
	// cmd is the i-th command proposed, command ID 1+i.
	cmd := func(i int) cstruct.Cmd { return cstruct.Cmd{ID: uint64(1 + i), Key: fmt.Sprintf("k%d", i)} }
	for i := 0; i < 4; i++ {
		wc.Props[0].Propose(cmd(i))
		wc.Sim.Run()
	}
	acceptedBefore := wc.Accs[0].VVal().Commands()
	if len(acceptedBefore) != 4 {
		t.Fatalf("acceptor 0 accepted %d/4 commands before crash", len(acceptedBefore))
	}
	vrndBefore := wc.Accs[0].VRnd()
	learnedBefore := make(map[uint64]bool)
	for id := range wc.LearnTimes {
		learnedBefore[id] = true
	}

	wc.hardCrash(0)
	// The surviving quorum keeps extending the learned c-struct.
	for i := 4; i < 7; i++ {
		wc.Props[0].Propose(cmd(i))
		wc.Sim.Run()
	}

	a := wc.restart(0)
	for _, c := range acceptedBefore {
		if !a.VVal().Contains(c) {
			t.Errorf("restarted acceptor lost accepted command c%d", c.ID)
		}
	}
	if !a.VRnd().Equal(vrndBefore) {
		t.Errorf("restored vrnd = %v, want %v", a.VRnd(), vrndBefore)
	}
	if a.Rnd().MCount == 0 {
		t.Error("recovery did not bump the incarnation counter")
	}

	// Re-integrate via a round that dominates the recovered incarnation,
	// then keep proposing.
	wc.Coords[0].StartRound(wc.Cfg.Scheme.First(a.Rnd().MCount+1, uint32(wc.Cfg.Coords[0])))
	wc.Sim.Run()
	for i := 7; i < 10; i++ {
		wc.Props[0].Propose(cmd(i))
		wc.Sim.Run()
	}

	// No learned command is lost, every new command is learned, and the
	// learners' c-structs stay compatible (Consistency).
	learned := wc.Learners[0].Learned()
	for i := 0; i < 10; i++ {
		if !learned.Contains(cmd(i)) {
			t.Errorf("command c%d missing from learned c-struct after recovery", 1+i)
		}
	}
	for id := range learnedBefore {
		if !learned.Contains(cmd(int(id) - 1)) {
			t.Errorf("pre-crash learned command c%d lost", id)
		}
	}
	if !wc.Agreement() {
		t.Error("learners learned incompatible c-structs after recovery")
	}
}

// TestWALRecoveryCoreAfterPromise crashes an acceptor that joined the round
// but never accepted anything: restart must yield an empty accepted value
// at bottom, a dominating incarnation, and undisturbed progress.
func TestWALRecoveryCoreAfterPromise(t *testing.T) {
	wc := newWALCoreCluster(t, ClusterOpts{NCoords: 3, NAcceptors: 3, F: 1,
		Seed: 5, NLearners: 2, Set: cstruct.NewHistorySet(cstruct.KeyConflict)})
	wc.Start(0) // phase 1 ran: every acceptor promised, none accepted
	promised := wc.Accs[0].Rnd()
	wc.hardCrash(0)
	a := wc.restart(0)
	if got := a.VVal().Commands(); len(got) != 0 {
		t.Errorf("promise-only acceptor restored %d accepted commands", len(got))
	}
	if !promised.Less(a.Rnd()) {
		t.Errorf("recovered round %v does not dominate promised %v", a.Rnd(), promised)
	}
	cmd := func(i int) cstruct.Cmd { return cstruct.Cmd{ID: uint64(50 + i), Key: fmt.Sprintf("k%d", i)} }
	for i := 0; i < 6; i++ {
		wc.Props[0].Propose(cmd(i))
		wc.Sim.Run()
	}
	learned := wc.Learners[0].Learned()
	for i := 0; i < 6; i++ {
		if !learned.Contains(cmd(i)) {
			t.Errorf("command c%d not learned after promise-crash recovery", 50+i)
		}
	}
	if !wc.Agreement() {
		t.Error("learners disagree after promise-crash recovery")
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
	cfg := NewCluster(ClusterOpts{NCoords: 2, NAcceptors: 3, F: 1, Seed: 1,
		Scheme: ballot.SingleScheme{}, Set: cstruct.SingleValueSet{}}).Cfg
	checkPromiseSurvivesRecovery(t, cfg, 101)
}

// TestFastPromiseSurvives: the same under Fast Paxos's rounds, where the one
// coordinator both votes the acceptor and later promises it.
func TestFastPromiseSurvives(t *testing.T) {
	checkPromiseSurvivesRecovery(t, fastCluster(cstruct.SingleValueSet{}, ballot.FastScheme{}, Coordinated).Cfg, 100)
}

// checkPromiseSurvivesRecovery runs both cases over cfg; coordinator 100 sends
// the 2as and promiser the 1a.
func checkPromiseSurvivesRecovery(t *testing.T, cfg Config, promiser msg.NodeID) {
	t.Helper()
	pid := uint32(promiser)
	for _, tc := range []struct {
		name                 string
		vote, promise, probe ballot.Ballot
	}{
		{"rounds already at the incarnation the restart reaches",
			ballot.Ballot{MCount: 1, MinCount: 3, ID: 100}, ballot.Ballot{MCount: 1, MinCount: 5, ID: pid}, ballot.Ballot{MCount: 1, MinCount: 4, ID: 100}},
		{"a peer's recovery lifted the rounds after the vote",
			ballot.Ballot{MinCount: 3, ID: 100}, ballot.Ballot{MCount: 1, MinCount: 5, ID: pid}, ballot.Ballot{MCount: 1, MinCount: 4, ID: 100}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env, disk := &sinkEnv{id: cfg.Acceptors[0]}, &storage.Disk{}
			a := NewAcceptor(env, cfg, disk)
			a.OnMessage(100, msg.P2a{Rnd: tc.vote, Coord: 100, Val: cstruct.NewSingleValue(cstruct.Cmd{ID: 1})})
			if !a.VRnd().Equal(tc.vote) {
				t.Fatalf("no vote at %v before the crash", tc.vote)
			}
			a.OnMessage(promiser, msg.P1a{Rnd: tc.promise, Coord: promiser})
			if !a.Rnd().Equal(tc.promise) {
				t.Fatalf("joined %v, want the promised %v", a.Rnd(), tc.promise)
			}

			pre := disk.Writes()
			env.sent = nil
			a = NewAcceptor(env, cfg, disk)
			if got := disk.Writes() - pre; got != 1 {
				t.Errorf("recovery cost %d writes, want 1", got)
			}
			a.OnMessage(100, msg.P2a{Rnd: tc.probe, Coord: 100, Val: cstruct.NewSingleValue(cstruct.Cmd{ID: 2})})
			if !a.VRnd().Equal(tc.vote) {
				t.Errorf("voted at %v after promising %v", a.VRnd(), tc.promise)
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
