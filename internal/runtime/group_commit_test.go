package runtime

import (
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mcpaxos/internal/ballot"
	"mcpaxos/internal/classic"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/node"
	"mcpaxos/internal/quorum"
	"mcpaxos/internal/wal"
)

// voteLog stands in for a learner: it records every 2b it observes, by
// acceptor and instance.
type voteLog struct {
	mu    sync.Mutex
	votes map[msg.NodeID]map[uint64]uint64 // acceptor → instance → command ID
}

func (v *voteLog) OnMessage(_ msg.NodeID, m msg.Message) {
	p2b, ok := m.(msg.P2b)
	if !ok {
		return
	}
	sv, _ := p2b.Val.(cstruct.SingleValue)
	cmd, _ := sv.Value()
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.votes[p2b.Acc] == nil {
		v.votes[p2b.Acc] = make(map[uint64]uint64)
	}
	v.votes[p2b.Acc][p2b.Inst] = cmd.ID
}

func (v *voteLog) count() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	n := 0
	for _, byInst := range v.votes {
		n += len(byInst)
	}
	return n
}

// TestAcceptorGroupCommitOverWAL is the acceptor's group commit on the
// goroutine host over real WALs, one acceptor per host as deployed, each
// host's route capturing its 2bs: 2as arriving while an fsync is under way
// queue in the mailbox and are committed by the next burst's one write, so
// under concurrent load an accepted instance costs less than one fsync. Every
// vote a 2b reported was durable before the 2b left: after all three
// acceptors restart — Stop, then a new host over the reopened WAL — each is
// back.
func TestAcceptorGroupCommitOverWAL(t *testing.T) {
	cfg := classic.Config{
		Coords:    []msg.NodeID{100},
		Acceptors: []msg.NodeID{200, 201, 202},
		Learners:  []msg.NodeID{300},
		Quorums:   quorum.MustAcceptorSystem(3, 1, 0),
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}

	// A disk that takes a millisecond per fsync, counted.
	var fsyncs atomic.Int64
	opts := wal.Options{Sync: func(f *os.File) error {
		fsyncs.Add(1)
		time.Sleep(time.Millisecond)
		return f.Sync()
	}}
	base := t.TempDir()
	seen := &voteLog{votes: make(map[msg.NodeID]map[uint64]uint64)}
	hosts := make(map[msg.NodeID]*Network)
	agents := make(map[msg.NodeID]*Agent)
	wals := make(map[msg.NodeID]*wal.WAL)
	// start hosts acceptor id on a new Network over its WAL, reopened if an
	// earlier incarnation had it open: that process is gone, its fd with it.
	start := func(id msg.NodeID) {
		if old := hosts[id]; old != nil {
			old.Stop()
			wals[id].Close()
		}
		w, err := wal.Open(filepath.Join(base, id.String()), opts)
		if err != nil {
			t.Fatalf("open wal for %v: %v", id, err)
		}
		wals[id] = w
		n := NewNetwork()
		n.SetFallback(func(from, _ msg.NodeID, m msg.Message) { seen.OnMessage(from, m) })
		hosts[id] = n
		agents[id] = n.Spawn(id, func(env node.Env) node.Handler { return classic.NewAcceptor(env, cfg, w) })
	}
	defer func() {
		for id, n := range hosts {
			n.Stop()
			wals[id].Close()
		}
	}()
	for _, id := range cfg.Acceptors {
		start(id)
	}

	const insts, senders = 96, 4
	begin := fsyncs.Load()
	r := ballot.Ballot{MinCount: 1, ID: 100}
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(g); i < insts; i += senders {
				m := msg.P2a{Inst: i, Rnd: r, Coord: 100, Val: cstruct.NewSingleValue(cstruct.Cmd{ID: 1000 + i})}
				for _, a := range agents {
					a.Inject(100, m)
				}
			}
		}()
	}
	wg.Wait()
	waitFor(t, "every acceptor's 2b for every instance", func() bool { return seen.count() == insts*len(agents) })
	got := fsyncs.Load() - begin
	if perInst := float64(got) / float64(insts*len(agents)); perInst >= 1 {
		t.Fatalf("%d fsyncs for %d accepted instances: %.2f per instance, want < 1", got, insts*len(agents), perInst)
	}
	t.Logf("%d fsyncs for %d accepted instances", got, insts*len(agents))

	seen.mu.Lock()
	observed := seen.votes
	seen.mu.Unlock()
	for _, id := range cfg.Acceptors {
		start(id)
		agents[id].Do(func(h node.Handler) {
			a := h.(*classic.Acceptor)
			for inst, cmd := range observed[id] {
				if _, v, ok := a.Vote(inst); !ok || v.ID != cmd {
					t.Errorf("acceptor %v lost its vote for instance %d across the restart (got %v, %v)", id, inst, v, ok)
				}
			}
		})
	}
}
