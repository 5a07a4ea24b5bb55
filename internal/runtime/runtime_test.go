package runtime

import (
	"fmt"
	"path/filepath"
	rt "runtime"
	"sync"
	"testing"
	"time"

	"mcpaxos/internal/core"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/node"
	"mcpaxos/internal/quorum"
	"mcpaxos/internal/storage"
	"mcpaxos/internal/wal"

	"mcpaxos/internal/ballot"
)

type collector struct {
	mu  sync.Mutex
	got []msg.Message
}

func (c *collector) OnMessage(_ msg.NodeID, m msg.Message) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.got = append(c.got, m)
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.got)
}

func TestNetworkDelivers(t *testing.T) {
	n := NewNetwork()
	defer n.Stop()
	recv := &collector{}
	n.Spawn(2, func(node.Env) node.Handler { return recv })
	sender := n.Spawn(1, func(node.Env) node.Handler { return &collector{} })
	_ = sender
	n.Send(1, 2, msg.Heartbeat{From: 1})
	deadline := time.Now().Add(2 * time.Second)
	for recv.count() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if recv.count() != 1 {
		t.Fatalf("message not delivered")
	}
}

func TestAgentDoSerializes(t *testing.T) {
	n := NewNetwork()
	defer n.Stop()
	c := &collector{}
	ag := n.Spawn(1, func(node.Env) node.Handler { return c })
	ran := false
	ag.Do(func(h node.Handler) { ran = h == c })
	if !ran {
		t.Fatalf("Do did not run on the handler")
	}
}

// selfCaller is a handler that calls back into its own agent via Do when it
// receives a message — the re-entrant pattern that used to deadlock.
type selfCaller struct {
	agent *Agent
	ran   chan struct{}
}

func (s *selfCaller) OnMessage(_ msg.NodeID, m msg.Message) {
	if _, ok := m.(msg.Heartbeat); !ok {
		return
	}
	s.agent.Do(func(node.Handler) {
		close(s.ran)
	})
}

// TestAgentDoFromOwnGoroutine is the regression test for the Do self-call
// deadlock: a handler invoking Do on its own agent (directly or nested) must
// run the closure inline instead of waiting on its own mailbox forever.
func TestAgentDoFromOwnGoroutine(t *testing.T) {
	n := NewNetwork()
	defer n.Stop()
	sc := &selfCaller{ran: make(chan struct{})}
	sc.agent = n.Spawn(1, func(node.Env) node.Handler { return sc })
	sc.agent.Inject(2, msg.Heartbeat{From: 2})
	select {
	case <-sc.ran:
	case <-time.After(3 * time.Second):
		t.Fatal("Do from the agent's own goroutine deadlocked")
	}

	// Nested Do inside Do must also run inline.
	nested := false
	sc.agent.Do(func(node.Handler) {
		sc.agent.Do(func(node.Handler) { nested = true })
	})
	if !nested {
		t.Fatal("nested Do did not run")
	}
}

// TestAgentDoSurvivesGoexit: a closure that exits the mailbox goroutine (what
// a t.Fatal inside Do does) must release its caller at once, and leave the
// agent stopped — later Do and Inject calls return instead of queueing for a
// goroutine that is gone.
func TestAgentDoSurvivesGoexit(t *testing.T) {
	n := NewNetwork()
	defer n.Stop()
	c := &collector{}
	a := n.Spawn(1, func(node.Env) node.Handler { return c })
	returned := make(chan struct{})
	go func() {
		defer close(returned)
		a.Do(func(node.Handler) { rt.Goexit() })
		ran := false
		a.Do(func(node.Handler) { ran = true })
		if ran {
			t.Error("Do ran a closure on an agent whose mailbox goroutine had exited")
		}
		for i := 0; i < 2*cap(a.inbox); i++ {
			a.Inject(2, msg.Heartbeat{From: 2}) // would block once the dead inbox filled
		}
	}()
	select {
	case <-returned:
	case <-time.After(time.Second):
		t.Fatal("Do, or a later Do or Inject, blocked after the closure exited the mailbox goroutine")
	}
	if c.count() != 0 {
		t.Errorf("%d messages reached the handler of a dead mailbox", c.count())
	}
}

// TestLiveMulticoordinatedDeployment runs the full core protocol over the
// goroutine network: three coordinators, three acceptors, one learner.
func TestLiveMulticoordinatedDeployment(t *testing.T) {
	n := NewNetwork()
	defer n.Stop()

	cfg := core.Config{
		Coords:    []msg.NodeID{100, 101, 102},
		Acceptors: []msg.NodeID{200, 201, 202},
		Learners:  []msg.NodeID{300},
		Quorums:   quorum.MustAcceptorSystem(3, 1, 0),
		CoordQ:    quorum.MustCoordSystem(3),
		Scheme:    ballot.MultiScheme{},
		Set:       cstruct.NewHistorySet(cstruct.KeyConflict),
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}

	var coords []*Agent
	for _, id := range cfg.Coords {
		coords = append(coords, n.Spawn(id, func(env node.Env) node.Handler {
			return core.NewCoordinator(env, cfg)
		}))
	}
	for _, id := range cfg.Acceptors {
		disk := &storage.Disk{}
		n.Spawn(id, func(env node.Env) node.Handler {
			return core.NewAcceptor(env, cfg, disk)
		})
	}
	var mu sync.Mutex
	learned := make(map[uint64]bool)
	n.Spawn(300, func(env node.Env) node.Handler {
		return core.NewLearner(env, cfg, func(_ cstruct.CStruct, fresh []cstruct.Cmd) {
			mu.Lock()
			defer mu.Unlock()
			for _, c := range fresh {
				learned[c.ID] = true
			}
		})
	})
	var prop *core.Proposer
	propAgent := n.Spawn(1, func(env node.Env) node.Handler {
		prop = core.NewProposer(env, cfg, 1)
		return prop
	})

	// Start the first round from coordinator 100.
	coords[0].Do(func(h node.Handler) {
		h.(*core.Coordinator).StartRound(cfg.Scheme.First(0, 100))
	})
	time.Sleep(50 * time.Millisecond)

	const total = 10
	for i := 0; i < total; i++ {
		i := i
		propAgent.Do(func(node.Handler) {
			prop.Propose(cstruct.Cmd{ID: uint64(1 + i), Key: fmt.Sprintf("k%d", i)})
		})
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		got := len(learned)
		mu.Unlock()
		if got == total {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("live deployment learned %d/%d", got, total)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRestartRecoversAcceptorFromWAL is the runtime half of the recovery
// path: a WAL-backed acceptor on the goroutine host is crash-restarted via
// Network.Restart, its replacement replays the log, and the accepted value
// it voted for before the crash must still be there (with the incarnation
// counter bumped so its round outruns every pre-crash promise).
func TestRestartRecoversAcceptorFromWAL(t *testing.T) {
	n := NewNetwork()
	defer n.Stop()

	cfg := core.Config{
		Coords:    []msg.NodeID{100},
		Acceptors: []msg.NodeID{200, 201, 202},
		Learners:  []msg.NodeID{300},
		Quorums:   quorum.MustAcceptorSystem(3, 1, 0),
		CoordQ:    quorum.MustCoordSystem(1),
		Scheme:    ballot.MultiScheme{},
		Set:       cstruct.NewHistorySet(cstruct.KeyConflict),
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}

	base := t.TempDir()
	wals := make(map[msg.NodeID]*wal.WAL)
	openWAL := func(id msg.NodeID) *wal.WAL {
		w, err := wal.Open(filepath.Join(base, id.String()), wal.Options{})
		if err != nil {
			t.Fatalf("open wal for %v: %v", id, err)
		}
		return w
	}

	coord := n.Spawn(100, func(env node.Env) node.Handler {
		return core.NewCoordinator(env, cfg)
	})
	accAgents := make(map[msg.NodeID]*Agent)
	for _, id := range cfg.Acceptors {
		id := id
		w := openWAL(id)
		wals[id] = w
		accAgents[id] = n.Spawn(id, func(env node.Env) node.Handler {
			return core.NewAcceptor(env, cfg, w)
		})
	}
	var mu sync.Mutex
	learned := make(map[uint64]bool)
	n.Spawn(300, func(env node.Env) node.Handler {
		return core.NewLearner(env, cfg, func(_ cstruct.CStruct, fresh []cstruct.Cmd) {
			mu.Lock()
			defer mu.Unlock()
			for _, c := range fresh {
				learned[c.ID] = true
			}
		})
	})
	var prop *core.Proposer
	propAgent := n.Spawn(1, func(env node.Env) node.Handler {
		prop = core.NewProposer(env, cfg, 1)
		return prop
	})
	coord.Do(func(h node.Handler) {
		h.(*core.Coordinator).StartRound(cfg.Scheme.First(0, 100))
	})
	time.Sleep(50 * time.Millisecond)

	const total = 5
	for i := 0; i < total; i++ {
		i := i
		propAgent.Do(func(node.Handler) {
			prop.Propose(cstruct.Cmd{ID: uint64(1 + i), Key: fmt.Sprintf("k%d", i)})
		})
	}
	waitFor := func(want int) {
		deadline := time.Now().Add(5 * time.Second)
		for {
			mu.Lock()
			got := len(learned)
			mu.Unlock()
			if got >= want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("learned %d/%d", got, want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitFor(total)

	// Learning needs only a 2-of-3 quorum, which may exclude acceptor
	// 200: wait until 200 itself has processed (and so persisted) every
	// command before crashing it, or the loss check below would blame the
	// WAL for a message still sitting in the dead agent's inbox.
	accepted := func() bool {
		all := true
		accAgents[200].Do(func(h node.Handler) {
			vval := h.(*core.Acceptor).VVal()
			for i := 0; i < total; i++ {
				if !vval.Contains(cstruct.Cmd{ID: uint64(1 + i)}) {
					all = false
					return
				}
			}
		})
		return all
	}
	for deadline := time.Now().Add(5 * time.Second); !accepted(); {
		if time.Now().After(deadline) {
			t.Fatal("acceptor 200 never accepted all commands")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Hard-restart acceptor 200: the old agent dies with its volatile
	// state, the replacement replays the WAL from disk.
	restarted := n.Restart(200, func(env node.Env) node.Handler {
		wals[200].Close() // the old process's fd dies with it
		w := openWAL(200)
		wals[200] = w
		return core.NewAcceptor(env, cfg, w)
	})
	restarted.Do(func(h node.Handler) {
		a := h.(*core.Acceptor)
		vval := a.VVal()
		for i := 0; i < total; i++ {
			if !vval.Contains(cstruct.Cmd{ID: uint64(1 + i)}) {
				t.Errorf("restarted acceptor lost accepted command %d", 1+i)
			}
		}
		if a.Rnd().MCount == 0 {
			t.Error("recovery did not bump the incarnation counter")
		}
	})

	// The cluster must still make progress (quorum of up acceptors).
	for i := total; i < total+3; i++ {
		i := i
		propAgent.Do(func(node.Handler) {
			prop.Propose(cstruct.Cmd{ID: uint64(1 + i), Key: fmt.Sprintf("k%d", i)})
		})
	}
	waitFor(total + 3)
}
