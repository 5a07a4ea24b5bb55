package deploy

import (
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"mcpaxos/internal/classic"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/node"
	"mcpaxos/internal/runtime"
	"mcpaxos/internal/snapshot"
	"mcpaxos/internal/storage"
	"mcpaxos/internal/transport"
	"mcpaxos/internal/wal"
)

// endpoint is one node's attachment to the deployment — replica node or
// client alike: its own mailbox runtime, the agent running its handler, and
// its own TCP transport.
type endpoint struct {
	net   *runtime.Network
	agent *runtime.Agent
	tcp   *transport.TCP
}

// openEndpoint routes the handler build returns: it binds (or adopts) id's
// listener, hosts the handler on a mailbox goroutine, and connects the two —
// inbound frames are injected into the mailbox, and everything the handler
// sends leaves through the socket. When it returns the node can receive and
// send, but has taken no step of its own: whoever owns the endpoint starts
// the handler afterwards, so a node's first message never precedes its route.
// build must not fail; open what can (WAL, snapshot store) before calling.
func openEndpoint(spec ClusterSpec, id msg.NodeID, build func(node.Env) node.Handler) (*endpoint, error) {
	addrs := spec.addrs()
	ln, err := spec.listen(addrs[id])
	if err != nil {
		return nil, err
	}
	e := &endpoint{net: runtime.NewNetwork()}
	e.net.Tick = tick
	// The node's network is its one fault hook: it adjudicates every send
	// before the socket sees it, and skews the node's timers.
	e.net.SetFaults(spec.Faults)
	e.agent = e.net.Spawn(id, build)
	e.tcp = transport.NewTCPOnListener(id, ln, addrs, transport.Codec{Set: cstruct.SingleValueSet{}},
		func(from msg.NodeID, m msg.Message) { e.agent.Inject(from, m) })
	// A lost connection is failure evidence, delivered to the handler like any
	// message (msg.PeerDown). It comes off the transport's own goroutine, never
	// from inside a Send: the sender may be this node's mailbox, and a mailbox
	// that enqueues into itself deadlocks once it is full.
	e.tcp.OnPeerDown(func(peer msg.NodeID) { e.agent.Inject(id, msg.PeerDown{Node: peer}) })
	e.net.SetFallback(func(_, to msg.NodeID, m msg.Message) {
		_ = e.tcp.Send(to, m) // send failure is message loss, which the model allows
	})
	return e, nil
}

// stop stops the mailbox before the socket, so a delayed copy that lands in
// between finds no route instead of a closed transport.
func (e *endpoint) stop() {
	e.net.Stop()
	e.tcp.Close()
}

// Replica runs one process's share of a deployment: any subset of the
// spec's coordinator, acceptor and learner nodes, each hosted on its own
// mailbox goroutine behind its own TCP endpoint. All protocol traffic —
// even between two nodes of the same Replica — crosses the TCP transport,
// so one process per node and all nodes in one process behave identically.
//
// Every node comes up in three steps, in this order: its handler is built
// over already-opened stable storage, the handler is routed (openEndpoint),
// and only then is it started (start).
type Replica struct {
	spec ClusterSpec
	cfg  classic.Config

	mu    sync.Mutex
	nodes map[msg.NodeID]*endpoint
	// wals holds the hosted acceptors' durable logs (none without a WALDir):
	// they close with their node, as a process death would.
	wals map[msg.NodeID]*wal.WAL
}

// Open starts the given nodes of the spec in this process; with no IDs it
// opens every coordinator, acceptor and learner (a single-process
// deployment). No node is started before every locally hosted node is
// reachable: shard primaries then start their shard's round and learners
// probe their peers; the stack's retransmission makes bring-up robust to
// ordering across processes as long as the acceptors are reachable.
func Open(spec ClusterSpec, ids ...uint32) (*Replica, error) {
	cfg, err := spec.config()
	if err != nil {
		return nil, err
	}
	if len(ids) == 0 {
		for _, group := range [][]NodeSpec{spec.Coords, spec.Acceptors, spec.Learners} {
			for _, n := range group {
				ids = append(ids, n.ID)
			}
		}
	}
	r := &Replica{
		spec:  spec,
		cfg:   cfg,
		nodes: make(map[msg.NodeID]*endpoint),
		wals:  make(map[msg.NodeID]*wal.WAL),
	}
	for _, id := range ids {
		if err := r.openNode(msg.NodeID(id)); err != nil {
			r.Close()
			return nil, err
		}
	}
	for _, id := range ids {
		r.start(msg.NodeID(id), false)
	}
	return r, nil
}

// roleOf locates id in the spec and returns its role and index.
func (r *Replica) roleOf(id msg.NodeID) (role string, idx int) {
	if i := slices.Index(r.cfg.Coords, id); i >= 0 {
		return "coordinator", i
	}
	if i := slices.Index(r.cfg.Acceptors, id); i >= 0 {
		return "acceptor", i
	}
	if i := slices.Index(r.cfg.Learners, id); i >= 0 {
		return "learner", i
	}
	return "", -1
}

// host returns the endpoint of hosted node id.
func (r *Replica) host(id msg.NodeID) (*endpoint, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.nodes[id]
	return e, ok
}

// newCoordinator builds the coordinator node of spec over env, the recipe of
// every coordinator the deployment hosts.
func newCoordinator(env node.Env, cfg classic.Config, spec ClusterSpec) *classic.Coordinator {
	c := classic.NewCoordinator(env, cfg)
	c.MaxInflight = spec.Window
	// Coordinator 2a retransmission backstops lost accepts only; the
	// client already retries lost proposals at the base interval, so
	// the coordinators run much cooler — under a drain burst a hot
	// retransmitter amplifies itself (every duplicate 2a draws
	// re-announcements from the acceptors).
	c.RetryEvery = 4 * spec.retryTicks()
	// Server-side ingress: unsequenced client submissions batch and
	// stamp at whichever group member they reach.
	c.IngressBatchMax = spec.batchMax()
	c.IngressBatchWait = spec.batchWaitTicks()
	return c
}

// openNode builds and routes one node; the caller starts it.
func (r *Replica) openNode(id msg.NodeID) error {
	role, _ := r.roleOf(id)
	if role == "" {
		return fmt.Errorf("deploy: node %v is not a coordinator, acceptor or learner of the spec", id)
	}
	if _, dup := r.host(id); dup {
		return fmt.Errorf("deploy: node %v already hosted", id)
	}
	var w *wal.WAL
	var build func(node.Env) node.Handler
	switch role {
	case "coordinator":
		build = func(env node.Env) node.Handler { return newCoordinator(env, r.cfg, r.spec) }
	case "acceptor":
		var disk storage.Stable = &storage.Disk{}
		if r.spec.WALDir != "" {
			var err error
			w, err = wal.Open(filepath.Join(r.spec.WALDir, fmt.Sprintf("acc-%d", uint32(id))), wal.Options{})
			if err != nil {
				return fmt.Errorf("deploy: acceptor %v wal: %w", id, err)
			}
			disk = w
		}
		build = func(env node.Env) node.Handler { return classic.NewAcceptor(env, r.cfg, disk) }
	default: // learner
		snapDir := ""
		if r.spec.SnapshotDir != "" {
			snapDir = filepath.Join(r.spec.SnapshotDir, fmt.Sprintf("learner-%d", uint32(id)))
		}
		snaps, err := snapshot.OpenStore(snapDir)
		if err != nil {
			return fmt.Errorf("deploy: learner %v snapshots: %w", id, err)
		}
		build = func(env node.Env) node.Handler { return newLearner(env, r.cfg, r.spec, snaps) }
	}
	e, err := openEndpoint(r.spec, id, build)
	if err != nil {
		if w != nil {
			w.Close()
		}
		return err
	}
	r.mu.Lock()
	r.nodes[id] = e
	if w != nil {
		r.wals[id] = w
	}
	r.mu.Unlock()
	return nil
}

// start takes routed node id's first protocol step, the only step a node
// takes unprompted. On first bring-up a shard's primary (coordinator k of
// shard k) starts the round — acceptors broadcast their promises to the whole
// group, so one 1a establishes it at every member — and a learner sends its
// first catch-up probe: on a fresh deployment the peers answer "nothing
// newer" and it syncs at once. A restarted node rebuilds the volatile state
// its crash lost: a coordinator repairs its round state by probing the
// acceptors (classic.Coordinator.Repair) and rejoins the live round with zero
// round changes, so abandoned slots decide instead of retransmitting forever;
// a learner's probe begins the pull of the decided prefix from its peers. An
// acceptor takes no step here: building it over its WAL was its recovery
// (openNode), on a restart and on a whole-process reopen of a WALDir alike.
func (r *Replica) start(id msg.NodeID, restarted bool) {
	e, ok := r.host(id)
	if !ok {
		return // killed since it was routed
	}
	e.agent.Do(func(hd node.Handler) {
		switch n := hd.(type) {
		case *classic.Coordinator:
			if restarted {
				n.Repair()
			} else if _, idx := r.roleOf(id); idx < r.cfg.NShards() {
				n.BecomeLeader()
			}
		case *learner:
			n.fetch.Start()
		}
	})
}

// Hosted lists the node IDs this Replica runs (killed nodes excluded).
func (r *Replica) Hosted() []uint32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]uint32, 0, len(r.nodes))
	for id := range r.nodes {
		out = append(out, uint32(id))
	}
	return out
}

// Kill crash-stops one hosted node: its endpoint closes, its mailbox stops,
// and (for acceptors) its WAL closes as a process death would. Messages to
// it are lost from then on. It reports whether the node was hosted.
func (r *Replica) Kill(id uint32) bool {
	r.mu.Lock()
	e, ok := r.nodes[msg.NodeID(id)]
	w := r.wals[msg.NodeID(id)]
	delete(r.nodes, msg.NodeID(id))
	delete(r.wals, msg.NodeID(id))
	r.mu.Unlock()
	if !ok {
		return false
	}
	e.stop()
	if w != nil {
		w.Close()
	}
	return true
}

// Restart brings a previously killed (or never-opened) node of the spec
// back up, rebuilding its handler from scratch the way a process restart
// would — a WAL-backed acceptor recovers from stable storage (its votes, and
// a round above any its previous life joined), a learner reloads its newest
// durable snapshot — and starting it as restarted (see start).
func (r *Replica) Restart(id uint32) error {
	if err := r.openNode(msg.NodeID(id)); err != nil {
		return err
	}
	r.start(msg.NodeID(id), true)
	return nil
}

// Close stops every hosted node.
func (r *Replica) Close() error {
	for _, id := range r.Hosted() {
		r.Kill(id)
	}
	return nil
}

// WaitApplied blocks until learner id has applied n distinct commands or the
// timeout elapses.
func (r *Replica) WaitApplied(id uint32, n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		got, err := r.Applied(id)
		if err != nil {
			return err
		}
		if got >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("deploy: learner %d applied %d/%d after %v", id, got, n, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
