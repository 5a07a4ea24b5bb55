// Package deploy is the live wiring layer behind the public embedding API:
// it assembles the goroutine runtime, the TCP transport, the batched and
// sharded multicoordinated protocol stack (internal/classic), durable
// acceptor storage (internal/wal) and the SMR merge/apply loop
// (internal/smr) from one declarative ClusterSpec — the hand-wiring that
// cmd/mckv, the examples and the experiment drivers used to duplicate.
//
// Two embeddable types come out of it: Replica opens one process's share of
// a deployment (any subset of the spec's coordinator, acceptor and learner
// nodes, each behind its own TCP endpoint), and Client connects over TCP,
// spreads proposals across the shards, load-balances each shard's
// coordinator group, retries with backoff across coordinator failures, and
// correlates apply results back to the submitted commands.
//
// Layout: spec.go declares the deployment; replica.go hosts nodes (build,
// route, start — the endpoint constructor there also serves client.go);
// learner.go is the learner node, a node.Handler that knows only its
// node.Env; inspect.go is Replica's read-only side.
package deploy

import (
	"fmt"
	"net"
	"sync"
	"time"

	"mcpaxos/internal/classic"
	"mcpaxos/internal/faults"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/quorum"
)

// NodeSpec names one process role: a node ID and the TCP address it listens
// on. IDs must be unique across the whole spec and below 1<<23 so command
// IDs can carry the issuing client (see classic.CmdID).
type NodeSpec struct {
	ID   uint32
	Addr string
}

// ClusterSpec declares a full deployment: every node's address, the shard
// count, the coordinator group size per shard, and the tuning knobs of the
// batched command path. The same spec is given to every Replica and Client
// of the deployment; which nodes a process actually runs is chosen at Open.
//
// Ordering is meaningful: coordinator i (in Coords order) serves shard
// i mod Shards, and a round is served by CoordsPerShard coordinators of its
// shard's residue class starting at the round's owner — the convention of
// classic.Config.RoundGroup.
type ClusterSpec struct {
	// Shards partitions the instance space across that many concurrent
	// sequencer groups (Mencius-style residue classes). 0 or 1 means one.
	Shards int
	// CoordsPerShard is the paper's c, the number of coordinators serving
	// each shard's rounds: acceptors accept on ⌊c/2⌋+1 matching 2as, so
	// ⌊c/2⌋ coordinator crashes per shard mask without a round change. It
	// parameterises the one round path rather than selecting a mode: 0 or 1
	// is c = 1, Classic Paxos, with the same ingress stamping, batching and
	// restart repair as any larger group.
	CoordsPerShard int

	// Coords, Acceptors and Learners list the protocol nodes. Clients lists
	// the client endpoints: clients listen too, because learner replicas
	// send apply results back over TCP.
	Coords    []NodeSpec
	Acceptors []NodeSpec
	Learners  []NodeSpec
	Clients   []NodeSpec

	// WALDir, when set, gives every acceptor a durable write-ahead log under
	// WALDir/acc-<id>; empty keeps votes in process memory (demos, tests).
	WALDir string

	// SnapshotEvery, when > 0, turns on log compaction: each learner cuts a
	// snapshot of its applied state every that-many merged instances and
	// joins the cluster watermark protocol — learners gossip their snapshot
	// frontiers (msg.Done) on the gap-watch cadence, the minimum over those
	// frontiers becomes the compaction watermark, and everything below it is
	// truncated in three layers (learner retained logs, acceptor vote
	// history, reply-cache floors). A learner restarted below the watermark
	// rejoins by installing a peer's snapshot and replaying only the log
	// suffix. 0 disables compaction: everything is retained forever, the
	// pre-snapshot behaviour.
	SnapshotEvery int
	// Retain is the retention floor slack: a learner keeps at least this
	// many log instances below the watermark, so a peer pulling just behind
	// it usually log-pulls instead of escalating to snapshot transfer. 0
	// means SnapshotEvery.
	Retain int
	// SnapshotDir, when set, persists each learner's snapshots under
	// SnapshotDir/learner-<id> (fsync-then-rename, crash artifacts swept on
	// open), so a restarted learner reloads its newest local snapshot and
	// pulls only the suffix. Empty keeps snapshots in process memory: they
	// die with the node, and a restarted learner below the watermark must
	// ship a snapshot from a peer. With compaction enabled, durable
	// snapshots are what keeps acked state recoverable if every learner
	// restarts in overlapping windows — memory-only snapshots trade that
	// away for convenience in tests.
	SnapshotDir string

	// BatchMax is the per-shard ingress batch size at the stamping
	// coordinator (client submissions packed into one consensus instance);
	// 0 means 8. 1 disables batching.
	BatchMax int
	// BatchWait is the upper bound a buffered command waits for its batch to
	// fill, not a fixed price. At the end of each mailbox burst a stamping
	// coordinator that leads stamps what it holds when nothing is in flight,
	// or when its window has room and fewer than BatchMax commands are
	// outstanding at it: below a batch's worth of demand commands go at once,
	// and from there up the pipeline is the batch clock. It
	// is also how long a learner lets its merge frontier sit frozen under
	// buffered instances before telling the shards that fell behind to skip
	// the slots they never claimed (msg.Fill with Idle set). 0 means 2ms;
	// negative flushes on size only, with no early stamp and no skip hint.
	BatchWait time.Duration
	// Window bounds each coordinator's pipeline of unlearned instances; 0
	// leaves it unbounded. A full window also holds a stamper's partial batch
	// until an instance is learned (see BatchWait).
	Window int
	// RetryEvery is the base retransmission interval of clients and
	// coordinators; 0 means 25ms. Client retries back off exponentially
	// from it.
	RetryEvery time.Duration
	// RequestTimeout fails a client call that has drawn no reply after this
	// long; 0 means 15s.
	RequestTimeout time.Duration
	// FillAfter is how long a learner lets its merge frontier sit frozen
	// with later instances buffered before nudging the stalled instance's
	// coordinator group to fill the slot (msg.Fill) — the recovery path for
	// a sequence number orphaned by a crashed ingress stamper, and the
	// backstop behind the skip hint (see BatchWait) for a shard idling while
	// its peers advance. 0 means 4 × RetryEvery.
	FillAfter time.Duration

	// Faults, when set, is installed on the runtime network of every node
	// this process opens (replica nodes and clients alike), which
	// adjudicates each send before it reaches the node's socket and skews
	// the node's timers: the nemesis harness's loss, duplication,
	// reordering, partitions, link cuts and clock skew. All nodes of one
	// process should share one injector so a partition severs every role
	// consistently. nil means a faithful network.
	Faults *faults.Faults

	// reserved holds the listeners ResolveEphemeral bound while picking
	// ports, keyed by resolved address: Open and Dial consume them instead
	// of re-listening, so a resolved port can never be grabbed by another
	// process in between. Copies of the spec share the pool.
	reserved *listenerPool
}

// listenerPool is the shared set of pre-bound listeners of a resolved spec.
type listenerPool struct {
	mu  sync.Mutex
	lns map[string]net.Listener
}

// take removes and returns the reserved listener for addr, if any.
func (p *listenerPool) take(addr string) net.Listener {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	ln := p.lns[addr]
	delete(p.lns, addr)
	return ln
}

// listen returns the node's reserved listener or binds its address fresh.
func (s ClusterSpec) listen(addr string) (net.Listener, error) {
	if ln := s.reserved.take(addr); ln != nil {
		return ln, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return ln, nil
}

// Spec defaults.
const (
	defaultBatchMax   = 8
	defaultBatchWait  = 2 * time.Millisecond
	defaultRetryEvery = 25 * time.Millisecond
	defaultTimeout    = 15 * time.Second
)

// Fixed parameters: no deployment, benchmark or test ever set them to
// anything else, so they are not knobs.
const (
	// tick is the duration of one protocol time unit on the wall clock.
	tick = time.Millisecond
	// replyCacheSize bounds the per-client reply-replay cache each learner
	// keeps (applied command IDs → results, evicted by per-client
	// watermark), so a retransmitted proposal for an already-applied
	// command re-elicits its reply instead of being silently deduplicated.
	replyCacheSize = 512
	// catchupChunk bounds how many instances one learner catch-up response
	// carries (chunked state transfer to a rejoining learner).
	catchupChunk = 128
)

// LocalSpec builds a loopback spec with ephemeral ports and the repo's
// conventional node IDs (clients 1+i, coordinators 100+i, acceptors 200+i,
// learners 300+i): shards×coordsPerShard coordinators, nAcceptors acceptors,
// nLearners learner replicas and nClients client endpoints. Resolve the
// ephemeral ports with ResolveEphemeral before Open/Dial.
func LocalSpec(shards, coordsPerShard, nAcceptors, nLearners, nClients int) ClusterSpec {
	if shards < 1 {
		shards = 1
	}
	if coordsPerShard < 1 {
		coordsPerShard = 1
	}
	s := ClusterSpec{Shards: shards, CoordsPerShard: coordsPerShard}
	for i := 0; i < shards*coordsPerShard; i++ {
		s.Coords = append(s.Coords, NodeSpec{ID: uint32(100 + i), Addr: "127.0.0.1:0"})
	}
	for i := 0; i < nAcceptors; i++ {
		s.Acceptors = append(s.Acceptors, NodeSpec{ID: uint32(200 + i), Addr: "127.0.0.1:0"})
	}
	for i := 0; i < nLearners; i++ {
		s.Learners = append(s.Learners, NodeSpec{ID: uint32(300 + i), Addr: "127.0.0.1:0"})
	}
	for i := 0; i < nClients; i++ {
		s.Clients = append(s.Clients, NodeSpec{ID: uint32(1 + i), Addr: "127.0.0.1:0"})
	}
	return s
}

// ResolveEphemeral returns a copy of the spec with every port-0 address
// replaced by a concrete free loopback port, so the one resolved spec can be
// shared by every Replica and Client of a single-process deployment. The
// bound listeners stay open — Open and Dial adopt them — so a resolved port
// cannot be lost to another process in the meantime. Multi-machine
// deployments write concrete addresses in the first place.
func (s ClusterSpec) ResolveEphemeral() (ClusterSpec, error) {
	out := s
	out.reserved = &listenerPool{lns: make(map[string]net.Listener)}
	resolve := func(nodes []NodeSpec) ([]NodeSpec, error) {
		rs := append([]NodeSpec(nil), nodes...)
		for i, n := range rs {
			host, port, err := net.SplitHostPort(n.Addr)
			if err != nil || port != "0" {
				continue
			}
			ln, err := net.Listen("tcp", n.Addr)
			if err != nil {
				return nil, fmt.Errorf("deploy: resolve %s: %w", n.Addr, err)
			}
			_, bound, _ := net.SplitHostPort(ln.Addr().String())
			rs[i].Addr = net.JoinHostPort(host, bound)
			out.reserved.lns[rs[i].Addr] = ln
		}
		return rs, nil
	}
	var err error
	for _, f := range []struct {
		dst *[]NodeSpec
		src []NodeSpec
	}{{&out.Coords, s.Coords}, {&out.Acceptors, s.Acceptors}, {&out.Learners, s.Learners}, {&out.Clients, s.Clients}} {
		if *f.dst, err = resolve(f.src); err != nil {
			return ClusterSpec{}, err
		}
	}
	return out, nil
}

// Validate checks the spec (IDs unique and in range, groups complete,
// quorums feasible).
func (s ClusterSpec) Validate() error {
	_, err := s.config()
	return err
}

// normalized tuning accessors (zero means default).

func (s ClusterSpec) batchMax() int {
	if s.BatchMax < 1 {
		return defaultBatchMax
	}
	return s.BatchMax
}

// ticks converts a wall-clock duration to protocol time units, at least 1.
func ticks(d time.Duration) int64 {
	return max(int64(d/tick), 1)
}

func (s ClusterSpec) retryTicks() int64 {
	d := s.RetryEvery
	if d <= 0 {
		d = defaultRetryEvery
	}
	return ticks(d)
}

func (s ClusterSpec) timeoutTicks() int64 {
	d := s.RequestTimeout
	if d <= 0 {
		d = defaultTimeout
	}
	return ticks(d)
}

// retain normalizes the retention slack below the compaction watermark: 0
// means one snapshot interval, so a peer trailing by less than a full
// interval log-pulls instead of shipping a snapshot.
func (s ClusterSpec) retain() uint64 {
	if s.Retain > 0 {
		return uint64(s.Retain)
	}
	if s.SnapshotEvery > 0 {
		return uint64(s.SnapshotEvery)
	}
	return 0
}

// fillTicks is the learner gap-watch period driving both catch-up resyncs
// and fill nudges (a stall is two consecutive periods at a frozen frontier).
func (s ClusterSpec) fillTicks() int64 {
	d := s.FillAfter
	if d <= 0 {
		return 4 * s.retryTicks()
	}
	return ticks(d)
}

func (s ClusterSpec) batchWaitTicks() int64 {
	d := s.BatchWait
	if d < 0 {
		return 0
	}
	if d == 0 {
		d = defaultBatchWait
	}
	return ticks(d)
}

// config builds the classic.Config the protocol agents share, validating the
// spec on the way.
func (s ClusterSpec) config() (classic.Config, error) {
	if len(s.Acceptors) == 0 {
		return classic.Config{}, fmt.Errorf("deploy: no acceptors")
	}
	// Majority quorums: the most acceptor crashes a classic round tolerates.
	qs, err := quorum.NewAcceptorSystem(len(s.Acceptors), (len(s.Acceptors)-1)/2, 0)
	if err != nil {
		return classic.Config{}, fmt.Errorf("deploy: acceptor quorums: %w", err)
	}
	cfg := classic.Config{
		Quorums:        qs,
		Shards:         s.Shards,
		CoordsPerShard: s.CoordsPerShard,
	}
	seen := make(map[uint32]string)
	add := func(role string, nodes []NodeSpec, dst *[]msg.NodeID) error {
		for _, n := range nodes {
			if n.ID == 0 || n.ID >= 1<<23 {
				return fmt.Errorf("deploy: %s node ID %d out of range [1, 2^23)", role, n.ID)
			}
			if prev, dup := seen[n.ID]; dup {
				return fmt.Errorf("deploy: node ID %d used by both %s and %s", n.ID, prev, role)
			}
			seen[n.ID] = role
			if n.Addr == "" {
				return fmt.Errorf("deploy: %s node %d has no address", role, n.ID)
			}
			if _, port, err := net.SplitHostPort(n.Addr); err == nil && port == "0" {
				// A port-0 address that reached Open/Dial would listen fine
				// but be undialable by every peer (their address book still
				// says port 0): fail loudly instead of hanging silently.
				return fmt.Errorf("deploy: %s node %d address %s has port 0 — call ResolveEphemeral first or use concrete ports",
					role, n.ID, n.Addr)
			}
			if dst != nil {
				*dst = append(*dst, msg.NodeID(n.ID))
			}
		}
		return nil
	}
	if err := add("coordinator", s.Coords, &cfg.Coords); err != nil {
		return classic.Config{}, err
	}
	if err := add("acceptor", s.Acceptors, &cfg.Acceptors); err != nil {
		return classic.Config{}, err
	}
	if err := add("learner", s.Learners, &cfg.Learners); err != nil {
		return classic.Config{}, err
	}
	if err := add("client", s.Clients, nil); err != nil {
		return classic.Config{}, err
	}
	if err := cfg.Validate(); err != nil {
		return classic.Config{}, err
	}
	return cfg, nil
}

// addrs builds the full node→address book the TCP endpoints dial by.
func (s ClusterSpec) addrs() map[msg.NodeID]string {
	m := make(map[msg.NodeID]string)
	for _, group := range [][]NodeSpec{s.Coords, s.Acceptors, s.Learners, s.Clients} {
		for _, n := range group {
			m[msg.NodeID(n.ID)] = n.Addr
		}
	}
	return m
}
