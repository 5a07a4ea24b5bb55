// Package sim is a deterministic discrete-event simulator for the protocols
// in this repository. It models the asynchronous crash-recovery system of
// the paper (Section 2.1.1): messages may be delayed, lost, duplicated and
// reordered but not corrupted; processes fail by stopping and may recover
// with only their stable storage intact — literally: Crash kills a node's
// handler for good and Restart builds a new one, as internal/runtime does.
//
// With the default unit link latency, the simulated time at which a learner
// learns equals the number of communication steps since the proposal, which
// is how the step-count experiments (E1, E5, E8) measure latency.
//
// Every delivered message and every fired timer is a burst of its own: the
// handler's node.IdleHandler.OnIdle follows it at once, on the incarnation
// that handled it, so an agent's per-burst work leaves in the same event.
package sim

import (
	"container/heap"
	"fmt"
	"math/rand"

	"mcpaxos/internal/faults"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/node"
)

// Time is simulated time. One unit is one message delay under the default
// latency model.
type Time = int64

type event struct {
	at  Time
	seq uint64 // FIFO tiebreak for same-time events: keeps runs deterministic
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h eventHeap) Peek() (event, bool) {
	if len(h) == 0 {
		return event{}, false
	}
	return h[0], true
}

// LatencyFn returns the delivery delay for a message. Returning a negative
// delay drops the message.
type LatencyFn func(from, to msg.NodeID, m msg.Message, r *rand.Rand) Time

// UnitLatency delivers every message in exactly one time unit: simulated
// time ≡ communication steps.
func UnitLatency(_, _ msg.NodeID, _ msg.Message, _ *rand.Rand) Time { return 1 }

// JitterLatency delivers in [1, 1+jitter] time units, uniformly. Used to
// model message reordering (e.g. the E9 spontaneous-order experiment).
func JitterLatency(jitter int64) LatencyFn {
	return func(_, _ msg.NodeID, _ msg.Message, r *rand.Rand) Time {
		if jitter <= 0 {
			return 1
		}
		return 1 + r.Int63n(jitter+1)
	}
}

// DropFn decides whether to lose a message.
type DropFn func(from, to msg.NodeID, m msg.Message, r *rand.Rand) bool

// DropNone loses nothing.
func DropNone(_, _ msg.NodeID, _ msg.Message, _ *rand.Rand) bool { return false }

// DropProb loses each message independently with probability p.
func DropProb(p float64) DropFn {
	return func(_, _ msg.NodeID, _ msg.Message, r *rand.Rand) bool {
		return p > 0 && r.Float64() < p
	}
}

type simNode struct {
	id      msg.NodeID
	handler node.Handler
	up      bool
	// epoch invalidates in-flight deliveries and timers from before a
	// crash: events carry the epoch they were created in.
	epoch uint64
}

// Sim is a discrete-event simulation of a message-passing system.
type Sim struct {
	now     Time
	seq     uint64
	events  eventHeap
	nodes   map[msg.NodeID]*simNode
	rng     *rand.Rand
	latency LatencyFn
	drop    DropFn
	faults  *faults.Faults
	metrics *Metrics
	// MaxEvents guards against runaway executions; Run returns once the
	// budget is exhausted.
	MaxEvents uint64
}

// New creates a simulator with the given seed, unit latency, no losses.
func New(seed int64) *Sim {
	return &Sim{
		nodes:     make(map[msg.NodeID]*simNode),
		rng:       rand.New(rand.NewSource(seed)),
		latency:   UnitLatency,
		drop:      DropNone,
		metrics:   NewMetrics(),
		MaxEvents: 10_000_000,
	}
}

// SetLatency installs a latency model.
func (s *Sim) SetLatency(f LatencyFn) { s.latency = f }

// SetDrop installs a loss model.
func (s *Sim) SetDrop(f DropFn) { s.drop = f }

// SetFaults installs an adversarial fault injector on the send path:
// partitions, asymmetric link cuts, loss, duplication and bounded
// reordering, on top of (not instead of) the latency and drop models. The
// injector runs inside the simulator's single-threaded event loop, so a
// seeded injector makes the whole hostile run deterministic. nil uninstalls.
func (s *Sim) SetFaults(f *faults.Faults) { s.faults = f }

// Metrics returns the simulation's metrics sink.
func (s *Sim) Metrics() *Metrics { return s.metrics }

// Rand returns the simulation's deterministic random source.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Now returns the current simulated time.
func (s *Sim) Now() Time { return s.now }

// Register adds a node to the simulation. Registering an existing ID
// replaces its handler (to host an agent beside another under a
// node.MultiHandler); a crashed node comes back through Restart.
func (s *Sim) Register(id msg.NodeID, h node.Handler) {
	if n, ok := s.nodes[id]; ok {
		n.handler = h
		return
	}
	s.nodes[id] = &simNode{id: id, handler: h, up: true}
}

// Env returns the node.Env through which agent id must emit its effects.
func (s *Sim) Env(id msg.NodeID) node.Env { return &simEnv{s: s, id: id} }

type simEnv struct {
	s  *Sim
	id msg.NodeID
}

func (e *simEnv) ID() msg.NodeID { return e.id }
func (e *simEnv) Now() int64     { return e.s.now }

func (e *simEnv) Send(to msg.NodeID, m msg.Message) {
	e.s.send(e.id, to, m)
}

func (e *simEnv) SetTimer(d int64, tag int) {
	s := e.s
	n, ok := s.nodes[e.id]
	if !ok {
		return
	}
	epoch := n.epoch
	// Clock skew scales the delay before the floor clamp, so a fast clock
	// can shrink any timeout down to one tick but never to zero.
	d = s.faults.TimerDelay(d)
	if d < 1 {
		d = 1
	}
	s.at(s.now+d, func() {
		if !n.up || n.epoch != epoch {
			return
		}
		if th, ok := n.handler.(node.TimerHandler); ok {
			th.OnTimer(tag)
		}
		n.idle(epoch)
	})
}

// idle ends the burst of the event just handled by the incarnation of epoch,
// unless that incarnation crashed or was replaced while handling it.
func (n *simNode) idle(epoch uint64) {
	if ih, ok := n.handler.(node.IdleHandler); ok && n.up && n.epoch == epoch {
		ih.OnIdle()
	}
}

func (s *Sim) send(from, to msg.NodeID, m msg.Message) {
	s.metrics.sent(from, m)
	if src, ok := s.nodes[from]; ok && !src.up {
		return // crashed nodes cannot send
	}
	if s.drop(from, to, m, s.rng) {
		s.metrics.Dropped++
		return
	}
	d := s.latency(from, to, m, s.rng)
	if d < 0 {
		s.metrics.Dropped++
		return
	}
	dst, ok := s.nodes[to]
	if !ok {
		return
	}
	// The fault injector may drop the message, duplicate it, or push copies
	// further into the future (bounded reordering). A crashed destination
	// carries no epoch check here on purpose: deliveries across a crash
	// boundary are allowed after recovery (the network may hold messages
	// arbitrarily long), but nothing is delivered into a node while it is
	// down — TestSendAcrossCrashBoundary pins both halves.
	deliveries := s.faults.Deliveries(from, to)
	if len(deliveries) == 0 {
		s.metrics.Dropped++
		return
	}
	for _, extra := range deliveries {
		s.at(s.now+d+extra, func() {
			if !dst.up {
				return
			}
			s.metrics.received(to, m)
			epoch := dst.epoch
			dst.handler.OnMessage(from, m)
			dst.idle(epoch)
		})
	}
}

// At schedules fn at absolute time t (or now, if t is in the past).
func (s *Sim) At(t Time, fn func()) { s.at(t, fn) }

// After schedules fn d units from now.
func (s *Sim) After(d Time, fn func()) { s.at(s.now+d, fn) }

func (s *Sim) at(t Time, fn func()) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	heap.Push(&s.events, event{at: t, seq: s.seq, fn: fn})
}

// Crash stops node id: it no longer receives messages or timers and cannot
// send. Its handler, the process's volatile state, is dead: the way back is
// Restart.
func (s *Sim) Crash(id msg.NodeID) {
	n, ok := s.nodes[id]
	if !ok {
		return
	}
	n.up = false
	n.epoch++
}

// Restart models a crash-and-restart of node id with the build argument
// runtime.Network.Restart takes: the old handler is discarded with every
// timer it armed and build constructs the replacement — for an acceptor, over
// its disk, which is the recovery (Section 4.4); nothing more is asked of the
// handler. Messages in flight land in whichever handler is live on arrival.
// A node that is up is crashed first; an unknown id is registered.
func (s *Sim) Restart(id msg.NodeID, build func(node.Env) node.Handler) {
	n, ok := s.nodes[id]
	if !ok {
		n = &simNode{id: id}
		s.nodes[id] = n
	}
	n.epoch++
	n.up = true
	n.handler = build(s.Env(id))
}

// IsUp reports whether node id is currently up.
func (s *Sim) IsUp(id msg.NodeID) bool {
	n, ok := s.nodes[id]
	return ok && n.up
}

// Step executes the next pending event; it reports false when none remain.
func (s *Sim) Step() bool {
	e, ok := s.events.Peek()
	if !ok {
		return false
	}
	heap.Pop(&s.events)
	s.now = e.at
	e.fn()
	return true
}

// Run executes events until quiescence (or the event budget is exhausted).
func (s *Sim) Run() {
	var n uint64
	for s.Step() {
		n++
		if n >= s.MaxEvents {
			panic(fmt.Sprintf("sim: event budget %d exhausted at t=%d", s.MaxEvents, s.now))
		}
	}
}

// RunUntil executes events with timestamps ≤ t, advancing the clock to t.
func (s *Sim) RunUntil(t Time) {
	var n uint64
	for {
		e, ok := s.events.Peek()
		if !ok || e.at > t {
			break
		}
		s.Step()
		n++
		if n >= s.MaxEvents {
			panic(fmt.Sprintf("sim: event budget %d exhausted at t=%d", s.MaxEvents, s.now))
		}
	}
	if s.now < t {
		s.now = t
	}
}

// RunWhile keeps stepping while cond() holds and events remain.
func (s *Sim) RunWhile(cond func() bool) {
	var n uint64
	for cond() && s.Step() {
		n++
		if n >= s.MaxEvents {
			panic(fmt.Sprintf("sim: event budget %d exhausted at t=%d", s.MaxEvents, s.now))
		}
	}
}
