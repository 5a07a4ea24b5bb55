// Package runtime hosts the protocol state machines on goroutines with real
// time, complementing the deterministic simulator: the same agents (they
// only know node.Env) run over an in-process channel network or the TCP
// transport. Each agent's handler runs on a single mailbox goroutine, so
// agent code needs no internal locking.
//
// The mailbox delivers in bursts: the item it woke for, then the items that
// were already queued when the burst began, then node.IdleHandler.OnIdle. A
// Do closure ends the burst before it runs.
package runtime

import (
	"bytes"
	rt "runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mcpaxos/internal/faults"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/node"
)

// inboundKind discriminates mailbox events.
type inboundKind uint8

const (
	kindMsg inboundKind = iota + 1
	kindTimer
)

type inbound struct {
	kind inboundKind
	from msg.NodeID
	m    msg.Message
	tag  int
}

// Network is an in-process message bus connecting Agents. The zero value is
// not usable; call NewNetwork.
type Network struct {
	mu     sync.RWMutex
	agents map[msg.NodeID]*Agent
	start  time.Time
	// Tick is the duration of one node.Env time unit (default 1ms).
	Tick time.Duration
	// fallback, when set, receives messages addressed to nodes this
	// network does not host (e.g. to forward them over TCP).
	fallback func(from, to msg.NodeID, m msg.Message)
	faults   atomic.Pointer[faults.Faults] // see SetFaults
}

// NewNetwork builds an empty in-process network.
func NewNetwork() *Network {
	return &Network{
		agents: make(map[msg.NodeID]*Agent),
		start:  time.Now(),
		Tick:   time.Millisecond,
	}
}

// SetFallback installs the off-network route under the network's lock, so it
// may be set while agents are already receiving traffic (Send reads it under
// the same lock). Messages routed before the fallback is installed, or after
// Stop, are dropped, which the asynchronous model allows.
func (n *Network) SetFallback(fb func(from, to msg.NodeID, m msg.Message)) {
	n.mu.Lock()
	n.fallback = fb
	n.mu.Unlock()
}

// Spawn creates an agent: build receives the agent's Env and returns its
// handler. The mailbox goroutine starts immediately.
func (n *Network) Spawn(id msg.NodeID, build func(env node.Env) node.Handler) *Agent {
	a := &Agent{
		id:    id,
		net:   n,
		inbox: make(chan inbound, 1024),
		done:  make(chan struct{}),
	}
	a.handler = build(a.env())
	n.mu.Lock()
	n.agents[id] = a
	n.mu.Unlock()
	a.wg.Add(1)
	go a.loop()
	return a
}

// Restart models a process crash-and-restart of node id: the old agent is
// stopped and its handler (the process's volatile state) discarded, and build
// constructs a fresh handler — for an acceptor, over a reopened WAL, which is
// the acceptor's recovery (Section 4.4): nothing more is asked of the
// handler. Messages sent to id while it is down are dropped, as the
// asynchronous model allows.
func (n *Network) Restart(id msg.NodeID, build func(env node.Env) node.Handler) *Agent {
	n.mu.Lock()
	old := n.agents[id]
	delete(n.agents, id)
	n.mu.Unlock()
	if old != nil {
		old.Stop()
	}
	return n.Spawn(id, build)
}

// SetFaults installs (or, with nil, removes) an adversarial fault injector:
// every send is adjudicated by it — dropped, duplicated, or delayed in Ticks
// — before it is routed, locally or through the fallback, and every timer an
// agent arms is skewed by it. It is the live path's one fault hook: the
// simulator takes the same injector, and the TCP transport below carries
// none.
func (n *Network) SetFaults(f *faults.Faults) { n.faults.Store(f) }

// Send adjudicates a message through the fault injector, drawing its fate on
// the caller's goroutine in send order, then routes each surviving copy: a
// delayed one when it lands.
func (n *Network) Send(from, to msg.NodeID, m msg.Message) {
	for _, extra := range n.faults.Load().Deliveries(from, to) {
		if extra == 0 {
			n.route(from, to, m)
			continue
		}
		// A delayed copy reaches whatever incarnation of the node is live
		// when it lands — deliveries across a restart are legal (the network
		// may hold messages arbitrarily long), unlike timers.
		time.AfterFunc(time.Duration(extra)*n.Tick, func() { n.route(from, to, m) })
	}
}

// route hands one copy of a message to its local agent, or to the fallback
// for a node this network does not host; with neither it is dropped (the
// asynchronous model allows loss).
func (n *Network) route(from, to msg.NodeID, m msg.Message) {
	n.mu.RLock()
	dst, ok := n.agents[to]
	fb := n.fallback
	n.mu.RUnlock()
	switch {
	case ok:
		dst.enqueue(inbound{kind: kindMsg, from: from, m: m})
	case fb != nil:
		fb(from, to, m)
	}
}

// Stop shuts every agent down and waits for their goroutines. It clears the
// fallback too, so a delayed copy that lands afterwards goes nowhere.
func (n *Network) Stop() {
	n.mu.Lock()
	agents := make([]*Agent, 0, len(n.agents))
	for _, a := range n.agents {
		agents = append(agents, a)
	}
	n.agents = make(map[msg.NodeID]*Agent)
	n.fallback = nil
	n.mu.Unlock()
	for _, a := range agents {
		a.Stop()
	}
}

func (n *Network) now() int64 { return int64(time.Since(n.start) / n.Tick) }

// Agent is one hosted protocol state machine.
type Agent struct {
	id      msg.NodeID
	net     *Network
	handler node.Handler
	inbox   chan inbound
	done    chan struct{}
	once    sync.Once
	wg      sync.WaitGroup
	// loopGID is the goroutine ID of the mailbox loop, so Do can detect
	// re-entrant calls from handler code and run them inline instead of
	// deadlocking on its own mailbox.
	loopGID atomic.Uint64
}

// gid returns the calling goroutine's ID, parsed from the runtime stack
// header ("goroutine N [...]"). Only Do pays this cost; the message hot
// path never calls it.
func gid() uint64 {
	var buf [64]byte
	n := rt.Stack(buf[:], false)
	fields := bytes.Fields(buf[:n])
	if len(fields) < 2 {
		return 0
	}
	id, err := strconv.ParseUint(string(fields[1]), 10, 64)
	if err != nil {
		return 0
	}
	return id
}

// ID returns the agent's node ID.
func (a *Agent) ID() msg.NodeID { return a.id }

// Inject delivers a message to this agent as if sent by from.
func (a *Agent) Inject(from msg.NodeID, m msg.Message) {
	a.enqueue(inbound{kind: kindMsg, from: from, m: m})
}

// Do runs fn on the agent's mailbox goroutine and waits for it: safe
// synchronous access to handler state, committed: an IdleHandler's OnIdle
// runs first, ending the burst the closure joined. Calling Do from the mailbox
// goroutine itself (handler code calling back into its own agent) runs fn
// inline — already serialized — instead of deadlocking on the mailbox.
// On a stopped agent, Do returns without running fn: the buffered inbox
// would otherwise accept the closure (both select cases ready, picked at
// random) and leave the caller waiting on a completion that never comes.
// Either way fn has finished or will never run when Do returns, so what fn
// wrote may be read without further synchronisation.
func (a *Agent) Do(fn func(h node.Handler)) {
	if g := gid(); g != 0 && a.loopGID.Load() == g {
		fn(a.handler)
		return
	}
	select {
	case <-a.done:
		return
	default:
	}
	doneCh := make(chan struct{})
	select {
	case a.inbox <- inbound{kind: kindMsg, from: 0, m: doFunc{fn: fn, done: doneCh}}:
		select {
		case <-doneCh:
		case <-a.done:
			// Stopped before the closure was drained, or while it ran: wait
			// the loop out, so a closure already running has finished.
			a.wg.Wait()
		}
	case <-a.done:
	}
}

// doFunc piggybacks a closure through the mailbox.
type doFunc struct {
	fn   func(node.Handler)
	done chan struct{}
}

// Type implements msg.Message.
func (doFunc) Type() msg.Type { return msg.TUnknown }

// Instance implements msg.Message.
func (doFunc) Instance() uint64 { return 0 }

func (a *Agent) enqueue(in inbound) {
	// Check done first: once the loop has exited, both select cases below
	// can be ready (the inbox is buffered), and picking the send would
	// strand the event in a channel nobody drains.
	select {
	case <-a.done:
		return
	default:
	}
	select {
	case a.inbox <- in:
	case <-a.done:
	}
}

func (a *Agent) loop() {
	defer a.wg.Done()
	// However the loop ends — Stop, or handler code that exits the goroutine
	// (a t.Fatal inside Do is a runtime.Goexit) — the agent is done: later
	// Inject and Do calls return instead of filling a dead inbox.
	defer a.once.Do(func() { close(a.done) })
	a.loopGID.Store(gid())
	idle, _ := a.handler.(node.IdleHandler)
	for {
		select {
		case in := <-a.inbox:
			// A burst is the item the loop woke for plus the items already
			// queued behind it. Bounding it by that snapshot is what keeps an
			// inbox refilled as fast as it drains from putting OnIdle off.
			for n := len(a.inbox); ; n-- {
				a.deliver(in, idle)
				if n == 0 {
					break
				}
				select {
				case <-a.done:
					return // a stop mid-burst is a crash: nothing staged leaves
				default:
				}
				in = <-a.inbox
			}
			if idle != nil {
				idle.OnIdle()
			}
		case <-a.done:
			return
		}
	}
}

// deliver hands one mailbox item to the handler. A Do closure first ends the
// burst, so what it inspects or starts sees every earlier item committed.
func (a *Agent) deliver(in inbound, idle node.IdleHandler) {
	switch in.kind {
	case kindMsg:
		if df, ok := in.m.(doFunc); ok {
			if idle != nil {
				idle.OnIdle()
			}
			a.run(df)
			return
		}
		a.handler.OnMessage(in.from, in.m)
	case kindTimer:
		if th, ok := a.handler.(node.TimerHandler); ok {
			th.OnTimer(in.tag)
		}
	}
}

// run executes one Do closure, releasing its caller even if fn exits the
// goroutine.
func (a *Agent) run(df doFunc) {
	defer close(df.done)
	df.fn(a.handler)
}

// Stop terminates the agent and waits for its mailbox goroutine. Pending
// timers fire into a closed mailbox and are dropped.
func (a *Agent) Stop() {
	a.once.Do(func() { close(a.done) })
	a.wg.Wait()
}

func (a *Agent) env() node.Env { return agentEnv{a} }

type agentEnv struct{ a *Agent }

func (e agentEnv) ID() msg.NodeID { return e.a.id }
func (e agentEnv) Now() int64     { return e.a.net.now() }

func (e agentEnv) Send(to msg.NodeID, m msg.Message) {
	e.a.net.Send(e.a.id, to, m)
}

func (e agentEnv) SetTimer(d int64, tag int) {
	a := e.a
	// Clock skew (fault injection) scales the delay before the floor clamp.
	d = a.net.faults.Load().TimerDelay(d)
	if d < 1 {
		d = 1
	}
	time.AfterFunc(time.Duration(d)*a.net.Tick, func() {
		// Timers do not survive a crash boundary: a timer armed by one
		// incarnation must never fire into a handler built by
		// Network.Restart under the same ID (the simulator enforces this
		// with delivery epochs; here the agent pointer is the epoch). A
		// stale fire would reach a recovered coordinator as a phantom
		// retransmission deadline and could trigger a spurious round
		// change.
		a.net.mu.RLock()
		live := a.net.agents[a.id] == a
		a.net.mu.RUnlock()
		if !live {
			return
		}
		a.enqueue(inbound{kind: kindTimer, tag: tag})
	})
}
