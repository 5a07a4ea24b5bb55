// Package runtime hosts one protocol node on goroutines with real time,
// complementing the deterministic simulator: the same agents (they only know
// node.Env) run here, one per Network, each behind its own route off the host
// (in a deployment, the node's TCP transport). The node's handler runs on a
// single mailbox goroutine, so agent code needs no internal locking. A whole
// deployment in one process, every node on one bus, is the simulator's job.
//
// The mailbox delivers in bursts: the item it woke for, then the items that
// were already queued when the burst began, then node.IdleHandler.OnIdle. A
// Do closure ends the burst before it runs.
package runtime

import (
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

// Network hosts exactly one node: its mailbox, its clock (Tick), its one fault
// hook (SetFaults) and its outbound route (SetFallback). A restart is Stop
// plus a new Network, so no handler ever shares an agent, or a timer, with an
// earlier incarnation. The zero value is not usable; call NewNetwork.
type Network struct {
	mu    sync.RWMutex
	agent *Agent // the hosted node, nil until Spawn
	start time.Time
	// Tick is the duration of one node.Env time unit (default 1ms).
	Tick time.Duration
	// fallback, when set, receives every message addressed to another node
	// (e.g. to forward it over TCP).
	fallback func(from, to msg.NodeID, m msg.Message)
	faults   atomic.Pointer[faults.Faults] // see SetFaults
}

// NewNetwork builds a host with no node yet.
func NewNetwork() *Network {
	return &Network{start: time.Now(), Tick: time.Millisecond}
}

// SetFallback installs the route off the host under the network's lock, so it
// may be set while the node is already sending (route reads it under the same
// lock). Messages routed before the fallback is installed, or after Stop, are
// dropped, which the asynchronous model allows.
func (n *Network) SetFallback(fb func(from, to msg.NodeID, m msg.Message)) {
	n.mu.Lock()
	n.fallback = fb
	n.mu.Unlock()
}

// Spawn hosts the network's one node: build receives the node's Env and
// returns its handler. The mailbox goroutine starts immediately. A second
// Spawn on the same Network panics: a restarted node gets a new Network.
func (n *Network) Spawn(id msg.NodeID, build func(env node.Env) node.Handler) *Agent {
	a := &Agent{
		id:    id,
		net:   n,
		inbox: make(chan inbound, 1024),
		done:  make(chan struct{}),
	}
	n.mu.Lock()
	if n.agent != nil {
		n.mu.Unlock()
		panic("runtime: a Network hosts one node; " + id.String() + " spawned on " + n.agent.id.String() + "'s")
	}
	n.agent = a
	n.mu.Unlock()
	a.handler = build(a.env())
	a.wg.Add(1)
	go a.loop()
	return a
}

// SetFaults installs (or, with nil, removes) an adversarial fault injector:
// every send is adjudicated by it — dropped, duplicated, or delayed in Ticks
// — before it is routed, and every timer the node arms is skewed by it. It is
// the live path's one fault hook: the simulator takes the same injector, and
// the TCP transport below carries none.
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
		// A delayed copy reaches whatever incarnation of its destination is
		// live when it lands — deliveries across a restart are legal (the
		// network may hold messages arbitrarily long), unlike timers.
		time.AfterFunc(time.Duration(extra)*n.Tick, func() { n.route(from, to, m) })
	}
}

// route hands one copy of a message to the hosted node if it is addressed
// there, and otherwise to the fallback; with no fallback it is dropped (the
// asynchronous model allows loss).
func (n *Network) route(from, to msg.NodeID, m msg.Message) {
	n.mu.RLock()
	a, fb := n.agent, n.fallback
	n.mu.RUnlock()
	switch {
	case a != nil && a.id == to:
		a.enqueue(inbound{kind: kindMsg, from: from, m: m})
	case fb != nil:
		fb(from, to, m)
	}
}

// Stop shuts the node down and waits for its goroutine. It clears the
// fallback too, so a delayed copy that lands afterwards goes nowhere.
func (n *Network) Stop() {
	n.mu.Lock()
	a := n.agent
	n.fallback = nil
	n.mu.Unlock()
	if a != nil {
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
}

// Inject delivers a message to this agent as if sent by from.
func (a *Agent) Inject(from msg.NodeID, m msg.Message) {
	a.enqueue(inbound{kind: kindMsg, from: from, m: m})
}

// Do runs fn on the agent's mailbox goroutine and waits for it: safe
// synchronous access to handler state, committed: an IdleHandler's OnIdle
// runs first, ending the burst the closure joined. Do must not be called from
// the node's own handler: the closure would wait behind the item being
// handled, forever (a handler sees only its node.Env, never its Agent).
// On a stopped agent, Do returns without running fn: the buffered inbox
// would otherwise accept the closure (both select cases ready, picked at
// random) and leave the caller waiting on a completion that never comes.
// Either way fn has finished or will never run when Do returns, so what fn
// wrote may be read without further synchronisation.
func (a *Agent) Do(fn func(h node.Handler)) {
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
	// A timer that fires after Stop is dropped by enqueue: timers do not
	// survive a crash boundary, and a restarted node is a new Agent on a new
	// Network, so no fire can reach the handler of a later incarnation.
	time.AfterFunc(time.Duration(d)*a.net.Tick, func() { a.enqueue(inbound{kind: kindTimer, tag: tag}) })
}
