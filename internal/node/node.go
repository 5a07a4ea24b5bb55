// Package node defines the execution environment contract between protocol
// state machines and their hosts (the discrete-event simulator and the
// goroutine runtime). Protocol agents are pure state machines: all their
// effects flow through an Env, which makes the same agent code runnable,
// deterministic and measurable under either host.
//
// There is no recovery hook: both hosts restart a node by building a new
// Handler over its stable storage (sim.Sim.Restart; on the goroutine runtime,
// Stop plus a new runtime.Network that Spawns the node again), so an agent's
// constructor is the one place volatile state is initialised.
//
// A host delivers in bursts: the goroutine runtime hands an agent the item it
// woke for plus whatever was already queued behind it, the simulator one event
// at a time. An IdleHandler hears OnIdle at the end of every burst, which is
// where an agent does what pays per burst rather than per message — an
// acceptor's one durable write for all the votes it cast, a stamper's decision
// to stamp what it buffered.
package node

import "mcpaxos/internal/msg"

// Env is the set of effects available to a protocol agent.
type Env interface {
	// ID returns the hosting node's identity.
	ID() msg.NodeID
	// Now returns the current logical time. Under the simulator with unit
	// link latency, Now of a learn event minus Now of the propose event is
	// the number of communication steps.
	Now() int64
	// Send transmits m to the node with identity to. Sending to self is
	// allowed and delivered like any other message.
	Send(to msg.NodeID, m msg.Message)
	// SetTimer schedules OnTimer(tag) on this agent after d time units.
	SetTimer(d int64, tag int)
}

// Handler is a protocol agent hosted on a node.
type Handler interface {
	// OnMessage processes one delivered message.
	OnMessage(from msg.NodeID, m msg.Message)
}

// TimerHandler is implemented by agents that use Env.SetTimer.
type TimerHandler interface {
	// OnTimer fires a previously set timer.
	OnTimer(tag int)
}

// IdleHandler is implemented by agents that act once per delivery burst.
// Hosts call OnIdle after the last message or timer of every burst, on the
// agent that handled it and never on one that crashed or was replaced
// during it. A burst is bounded: a host never lets a refilling queue put
// OnIdle off indefinitely.
type IdleHandler interface {
	// OnIdle ends the current burst.
	OnIdle()
}

// Broadcast sends m to every destination via env.
func Broadcast(env Env, tos []msg.NodeID, m msg.Message) {
	for _, to := range tos {
		env.Send(to, m)
	}
}
