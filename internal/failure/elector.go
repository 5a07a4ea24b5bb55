// Package failure provides the unreliable failure detection and leader
// election the Paxos family needs for liveness (Section 4.3 of the paper):
// an Ω-style elector that eventually agrees on one correct coordinator as
// leader in stable periods. Safety never depends on it.
package failure

import (
	"mcpaxos/internal/msg"
	"mcpaxos/internal/node"
)

// Timer tag used by electors; chosen outside the protocol agents' ranges.
const timerTick = 1000

// LeaderFn is invoked whenever the elector's leader belief changes.
// isSelf reports whether the hosting node now believes itself leader.
type LeaderFn func(leader msg.NodeID, isSelf bool)

// Elector is a heartbeat-based Ω elector among a fixed peer group: the
// lowest-ID peer believed alive is leader. It is intentionally aggressive
// and unreliable — exactly what the algorithms tolerate.
type Elector struct {
	env      node.Env
	peers    []msg.NodeID
	interval int64
	timeout  int64
	onLeader LeaderFn

	lastSeen map[msg.NodeID]int64
	leader   msg.NodeID
	running  bool
	// startedAt delays the first evaluation by one timeout so a node does
	// not elect itself before hearing anyone (avoids the startup stampede
	// of simultaneous self-elections).
	startedAt int64
}

var _ node.Handler = (*Elector)(nil)
var _ node.TimerHandler = (*Elector)(nil)

// NewElector builds an elector for the hosting node among peers.
// interval is the heartbeat period; timeout the suspicion threshold.
func NewElector(env node.Env, peers []msg.NodeID, interval, timeout int64, fn LeaderFn) *Elector {
	return &Elector{
		env:      env,
		peers:    peers,
		interval: interval,
		timeout:  timeout,
		onLeader: fn,
		lastSeen: make(map[msg.NodeID]int64),
	}
}

// Leader returns the current leader belief (0 until the first evaluation).
func (e *Elector) Leader() msg.NodeID { return e.leader }

// AliveCount returns how many peers (including self) are currently
// believed alive.
func (e *Elector) AliveCount() int {
	now := e.env.Now()
	n := 1 // self
	for _, p := range e.peers {
		if p == e.env.ID() {
			continue
		}
		if seen, ok := e.lastSeen[p]; ok && now-seen <= e.timeout {
			n++
		}
	}
	return n
}

// Start begins heartbeating. Idempotent.
func (e *Elector) Start() {
	if e.running {
		return
	}
	e.running = true
	e.startedAt = e.env.Now()
	e.tick()
}

func (e *Elector) tick() {
	now := e.env.Now()
	for _, p := range e.peers {
		if p != e.env.ID() {
			e.env.Send(p, msg.Heartbeat{From: e.env.ID()})
		}
	}
	e.evaluate(now)
	e.env.SetTimer(e.interval, timerTick)
}

func (e *Elector) evaluate(now int64) {
	if len(e.peers) > 1 && now < e.startedAt+e.timeout {
		return // give peers one timeout window to be heard from
	}
	best := e.env.ID() // self is always alive
	for _, p := range e.peers {
		if p == e.env.ID() {
			continue
		}
		if seen, ok := e.lastSeen[p]; ok && now-seen <= e.timeout && p < best {
			best = p
		}
	}
	if best != e.leader {
		e.leader = best
		if e.onLeader != nil {
			e.onLeader(best, best == e.env.ID())
		}
	}
}

// OnMessage implements node.Handler.
func (e *Elector) OnMessage(from msg.NodeID, m msg.Message) {
	if _, ok := m.(msg.Heartbeat); !ok {
		return
	}
	e.lastSeen[from] = e.env.Now()
}

// OnTimer implements node.TimerHandler.
func (e *Elector) OnTimer(tag int) {
	if tag != timerTick || !e.running {
		return
	}
	e.tick()
}
