package core

import (
	"math/rand"

	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/node"
)

// Proposer submits commands to a Multicoordinated Paxos deployment.
type Proposer struct {
	env node.Env
	cfg Config

	// Balance enables Section 4.1 load balancing: each command is sent to
	// one randomly chosen coordinator quorum, with one randomly chosen
	// acceptor quorum piggybacked.
	Balance bool
	// RetryEvery > 0 re-proposes unlearned commands periodically.
	RetryEvery int64
	// MaxInflight > 0 bounds how many unlearned commands this proposer keeps
	// submitted at once (the pipeline window, Paxos' alpha): further Propose
	// calls queue and drain as learns come back via MarkLearned. 0 leaves
	// submission unbounded.
	MaxInflight int
	rng         *rand.Rand
	inflight    map[uint64]cstruct.Cmd
	queue       []cstruct.Cmd
	queued      map[uint64]bool // command IDs currently in queue (dedup)
	retryArmed  bool
}

// Proposer timer tags.
const timerRepropose = 2

var _ node.Handler = (*Proposer)(nil)
var _ node.TimerHandler = (*Proposer)(nil)

// NewProposer builds a proposer bound to env. seed drives quorum selection
// when Balance is on.
func NewProposer(env node.Env, cfg Config, seed int64) *Proposer {
	return &Proposer{
		env:      env,
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(seed)),
		inflight: make(map[uint64]cstruct.Cmd),
		queued:   make(map[uint64]bool),
	}
}

// MarkLearned quiesces retransmission for a command and refills the
// pipeline window from the queue.
func (p *Proposer) MarkLearned(cmdID uint64) {
	delete(p.inflight, cmdID)
	p.drain()
}

// drain submits queued commands while the window has room.
func (p *Proposer) drain() {
	for len(p.queue) > 0 && (p.MaxInflight <= 0 || len(p.inflight) < p.MaxInflight) {
		cmd := p.queue[0]
		p.queue = p.queue[1:]
		delete(p.queued, cmd.ID)
		p.inflight[cmd.ID] = cmd
		p.send(cmd)
	}
	if len(p.inflight) > 0 {
		p.armRetry()
	}
}

// OnTimer implements node.TimerHandler.
func (p *Proposer) OnTimer(tag int) {
	if tag != timerRepropose {
		return
	}
	p.retryArmed = false
	if len(p.inflight) == 0 {
		return
	}
	for _, cmd := range p.inflight {
		p.send(cmd)
	}
	p.armRetry()
}

func (p *Proposer) armRetry() {
	if p.RetryEvery > 0 && !p.retryArmed {
		p.retryArmed = true
		p.env.SetTimer(p.RetryEvery, timerRepropose)
	}
}

// Propose submits a command (action Propose): to every coordinator and — so
// fast rounds work — every acceptor, unless Balance restricts the targets.
// With MaxInflight set, commands beyond the window queue until earlier ones
// are learned.
func (p *Proposer) Propose(cmd cstruct.Cmd) {
	if p.MaxInflight > 0 && len(p.inflight) >= p.MaxInflight {
		// Duplicate submissions of a waiting or in-flight command must not
		// re-enter the queue: the copy would resubmit after the original is
		// learned and retransmit forever (nothing re-learns it).
		if !p.queued[cmd.ID] {
			if _, inflight := p.inflight[cmd.ID]; !inflight {
				p.queued[cmd.ID] = true
				p.queue = append(p.queue, cmd)
			}
		}
		return
	}
	p.inflight[cmd.ID] = cmd
	p.send(cmd)
	p.armRetry()
}

func (p *Proposer) send(cmd cstruct.Cmd) {
	if !p.Balance {
		m := msg.Propose{Cmd: cmd}
		node.Broadcast(p.env, p.cfg.Coords, m)
		node.Broadcast(p.env, p.cfg.Acceptors, m)
		return
	}
	coordQ := pickSubset(p.rng, p.cfg.Coords, p.cfg.CoordQ.Size())
	accQ := pickSubset(p.rng, p.cfg.Acceptors, p.cfg.Quorums.ClassicSize())
	m := msg.Propose{Cmd: cmd, AccQuorum: accQ}
	node.Broadcast(p.env, coordQ, m)
}

// OnMessage implements node.Handler; proposers consume nothing.
func (p *Proposer) OnMessage(msg.NodeID, msg.Message) {}

// pickSubset draws k distinct members uniformly.
func pickSubset(r *rand.Rand, from []msg.NodeID, k int) []msg.NodeID {
	idx := r.Perm(len(from))
	if k > len(from) {
		k = len(from)
	}
	out := make([]msg.NodeID, 0, k)
	for _, i := range idx[:k] {
		out = append(out, from[i])
	}
	return out
}
