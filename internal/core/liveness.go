package core

import (
	"mcpaxos/internal/ballot"
	"mcpaxos/internal/failure"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/node"
)

// LeaderDriver implements the liveness policy of Section 4.3 for one
// coordinator: an Ω elector runs among the coordinators; the elected leader
// (a) starts the first round, (b) chases stale rounds (via the
// coordinator's ChaseStale), and (c) when it believes the live coordinators
// no longer form a coordinator quorum, starts a single-coordinated round it
// owns so progress resumes without the crashed peers.
//
// Host it together with its Coordinator under a node.MultiHandler.
type LeaderDriver struct {
	env   node.Env
	cfg   Config
	coord *Coordinator
	el    *failure.Elector

	checkEvery int64
	leading    bool
}

// Driver timer tags (outside coordinator/proposer/elector ranges).
const timerDriverCheck = 3000

var _ node.Handler = (*LeaderDriver)(nil)
var _ node.TimerHandler = (*LeaderDriver)(nil)

// NewLeaderDriver builds the driver for coord. hbEvery/hbTimeout configure
// failure detection; checkEvery the quorum-health probe period.
func NewLeaderDriver(env node.Env, cfg Config, coord *Coordinator, hbEvery, hbTimeout, checkEvery int64) *LeaderDriver {
	d := &LeaderDriver{env: env, cfg: cfg, coord: coord, checkEvery: checkEvery}
	d.el = failure.NewElector(env, cfg.Coords, hbEvery, hbTimeout, d.onLeader)
	return d
}

// Start begins heartbeating and health checks.
func (d *LeaderDriver) Start() {
	d.el.Start()
	d.env.SetTimer(d.checkEvery, timerDriverCheck)
}

// Leader exposes the current leader belief.
func (d *LeaderDriver) Leader() msg.NodeID { return d.el.Leader() }

func (d *LeaderDriver) onLeader(_ msg.NodeID, isSelf bool) {
	d.leading = isSelf
	d.coord.ChaseStale = isSelf
	if isSelf {
		// Ensure some round this coordinator can drive exists: start the
		// scheme's next round above anything we attempted so far.
		base := ballot.Max(d.coord.Rnd(), d.coord.attempt)
		if base.IsZero() {
			d.coord.StartRound(d.cfg.Scheme.First(0, uint32(d.env.ID())))
			return
		}
		d.coord.StartRound(NextAbove(d.cfg.Scheme, base, uint32(d.env.ID())))
	}
}

// OnMessage implements node.Handler (heartbeats feed the elector).
func (d *LeaderDriver) OnMessage(from msg.NodeID, m msg.Message) {
	d.el.OnMessage(from, m)
}

// OnTimer implements node.TimerHandler.
func (d *LeaderDriver) OnTimer(tag int) {
	d.el.OnTimer(tag)
	if tag != timerDriverCheck {
		return
	}
	d.env.SetTimer(d.checkEvery, timerDriverCheck)
	if !d.leading {
		return
	}
	// Section 4.1/4.3: if the current round is multicoordinated and the
	// live coordinators no longer contain a coordinator quorum, take over
	// with a single-coordinated round.
	cur := ballot.Max(d.coord.Rnd(), d.coord.attempt)
	if d.cfg.Scheme.Kind(cur) != ballot.KindMulti {
		return
	}
	if d.el.AliveCount() >= d.cfg.CoordQ.Size() {
		return
	}
	next := NextAbove(d.cfg.Scheme, cur, uint32(d.env.ID()))
	for d.cfg.Scheme.Kind(next) == ballot.KindMulti {
		next = NextAbove(d.cfg.Scheme, next, uint32(d.env.ID()))
	}
	d.coord.StartRound(next)
}
