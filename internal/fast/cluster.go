package fast

import (
	"mcpaxos/internal/ballot"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/node"
	"mcpaxos/internal/quorum"
	"mcpaxos/internal/sim"
	"mcpaxos/internal/storage"
)

// Cluster wires one Fast Paxos consensus instance into a simulator.
type Cluster struct {
	Sim      *sim.Sim
	Cfg      Config
	Coord    *Coordinator
	Accs     []*Acceptor
	Disks    []storage.Stable
	Learners []*Learner

	// LearnTime is the simulated time of learner 0's learn event (-1 until
	// it happens).
	LearnTime int64
	// LearnedCmd is learner 0's decision.
	LearnedCmd cstruct.Cmd

	// recipes holds the bring-up build of the coordinator and every
	// acceptor, the nodes Restart can restart.
	recipes map[msg.NodeID]func(node.Env) node.Handler
}

// ClusterOpts parameterizes NewCluster.
type ClusterOpts struct {
	NAcceptors int
	F, E       int
	Seed       int64
	Strategy   Strategy
	Scheme     ballot.Scheme
	NLearners  int
	// Stable supplies acceptor i's stable store (e.g. a WAL opened on a
	// real directory); nil defaults to a fresh in-memory Disk.
	Stable func(i int) storage.Stable
}

// NewCluster builds and registers a deployment: coordinator 100, acceptors
// 200+i, learners 300+i, proposers are external (use Propose).
func NewCluster(o ClusterOpts) *Cluster {
	if o.NLearners == 0 {
		o.NLearners = 1
	}
	if o.Scheme == nil {
		o.Scheme = ballot.FastScheme{}
	}
	if o.Strategy == 0 {
		o.Strategy = RecoveryCoordinated
	}
	s := sim.New(o.Seed)
	cfg := Config{
		Coords:   []msg.NodeID{100},
		Quorums:  quorum.MustAcceptorSystem(o.NAcceptors, o.F, o.E),
		Scheme:   o.Scheme,
		Strategy: o.Strategy,
	}
	for i := 0; i < o.NAcceptors; i++ {
		cfg.Acceptors = append(cfg.Acceptors, msg.NodeID(200+i))
	}
	for i := 0; i < o.NLearners; i++ {
		cfg.Learners = append(cfg.Learners, msg.NodeID(300+i))
	}

	cl := &Cluster{
		Sim:       s,
		Cfg:       cfg,
		Accs:      make([]*Acceptor, len(cfg.Acceptors)),
		Disks:     make([]storage.Stable, len(cfg.Acceptors)),
		LearnTime: -1,
		recipes:   make(map[msg.NodeID]func(node.Env) node.Handler),
	}
	cl.host(100, func(env node.Env) node.Handler {
		cl.Coord = NewCoordinator(env, cfg)
		return cl.Coord
	})
	for i, id := range cfg.Acceptors {
		cl.Disks[i] = &storage.Disk{}
		if o.Stable != nil {
			cl.Disks[i] = o.Stable(i)
		}
		// Disks[i] is read when the recipe runs: a restart over a reopened
		// log sets it first.
		cl.host(id, func(env node.Env) node.Handler {
			cl.Accs[i] = NewAcceptor(env, cfg, cl.Disks[i])
			return cl.Accs[i]
		})
	}
	for i, id := range cfg.Learners {
		var fn LearnFn
		if i == 0 {
			fn = func(cmd cstruct.Cmd) {
				cl.LearnTime = s.Now()
				cl.LearnedCmd = cmd
				cl.Coord.MarkDecided()
			}
		}
		l := NewLearner(s.Env(id), cfg, fn)
		s.Register(id, l)
		cl.Learners = append(cl.Learners, l)
	}
	return cl
}

// host brings node id up with build and keeps the recipe for Restart.
func (cl *Cluster) host(id msg.NodeID, build func(node.Env) node.Handler) {
	cl.recipes[id] = build
	cl.Sim.Restart(id, build)
}

// Restart restarts the coordinator or acceptor id as a process restart would:
// its bring-up recipe builds a new handler — for an acceptor over Disks[i],
// which is the recovery — and re-points Coord or Accs[i] at it.
func (cl *Cluster) Restart(id msg.NodeID) { cl.Sim.Restart(id, cl.recipes[id]) }

// Propose submits cmd from a proposer node with the given id at the current
// simulated time: the command goes to coordinators and acceptors, as fast
// rounds require.
func (cl *Cluster) Propose(proposerID msg.NodeID, cmd cstruct.Cmd) {
	cl.Sim.Register(proposerID, nopHandler{}) // idempotent for proposer IDs
	env := cl.Sim.Env(proposerID)
	m := msg.Propose{Cmd: cmd}
	node.Broadcast(env, cl.Cfg.Coords, m)
	node.Broadcast(env, cl.Cfg.Acceptors, m)
}

// TotalDiskWrites sums the synchronous writes of every acceptor disk.
func (cl *Cluster) TotalDiskWrites() uint64 {
	var t uint64
	for _, d := range cl.Disks {
		t += d.Writes()
	}
	return t
}

type nopHandler struct{}

func (nopHandler) OnMessage(msg.NodeID, msg.Message) {}
