package core

import (
	"mcpaxos/internal/ballot"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/node"
	"mcpaxos/internal/quorum"
	"mcpaxos/internal/sim"
	"mcpaxos/internal/storage"
)

// Cluster wires a Multicoordinated Paxos deployment into a simulator.
type Cluster struct {
	Sim      *sim.Sim
	Cfg      Config
	Coords   []*Coordinator
	Accs     []*Acceptor
	Disks    []storage.Stable
	Learners []*Learner
	Props    []*Proposer

	// LearnTimes maps command ID → simulated time learner 0 first learned
	// a c-struct containing it.
	LearnTimes map[uint64]int64

	// recipes holds the bring-up build of every coordinator and acceptor,
	// the nodes Restart can restart.
	recipes map[msg.NodeID]func(node.Env) node.Handler
}

// ClusterOpts parameterizes NewCluster.
type ClusterOpts struct {
	NCoords    int
	NAcceptors int
	NLearners  int
	NProposers int
	F, E       int
	Seed       int64
	Scheme     ballot.Scheme
	Set        cstruct.Set
	Recovery   Recovery
	Balance    bool
	// RetryEvery > 0 enables retransmission at proposers and coordinators.
	RetryEvery int64
	// MaxInflight bounds each proposer's pipeline window; 0 is unbounded.
	MaxInflight int
	// Stable supplies acceptor i's stable store (e.g. a WAL opened on a
	// real directory); nil defaults to a fresh in-memory Disk.
	Stable func(i int) storage.Stable
}

// NewCluster builds and registers a deployment: proposers 1+i, coordinators
// 100+i, acceptors 200+i, learners 300+i.
func NewCluster(o ClusterOpts) *Cluster {
	if o.NLearners == 0 {
		o.NLearners = 1
	}
	if o.NProposers == 0 {
		o.NProposers = 1
	}
	if o.Scheme == nil {
		o.Scheme = ballot.MultiScheme{}
	}
	if o.Set == nil {
		o.Set = cstruct.SingleValueSet{}
	}
	s := sim.New(o.Seed)
	cfg := Config{
		Quorums:  quorum.MustAcceptorSystem(o.NAcceptors, o.F, o.E),
		CoordQ:   quorum.MustCoordSystem(o.NCoords),
		Scheme:   o.Scheme,
		Set:      o.Set,
		Recovery: o.Recovery,
	}
	for i := 0; i < o.NCoords; i++ {
		cfg.Coords = append(cfg.Coords, msg.NodeID(100+i))
	}
	for i := 0; i < o.NAcceptors; i++ {
		cfg.Acceptors = append(cfg.Acceptors, msg.NodeID(200+i))
	}
	for i := 0; i < o.NLearners; i++ {
		cfg.Learners = append(cfg.Learners, msg.NodeID(300+i))
	}

	cl := &Cluster{
		Sim:        s,
		Cfg:        cfg,
		Coords:     make([]*Coordinator, len(cfg.Coords)),
		Accs:       make([]*Acceptor, len(cfg.Acceptors)),
		Disks:      make([]storage.Stable, len(cfg.Acceptors)),
		LearnTimes: make(map[uint64]int64),
		recipes:    make(map[msg.NodeID]func(node.Env) node.Handler),
	}
	for i, id := range cfg.Coords {
		cl.host(id, func(env node.Env) node.Handler {
			cl.Coords[i] = NewCoordinator(env, cfg)
			cl.Coords[i].RetryEvery = o.RetryEvery
			return cl.Coords[i]
		})
	}
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
		var fn UpdateFn
		if i == 0 {
			fn = func(_ cstruct.CStruct, fresh []cstruct.Cmd) {
				for _, c := range fresh {
					if _, ok := cl.LearnTimes[c.ID]; !ok {
						cl.LearnTimes[c.ID] = s.Now()
					}
					// Quiesce retransmission, standing in for the learn
					// notifications a deployment would send back.
					for _, p := range cl.Props {
						p.MarkLearned(c.ID)
					}
					for _, co := range cl.Coords {
						co.MarkLearned(c.ID)
					}
				}
			}
		}
		l := NewLearner(s.Env(id), cfg, fn)
		s.Register(id, l)
		cl.Learners = append(cl.Learners, l)
	}
	for i := 0; i < o.NProposers; i++ {
		id := msg.NodeID(1 + i)
		p := NewProposer(s.Env(id), cfg, o.Seed+int64(i))
		p.Balance = o.Balance
		p.RetryEvery = o.RetryEvery
		p.MaxInflight = o.MaxInflight
		s.Register(id, p)
		cl.Props = append(cl.Props, p)
	}
	return cl
}

// host brings node id up with build and keeps the recipe for Restart.
func (cl *Cluster) host(id msg.NodeID, build func(node.Env) node.Handler) {
	cl.recipes[id] = build
	cl.Sim.Restart(id, build)
}

// Restart restarts coordinator or acceptor id as a process restart would: its
// bring-up recipe builds a new handler — for an acceptor over Disks[i], which
// is the recovery; a coordinator comes back knowing nothing (Section 4.4) —
// and re-points Coords[i] or Accs[i] at it.
func (cl *Cluster) Restart(id msg.NodeID) { cl.Sim.Restart(id, cl.recipes[id]) }

// Start has coordinator i begin the scheme's first round and drains the
// simulator: the cluster is then ready for steady-state commands.
func (cl *Cluster) Start(i int) {
	cl.Coords[i].StartRound(cl.Cfg.Scheme.First(0, uint32(cl.Cfg.Coords[i])))
	cl.Sim.Run()
}

// TotalDiskWrites sums the synchronous writes of every acceptor disk.
func (cl *Cluster) TotalDiskWrites() uint64 {
	var t uint64
	for _, d := range cl.Disks {
		t += d.Writes()
	}
	return t
}

// Agreement checks Consistency across all learners: every pair of learned
// c-structs must be compatible.
func (cl *Cluster) Agreement() bool {
	for i := range cl.Learners {
		for j := i + 1; j < len(cl.Learners); j++ {
			if !cl.Cfg.Set.Compatible(cl.Learners[i].Learned(), cl.Learners[j].Learned()) {
				return false
			}
		}
	}
	return true
}
