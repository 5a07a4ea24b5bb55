package classic

import (
	"slices"

	"mcpaxos/internal/ballot"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/node"
	"mcpaxos/internal/quorum"
	"mcpaxos/internal/sim"
	"mcpaxos/internal/storage"
)

// Cluster wires a full deployment into a simulator: a set of
// coordinators, acceptors with their disks, learners, and one proposer. It
// is the building block of tests and experiments.
type Cluster struct {
	Sim      *sim.Sim
	Cfg      Config
	Coords   []*Coordinator
	Accs     []*Acceptor
	Disks    []storage.Stable
	Learners []*Learner
	Prop     *Proposer

	// LearnTime records, per instance, the simulated time at which learner
	// 0 learned it.
	LearnTime map[uint64]int64
	// LearnedCmds records, per instance, the command learner 0 learned.
	LearnedCmds map[uint64]cstruct.Cmd

	// recipes holds the bring-up build of every coordinator and acceptor,
	// the nodes Restart can restart.
	recipes map[msg.NodeID]func(node.Env) node.Handler
}

// ClusterOpts parameterizes NewCluster.
type ClusterOpts struct {
	NCoords    int
	NAcceptors int
	NLearners  int
	F          int
	Seed       int64
	RetryEvery int64 // 0 disables retransmission
	// MaxInflight bounds each coordinator's pipeline window; 0 is unbounded.
	// In sharded deployments each shard's group gets its own window, so the
	// aggregate pipeline is Shards × MaxInflight.
	MaxInflight int
	// Shards > 1 partitions the instance space across that many concurrent
	// coordinator groups: coordinator i serves instances ≡ i (mod Shards).
	Shards int
	// CoordsPerShard is the paper's c, the coordinator group size serving
	// each shard's rounds (Config.CoordsPerShard): acceptors accept on a
	// coordinator quorum of ⌊c/2⌋+1 matching 2a messages, so ⌊c/2⌋
	// coordinator crashes per shard mask without a round change. 0 or 1 is
	// Classic Paxos. NCoords is raised to Shards×CoordsPerShard if lower;
	// coordinators beyond that are standbys for shard i mod Shards.
	CoordsPerShard int
	// Stable supplies acceptor i's stable store (e.g. a WAL opened on a
	// real directory); nil defaults to a fresh in-memory Disk.
	Stable func(i int) storage.Stable
	// OnLearn, when set, observes every instance learned by learner 0 after
	// the cluster's own bookkeeping (e.g. to feed an smr.Merger).
	OnLearn LearnFn
}

// NewCluster builds and registers a deployment. Node IDs are assigned as:
// proposer 1, coordinators 100+i, acceptors 200+i, learners 300+i.
func NewCluster(o ClusterOpts) *Cluster {
	if o.NLearners == 0 {
		o.NLearners = 1
	}
	o.NCoords = max(o.NCoords, max(o.Shards, 1)*max(o.CoordsPerShard, 1))
	s := sim.New(o.Seed)
	cfg := Config{
		Quorums:        quorum.MustAcceptorSystem(o.NAcceptors, o.F, 0),
		Shards:         o.Shards,
		CoordsPerShard: o.CoordsPerShard,
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

	if err := cfg.Validate(); err != nil {
		// Assumption 3 and the group sizing are checked at cluster build:
		// a deployment whose shard groups cannot form coordinator quorums
		// must not come up at all.
		panic(err)
	}

	cl := &Cluster{
		Sim:         s,
		Cfg:         cfg,
		Coords:      make([]*Coordinator, len(cfg.Coords)),
		Accs:        make([]*Acceptor, len(cfg.Acceptors)),
		Disks:       make([]storage.Stable, len(cfg.Acceptors)),
		LearnTime:   make(map[uint64]int64),
		LearnedCmds: make(map[uint64]cstruct.Cmd),
		recipes:     make(map[msg.NodeID]func(node.Env) node.Handler),
	}

	for i, id := range cfg.Coords {
		cl.host(id, func(env node.Env) node.Handler {
			c := NewCoordinator(env, cfg)
			c.RetryEvery = o.RetryEvery
			c.MaxInflight = o.MaxInflight
			cl.Coords[i] = c
			return c
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
		var fn LearnFn
		if i == 0 {
			fn = func(inst uint64, cmd cstruct.Cmd) {
				cl.LearnTime[inst] = s.Now()
				cl.LearnedCmds[inst] = cmd
				// Quiesce retransmission, standing in for the learn
				// notifications a deployment would deliver to clients; the
				// coordinators get the learner's ack, as a deployment's do.
				cl.Prop.MarkLearned(cmd.ID)
				cl.ack(id, inst)
				if o.OnLearn != nil {
					o.OnLearn(inst, cmd)
				}
			}
		}
		l := NewLearner(s.Env(id), cfg, fn)
		if i == 0 {
			// A repaired coordinator re-forwards its shard's decided history;
			// the acceptors' duplicate announcements land here and must
			// re-acknowledge those instances, or the repaired member's window
			// wedges retransmitting slots that decided before it restarted
			// (the simulator twin of the deploy layer's OnDuplicate quiesce).
			l.OnDuplicate = func(inst uint64) { cl.ack(id, inst) }
		}
		s.Register(id, l)
		cl.Learners = append(cl.Learners, l)
	}
	cl.Prop = NewProposer(s.Env(1), cfg)
	cl.Prop.RetryEvery = o.RetryEvery
	s.Register(1, cl.Prop)
	return cl
}

// ack hands learner's acknowledgement of inst to every coordinator, each as a
// burst of its own: the learn may empty a pipeline under buffered submissions.
func (cl *Cluster) ack(learner msg.NodeID, inst uint64) {
	for _, co := range cl.Coords {
		co.OnMessage(learner, msg.P2b{Inst: inst})
		co.OnIdle()
	}
}

// host brings node id up with build and keeps the recipe for Restart.
func (cl *Cluster) host(id msg.NodeID, build func(node.Env) node.Handler) {
	cl.recipes[id] = build
	cl.Sim.Restart(id, build)
}

// Restart restarts coordinator or acceptor id as a process restart would: its
// bring-up recipe builds a new handler — for an acceptor over Disks[i], which
// is the recovery — and re-points Coords[i] or Accs[i] at it. A coordinator
// has no stable state, so it then takes the step deploy.Replica.start takes
// for a restarted one: Repair.
func (cl *Cluster) Restart(id msg.NodeID) {
	cl.Sim.Restart(id, cl.recipes[id])
	if i := slices.Index(cl.Cfg.Coords, id); i >= 0 {
		cl.Coords[i].Repair()
	}
}

// Lead runs phase 1 on coordinator i and drains the simulator, leaving the
// cluster ready for three-step commands.
func (cl *Cluster) Lead(i int) {
	cl.Coords[i].BecomeLeader()
	cl.Sim.Run()
}

// LeadAll runs phase 1 on every shard's primary (coordinators 0..NShards−1)
// and drains the simulator: each residue class then has an independent
// coordinator group with its own pipeline window. The acceptors send their
// promises to the round's whole group, so one 1a per shard establishes the
// round at every group member.
func (cl *Cluster) LeadAll() {
	for i := 0; i < cl.Cfg.NShards(); i++ {
		cl.Coords[i].BecomeLeader()
	}
	cl.Sim.Run()
}

// ShardRound returns the highest round any acceptor has joined for shard:
// the observable round the shard's group is serving.
func (cl *Cluster) ShardRound(shard int) ballot.Ballot {
	hi := ballot.Zero
	for _, a := range cl.Accs {
		hi = ballot.Max(hi, a.ShardRnd(shard))
	}
	return hi
}

// RoundChanges sums the post-establishment round changes across every
// coordinator: a crash-masked drain reports 0.
func (cl *Cluster) RoundChanges() int {
	n := 0
	for _, co := range cl.Coords {
		n += co.RoundChanges()
	}
	return n
}

// TotalDiskWrites sums the synchronous writes of every acceptor disk.
func (cl *Cluster) TotalDiskWrites() uint64 {
	var t uint64
	for _, d := range cl.Disks {
		t += d.Writes()
	}
	return t
}
