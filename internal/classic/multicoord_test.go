package classic

import (
	"fmt"
	"slices"
	"testing"

	"mcpaxos/internal/ballot"
	"mcpaxos/internal/batch"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/quorum"
	"mcpaxos/internal/sim"
)

// These tests cover what only a group of c ≥ 2 coordinators shows on the one
// round path (Section 4.1 applied per shard): quorum-counted 2a forwarding,
// the Section 4.2 collision promotion, and the crash-masking claim — one
// group member dying costs zero round changes. Behaviour that holds at every
// c is tested over c ∈ {1, 3} in the other files (eachC).

func mcCmd(id uint64) cstruct.Cmd { return cstruct.Cmd{ID: id, Key: "k", Op: cstruct.OpWrite} }

func TestConfigValidateMulticoord(t *testing.T) {
	base := Config{
		Acceptors: []msg.NodeID{200, 201, 202},
		Learners:  []msg.NodeID{300},
		Quorums:   quorum.MustAcceptorSystem(3, 1, 0),
	}

	ok := base
	ok.Coords = []msg.NodeID{100, 101, 102, 103, 104, 105}
	ok.Shards, ok.CoordsPerShard = 2, 3
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid multicoordinated config rejected: %v", err)
	}
	r := ballot.Ballot{MinCount: 1, ID: 100}
	if got := ok.RoundGroup(0, r); len(got) != 3 || got[0] != 100 || got[1] != 102 || got[2] != 104 {
		t.Errorf("shard 0 group %v, want [100 102 104]", got)
	}
	if got := ok.CoordQuorumSize(); got != 2 {
		t.Errorf("coord quorum size %d for c=3, want 2", got)
	}
	if ok.InRoundGroup(0, r, 101) || !ok.InRoundGroup(1, r, 103) {
		t.Error("group membership misassigned across shards")
	}

	short := base
	short.Coords = []msg.NodeID{100, 101, 102, 103}
	short.Shards, short.CoordsPerShard = 2, 3
	if err := short.Validate(); err == nil {
		t.Error("2 shards × 3 coords/shard over 4 coordinators must not validate")
	}

	single := base
	single.Coords = []msg.NodeID{100}
	if got := single.CoordQuorumSize(); got != 1 {
		t.Errorf("c = 1 quorum size %d, want 1", got)
	}
}

// The group of a round is the c coordinators of the shard starting at the
// round's owner: every coordinator when the shard deploys exactly c, the
// owner alone at c = 1 (a standby's round is served by the standby), a
// wrapping window when standbys exist beyond a larger group.
func TestRoundGroup(t *testing.T) {
	cfg := Config{Coords: []msg.NodeID{100, 101, 102, 103, 104, 105, 106, 107}, Shards: 2}
	round := func(owner msg.NodeID) ballot.Ballot { return ballot.Ballot{MinCount: 1, ID: uint32(owner)} }
	for _, tc := range []struct {
		c     int
		shard int
		r     ballot.Ballot
		want  []msg.NodeID
	}{
		{1, 0, ballot.Zero, []msg.NodeID{100}},
		{1, 0, round(100), []msg.NodeID{100}},
		{1, 0, round(104), []msg.NodeID{104}},
		{1, 1, round(107), []msg.NodeID{107}},
		{1, 1, ballot.Ballot{MCount: 2}, []msg.NodeID{101}}, // acceptor recovery floor: no owner
		{3, 0, round(100), []msg.NodeID{100, 102, 104}},
		{3, 0, round(104), []msg.NodeID{104, 106, 100}},
		{3, 1, round(999), []msg.NodeID{101, 103, 105}},
		{4, 1, round(105), []msg.NodeID{101, 103, 105, 107}}, // exactly c deployed: all, in deployment order
	} {
		cfg.CoordsPerShard = tc.c
		got := cfg.RoundGroup(tc.shard, tc.r)
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("c=%d shard %d round %v: group %v, want %v", tc.c, tc.shard, tc.r, got, tc.want)
		}
		for _, id := range cfg.Coords {
			in := false
			for _, w := range tc.want {
				in = in || w == id
			}
			if cfg.InRoundGroup(tc.shard, tc.r, id) != in {
				t.Errorf("c=%d shard %d round %v: InRoundGroup(%v) = %v", tc.c, tc.shard, tc.r, id, !in)
			}
		}
	}
}

// InRoundGroup answers RoundGroup's membership on every shape, and — an
// acceptor asks it of every 2a it takes — allocates nothing doing so, on the
// deployed 2-shard c = 3 shape and with standbys beyond the group.
func TestInRoundGroupMatchesRoundGroupWithoutAllocating(t *testing.T) {
	all := []msg.NodeID{100, 101, 102, 103, 104, 105, 106, 107, 108}
	ids := append([]msg.NodeID{999}, all...)
	rounds := []ballot.Ballot{ballot.Zero, {MCount: 2}, {MinCount: 1, ID: 999}}
	for _, id := range all {
		rounds = append(rounds, ballot.Ballot{MinCount: 1, ID: uint32(id)})
	}
	for shards := 0; shards <= 3; shards++ {
		for n := max(shards, 1); n <= len(all); n++ {
			for c := 0; c <= 4; c++ {
				cfg := Config{Coords: all[:n], Shards: shards, CoordsPerShard: c}
				for shard := range cfg.NShards() {
					for _, r := range rounds {
						group := cfg.RoundGroup(shard, r)
						for _, id := range ids {
							if got, want := cfg.InRoundGroup(shard, r, id), slices.Contains(group, id); got != want {
								t.Fatalf("%d shards, %d coords, c=%d, shard %d, round %v: InRoundGroup(%v) = %v, group %v",
									shards, n, c, shard, r, id, got, group)
							}
						}
					}
				}
			}
		}
	}
	for _, n := range []int{6, 8} {
		cfg := Config{Coords: all[:n], Shards: 2, CoordsPerShard: 3}
		allocs := testing.AllocsPerRun(100, func() {
			for _, r := range rounds {
				for _, id := range ids {
					cfg.InRoundGroup(int(id)%2, r, id)
				}
			}
		})
		if allocs != 0 {
			t.Errorf("2 shards, c = 3 over %d coordinators: InRoundGroup allocates %v per sweep, want 0", n, allocs)
		}
	}
}

// A coordinator's shard is derived from the configuration, by the convention
// of ShardCoords: cfg.Coords[i] serves shard i mod NShards, and an ID outside
// cfg.Coords serves shard 0.
func TestCoordinatorShardFromConfig(t *testing.T) {
	cfg := Config{Coords: []msg.NodeID{100, 101, 102, 103}, Shards: 2, CoordsPerShard: 1}
	s := sim.New(1)
	for i, want := range []int{0, 1, 0, 1} {
		if got := NewCoordinator(s.Env(cfg.Coords[i]), cfg).shard; got != want {
			t.Errorf("coordinator %d serves shard %d, want %d", i, got, want)
		}
	}
	if got := NewCoordinator(s.Env(999), cfg).shard; got != 0 {
		t.Errorf("an ID outside cfg.Coords serves shard %d, want 0", got)
	}
}

// One 1a from the shard's primary must establish the round at every group
// member (acceptors broadcast their promise to the group), after which the
// full stream decides with zero round changes.
func TestMulticoordGroupDecides(t *testing.T) {
	cl := NewCluster(ClusterOpts{NAcceptors: 3, F: 1, Seed: 31, CoordsPerShard: 3, NLearners: 2})
	cl.LeadAll()
	for i, co := range cl.Coords {
		if !co.Leading() {
			t.Fatalf("group member %d did not establish the round", i)
		}
		if !co.Rnd().Equal(cl.Coords[0].Rnd()) {
			t.Fatalf("member %d serves round %v, primary serves %v", i, co.Rnd(), cl.Coords[0].Rnd())
		}
	}
	for i := 0; i < 8; i++ {
		cl.Prop.ProposeTo(0, mcCmd(uint64(100+i)))
	}
	cl.Sim.Run()
	if got := len(cl.LearnedCmds); got != 8 {
		t.Fatalf("learned %d/8 instances", got)
	}
	for inst := uint64(0); inst < 8; inst++ {
		c0, ok0 := cl.Learners[0].Learned(inst)
		c1, ok1 := cl.Learners[1].Learned(inst)
		if !ok0 || !ok1 || !c0.Equal(c1) {
			t.Errorf("instance %d: learners disagree (%v/%v, %v/%v)", inst, c0, ok0, c1, ok1)
		}
	}
	if got := cl.RoundChanges(); got != 0 {
		t.Errorf("crash-free multicoordinated run paid %d round changes", got)
	}
	// Completed tallies must be garbage-collected with their vote: acceptor
	// memory is bounded by in-flight instances, not instances ever decided.
	for i, a := range cl.Accs {
		for inst := uint64(0); inst < 8; inst++ {
			if _, _, ok := a.Tally(inst); ok {
				t.Errorf("acceptor %d retains the tally of decided instance %d", i, inst)
			}
		}
	}
}

// Killing one of three group members mid-traffic must mask completely: the
// stream keeps deciding in the same round, with zero round changes — the
// paper's headline claim, here composed with the sharded command path.
func TestMulticoordCrashMasking(t *testing.T) {
	cl := NewCluster(ClusterOpts{NAcceptors: 3, F: 1, Seed: 37, CoordsPerShard: 3})
	cl.LeadAll()
	before := cl.ShardRound(0)
	for i := 0; i < 4; i++ {
		cl.Prop.ProposeTo(0, mcCmd(uint64(200+i)))
	}
	cl.Sim.Run()

	cl.Sim.Crash(cl.Cfg.Coords[1])
	for i := 4; i < 10; i++ {
		cl.Prop.ProposeTo(0, mcCmd(uint64(200+i)))
	}
	cl.Sim.Run()

	if got := len(cl.LearnedCmds); got != 10 {
		t.Fatalf("learned %d/10 with one group member down", got)
	}
	if got := cl.ShardRound(0); !got.Equal(before) {
		t.Errorf("round changed %v → %v despite a maskable crash", before, got)
	}
	if got := cl.RoundChanges(); got != 0 {
		t.Errorf("masked crash paid %d round changes, want 0", got)
	}
	for _, a := range cl.Accs {
		if a.Promotions() != 0 {
			t.Errorf("acceptor promoted a round on a conflict-free run")
		}
	}
}

// With only one member left (< ⌊3/2⌋+1), acceptors must hold the value in a
// partial tally and not accept; restoring a second member completes the
// quorum from retransmissions.
func TestMulticoordQuorumGating(t *testing.T) {
	cl := NewCluster(ClusterOpts{NAcceptors: 3, F: 1, Seed: 41, CoordsPerShard: 3, RetryEvery: 4})
	cl.LeadAll()
	cl.Sim.Crash(cl.Cfg.Coords[1])
	cl.Sim.Crash(cl.Cfg.Coords[2])

	cl.Prop.ProposeTo(0, mcCmd(900))
	// Bounded run: the lone member's 2a can never reach a coordinator
	// quorum, so the proposal must stay unaccepted while retries tick.
	cl.Sim.RunUntil(cl.Sim.Now() + 20)
	if _, ok := cl.LearnedCmds[0]; ok {
		t.Fatal("instance accepted on a single member's 2a (quorum gating broken)")
	}
	rnd, coords, ok := cl.Accs[0].Tally(0)
	if !ok || len(coords) != 1 || coords[0] != cl.Cfg.Coords[0] {
		t.Fatalf("partial tally = (%v, %v, %v), want exactly the surviving member", rnd, coords, ok)
	}

	// A second member comes back: proposer retransmissions re-feed it and
	// the tally completes without a round change.
	cl.Restart(cl.Cfg.Coords[1])
	cl.Sim.Run()
	if _, ok := cl.LearnedCmds[0]; !ok {
		t.Fatal("instance still undecided after the quorum re-formed")
	}
	if got := cl.RoundChanges(); got != 0 {
		t.Errorf("re-formed quorum paid %d round changes, want 0", got)
	}
}

// 2a messages from outside the shard's group must never count toward a
// coordinator quorum.
func TestMulticoordNonMember2aIgnored(t *testing.T) {
	cl := NewCluster(ClusterOpts{NAcceptors: 3, F: 1, Seed: 43, CoordsPerShard: 3})
	cl.LeadAll()
	r := cl.Coords[0].Rnd()
	for _, impostor := range []msg.NodeID{999, 998} {
		deliver(cl.Accs[0], impostor, msg.P2a{
			Inst: 0, Rnd: r, Coord: impostor, Val: wrap(mcCmd(700)),
		})
	}
	cl.Sim.Run()
	if _, _, ok := cl.Accs[0].Tally(0); ok {
		t.Error("non-member 2as created a tally")
	}
	if _, _, ok := cl.Accs[0].Vote(0); ok {
		t.Error("non-member 2as were accepted")
	}
}

// Conflicting 2a values within one round are the Section 4.2 collision:
// every acceptor promotes the shard to the successor round, the group
// re-establishes it, and the shard keeps deciding afterwards. The collided
// round costs no acceptor a disk write — the paper's case against fast
// rounds, whose collisions each cost one.
func TestMulticoordCollisionPromotes(t *testing.T) {
	cl := NewCluster(ClusterOpts{NAcceptors: 3, F: 1, Seed: 47, CoordsPerShard: 3})
	cl.LeadAll()
	r := cl.Coords[0].Rnd()
	writes := cl.TotalDiskWrites()

	// Two members disagree on instance 0 — impossible through the seq-routed
	// proposer, injected directly to model a byzantine-free divergence (e.g.
	// a re-established round racing a stale member).
	for _, a := range cl.Accs {
		deliver(a, cl.Cfg.Coords[0], msg.P2a{Inst: 0, Rnd: r, Coord: cl.Cfg.Coords[0], Val: wrap(mcCmd(801))})
		deliver(a, cl.Cfg.Coords[1], msg.P2a{Inst: 0, Rnd: r, Coord: cl.Cfg.Coords[1], Val: wrap(mcCmd(802))})
	}
	cl.Sim.Run()

	promoted := 0
	for _, a := range cl.Accs {
		promoted += a.Promotions()
	}
	if promoted == 0 {
		t.Fatal("conflicting 2as did not trigger a collision promotion")
	}
	if got := cl.ShardRound(0); !r.Less(got) {
		t.Fatalf("shard round %v did not advance past the collided round %v", got, r)
	}
	if cl.RoundChanges() == 0 {
		t.Error("group never re-established the promoted round")
	}
	if got := cl.TotalDiskWrites() - writes; got != 0 {
		t.Errorf("the collided round cost %d disk writes, want 0", got)
	}

	// The shard keeps deciding in the recovered round.
	cl.Prop.ProposeTo(0, mcCmd(803))
	cl.Sim.Run()
	if got := cl.TotalDiskWrites() - writes; got != uint64(len(cl.Accs)) {
		t.Errorf("one accepted instance cost %d disk writes, want one per acceptor", got)
	}
	found := false
	for _, cmd := range cl.LearnedCmds {
		if cmd.ID == 803 {
			found = true
		}
	}
	if !found {
		t.Fatal("shard stopped deciding after collision recovery")
	}
}

// Two failover stampers claiming one sequence slot for different commands
// must converge on a single value instead of colliding forever: promotion
// alone only re-establishes rounds in which the members re-forward the same
// split. Each member receives the other's stamp share, the group-wide
// preference picks one winner (lower command ID), and the slot decides.
func TestMulticoordDivergentStampsConverge(t *testing.T) {
	cl := NewCluster(ClusterOpts{NAcceptors: 3, F: 1, Seed: 61, CoordsPerShard: 3, RetryEvery: 4})
	cl.LeadAll()

	// Members 0 and 1 each stamped a different command at seq 0 — the live
	// analogue is two overlapping ingress stampers during a primary failover
	// — and each then receives the other's stamp share.
	x, y := mcCmd(901), mcCmd(902)
	deliver(cl.Coords[0], cl.Cfg.Coords[0], msg.Propose{Cmd: x, Seq: 0, HasSeq: true})
	deliver(cl.Coords[1], cl.Cfg.Coords[1], msg.Propose{Cmd: y, Seq: 0, HasSeq: true})
	deliver(cl.Coords[0], cl.Cfg.Coords[1], msg.Propose{Cmd: y, Seq: 0, HasSeq: true})
	deliver(cl.Coords[1], cl.Cfg.Coords[0], msg.Propose{Cmd: x, Seq: 0, HasSeq: true})
	cl.Sim.Run()

	got, ok := cl.LearnedCmds[0]
	if !ok {
		t.Fatal("instance 0 never decided: divergent stamps did not converge")
	}
	if !got.Equal(x) {
		t.Fatalf("decided command %d, want the preference winner %d", got.ID, x.ID)
	}
}

// A stamp share can reach a member after the learners' acknowledgement of
// its instance did (the share's first connection was slow). The member has
// nothing left to forward, but it must still learn the request keys: the
// client's late retry maps to the decided slot instead of being stamped — and
// decided — a second time.
func TestMulticoordLateShareStillIndexesRequests(t *testing.T) {
	cl := NewCluster(ClusterOpts{NAcceptors: 3, F: 1, Seed: 67, CoordsPerShard: 3})
	cl.LeadAll()
	co := cl.Coords[2]
	req := func(n uint64) cstruct.Cmd { return mcCmd(CmdID(7, n)) }
	batched := batch.Pack([]cstruct.Cmd{req(11), req(12)})

	deliver(co, cl.Cfg.Learners[0], msg.P2b{Inst: 0})
	deliver(co, cl.Cfg.Coords[0], msg.Propose{Cmd: batched, Seq: 0, HasSeq: true})
	deliver(co, 7, msg.Propose{Cmd: req(12)})
	cl.Sim.Run()

	if stamped, _, _ := co.IngressCounts(); stamped != 0 {
		t.Fatalf("late retry of a decided request was stamped again (%d slots)", stamped)
	}
	if got := co.Retained(); got != 0 {
		t.Errorf("member retains %d entries for an instance decided before its share arrived", got)
	}
}

// A restarted group member has lost its volatile round state. Repair must
// rebuild it by probing the acceptors — rejoining the live round exactly
// (never outbidding it) with zero round changes — after which the member
// counts toward coordinator quorums again. The scenario forces the repair
// to matter: with two of three members down, a lone survivor cannot form a
// coordinator quorum, so a pending proposal stays undecided until the
// repaired member's 2a completes the tally.
func TestMulticoordMemberRestartRepairs(t *testing.T) {
	cl := NewCluster(ClusterOpts{NAcceptors: 3, F: 1, Seed: 59, CoordsPerShard: 3, RetryEvery: 4})
	cl.LeadAll()
	live := cl.ShardRound(0)
	for i := 0; i < 4; i++ {
		cl.Prop.ProposeTo(0, mcCmd(uint64(400+i)))
	}
	cl.Sim.Run()

	// Two members die: the survivor's 2as can never reach ⌊3/2⌋+1.
	victim := cl.Cfg.Coords[1]
	cl.Sim.Crash(victim)
	cl.Sim.Crash(cl.Cfg.Coords[2])
	cl.Prop.ProposeTo(0, mcCmd(900))
	cl.Sim.RunUntil(cl.Sim.Now() + 20)
	if _, ok := cl.LearnedCmds[4]; ok {
		t.Fatal("instance decided without a coordinator quorum")
	}

	// Restart member 1 as a fresh process: a brand-new handler with no
	// memory of the round it helped serve.
	cl.Restart(victim)
	fresh := cl.Coords[1]
	cl.Sim.Run()

	if !fresh.Leading() {
		t.Fatal("repaired member never re-established the live round")
	}
	if !fresh.Rnd().Equal(live) {
		t.Fatalf("repaired member serves round %v, want the live round %v", fresh.Rnd(), live)
	}
	if got := cl.ShardRound(0); !got.Equal(live) {
		t.Fatalf("repair moved the shard round %v → %v (probe outbid the live round)", live, got)
	}
	if got := cl.RoundChanges(); got != 0 {
		t.Errorf("repair paid %d round changes, want 0", got)
	}
	// The pending proposal now completes: the proposer's retransmission
	// reaches the repaired member, whose 2a is the quorum's second vote.
	if cmd, ok := cl.LearnedCmds[4]; !ok || cmd.ID != 900 {
		t.Fatalf("pending instance still undecided after repair (got %v, %v)", cmd, ok)
	}
	// And the shard keeps deciding through the re-formed quorum.
	cl.Prop.ProposeTo(0, mcCmd(901))
	cl.Sim.Run()
	found := false
	for _, cmd := range cl.LearnedCmds {
		if cmd.ID == 901 {
			found = true
		}
	}
	if !found {
		t.Fatal("shard stopped deciding after the member rejoined")
	}
}

// A member repaired after a round change re-forwards, from its promises,
// instances that decided in the *earlier* round. Its peers trimmed those
// instances when they were learned and will never second the 2as, so no
// acceptor can accept them in the live round: the acceptors must answer by
// re-announcing the votes they hold, and the learner's duplicate ack is what
// empties the member's window. Without that the member retransmits those
// slots for life and forwards nothing new.
func TestMulticoordRepairAfterRoundChangeDrains(t *testing.T) {
	cl := NewCluster(ClusterOpts{NAcceptors: 3, F: 1, Seed: 67, CoordsPerShard: 3, RetryEvery: 4, MaxInflight: 4})
	cl.Sim.MaxEvents = 200_000
	cl.LeadAll()
	const decided = 12
	for i := 0; i < decided; i++ {
		cl.Prop.ProposeTo(0, mcCmd(uint64(500+i)))
	}
	cl.Sim.Run()
	first := cl.ShardRound(0)
	cl.Coords[0].BecomeLeader()
	cl.Sim.Run()
	live := cl.ShardRound(0)
	if len(cl.LearnedCmds) != decided || !first.Less(live) {
		t.Fatalf("setup: %d/%d decided, round %v → %v, want all decided and a round change", len(cl.LearnedCmds), decided, first, live)
	}

	victim := cl.Cfg.Coords[1]
	cl.Sim.Crash(victim)
	others := cl.RoundChanges() - cl.Coords[1].RoundChanges()
	cl.Restart(victim)
	cl.Sim.Run() // must return: a wedged window retransmits for ever
	fresh := cl.Coords[1]
	if !fresh.Leading() || !fresh.Rnd().Equal(live) || !cl.ShardRound(0).Equal(live) {
		t.Fatalf("repair: leading=%v at %v, shard at %v, want the live round %v rejoined", fresh.Leading(), fresh.Rnd(), cl.ShardRound(0), live)
	}
	if fresh.Inflight() != 0 || fresh.Pending() != 0 {
		t.Fatalf("repaired member's window never drained: inflight=%d pending=%d", fresh.Inflight(), fresh.Pending())
	}
	if got := cl.RoundChanges(); got != others {
		t.Errorf("restart paid %d round changes, want 0", got-others)
	}

	// A fresh proposal decides through the repaired member: with member 2
	// gone, it is the quorum's second vote.
	cl.Sim.Crash(cl.Cfg.Coords[2])
	cl.Prop.ProposeTo(0, mcCmd(600))
	cl.Sim.Run()
	if got, ok := cl.LearnedCmds[decided]; !ok || got.ID != 600 {
		t.Fatalf("instance %d learned %v (ok=%v), want the fresh proposal decided through the repaired member", decided, got, ok)
	}
}

// A repairing coordinator's zero-round probe draws one Stale per acceptor,
// all naming the live round. The simulator delivers them in one step; over
// sockets the stragglers can land after the first promises have already
// re-established that round — and must then be ignored, not outbid (live
// TestLiveC1ConcurrentIngressAndRepair paid a round change one run in ten).
func TestRepairIgnoresLateStaleAtLiveRound(t *testing.T) {
	cl := NewCluster(ClusterOpts{NAcceptors: 3, F: 1, Seed: 61, RetryEvery: 4})
	cl.LeadAll()
	live := cl.ShardRound(0)
	victim := cl.Cfg.Coords[0]
	cl.Sim.Crash(victim)
	cl.Restart(victim)
	fresh := cl.Coords[0]
	cl.Sim.Run()
	if !fresh.Leading() || !fresh.Rnd().Equal(live) {
		t.Fatalf("repair: leading=%v at %v, want the live round %v", fresh.Leading(), fresh.Rnd(), live)
	}

	late := cl.Cfg.Acceptors[2]
	deliver(fresh, late, msg.Stale{Rnd: live})
	cl.Sim.Run()
	if got := cl.ShardRound(0); !got.Equal(live) || !fresh.Rnd().Equal(live) {
		t.Fatalf("a late Stale at the live round moved it %v → %v (coordinator at %v)", live, got, fresh.Rnd())
	}
	if got := cl.RoundChanges(); got != 0 {
		t.Errorf("repair paid %d round changes, want 0", got)
	}
}

// Two shards, each with its own coordinator group: killing one member per
// shard must mask on both shards at once, and the surviving members'
// identical seq→instance assignment must keep the merged order gapless.
func TestMulticoordShardedCrashMasking(t *testing.T) {
	cl := NewCluster(ClusterOpts{NAcceptors: 3, F: 1, Seed: 53, Shards: 2, CoordsPerShard: 3,
		MaxInflight: 2})
	cl.LeadAll()
	base := []ballot.Ballot{cl.ShardRound(0), cl.ShardRound(1)}

	for i := 0; i < 6; i++ {
		cl.Prop.ProposeTo(i%2, mcCmd(uint64(300+i)))
	}
	cl.Sim.RunUntil(cl.Sim.Now() + 2) // mid-stream
	cl.Sim.Crash(cl.Cfg.Coords[0])    // shard 0 primary
	cl.Sim.Crash(cl.Cfg.Coords[1])    // shard 1 primary
	for i := 6; i < 12; i++ {
		cl.Prop.ProposeTo(i%2, mcCmd(uint64(300+i)))
	}
	cl.Sim.Run()

	if got := len(cl.LearnedCmds); got != 12 {
		t.Fatalf("learned %d/12 with one member down per shard", got)
	}
	for shard := 0; shard < 2; shard++ {
		if got := cl.ShardRound(shard); !got.Equal(base[shard]) {
			t.Errorf("shard %d round changed %v → %v despite maskable crashes", shard, base[shard], got)
		}
	}
	if got := cl.RoundChanges(); got != 0 {
		t.Errorf("masked per-shard crashes paid %d round changes", got)
	}
	// The learned instances are exactly 0..11: identical seq→instance
	// placement across surviving members leaves no holes.
	for inst := uint64(0); inst < 12; inst++ {
		if _, ok := cl.LearnedCmds[inst]; !ok {
			t.Errorf("instance %d missing from the merged space", inst)
		}
	}
}
