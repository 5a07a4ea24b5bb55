package classic

import (
	"slices"
	"testing"

	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
)

// The skip hint (msg.Fill with Idle set) on the simulator: two shards, the
// hint always addressed to shard 1, whose instances are 1, 3, 5, 7, …

// skipCluster builds two shards served by groups of c — plus one standby each
// at c = 1 — whose members batch at ingress. It returns shard 1's
// members, primary first.
func skipCluster(c int, lead bool) (*Cluster, []*Coordinator) {
	o := ClusterOpts{NAcceptors: 3, F: 1, Seed: 5, MaxInflight: 8, Shards: 2, CoordsPerShard: c}
	if c == 1 {
		o.NCoords = 4
	}
	cl := NewCluster(o)
	var shard1 []*Coordinator
	for _, co := range cl.Coords {
		co.IngressBatchMax, co.IngressBatchWait = ingMax, ingWait
		if co.shard == 1 {
			shard1 = append(shard1, co)
		}
	}
	if lead {
		cl.LeadAll()
	}
	return cl, shard1
}

func hint(co *Coordinator, inst uint64) {
	deliver(co, 300, msg.Fill{Inst: inst, Idle: true})
}

func filledAt(co *Coordinator) uint64 {
	_, _, f := co.IngressCounts()
	return f
}

// The stamper, with nothing buffered, stamps the no-op into every unclaimed
// slot through the named instance and shares the stamps like any other; a
// second learner's hint, or one naming a slot already claimed, finds nothing
// to do.
func TestSkipHintStampsNoopsThroughNamedSlot(t *testing.T) {
	eachC(t, func(t *testing.T, c int) {
		cl, shard1 := skipCluster(c, true)
		co := shard1[0]
		hint(co, 7)
		if s, f := stampedAt(co), filledAt(co); s != 4 || f != 4 {
			t.Fatalf("hint naming instance 7: stamped %d slots, %d of them fills; want 4 and 4 (instances 1, 3, 5, 7)", s, f)
		}
		cl.Sim.Run()
		for _, inst := range []uint64{1, 3, 5, 7} {
			if got, ok := cl.LearnedCmds[inst]; !ok || !got.Equal(Noop(inst)) {
				t.Errorf("instance %d: learned %v/%v, want the canonical no-op", inst, got, ok)
			}
		}
		for _, peer := range shard1[1:] {
			if c > 1 && (peer.ingressNext != 4 || peer.stamper != cl.Cfg.Coords[1]) {
				t.Errorf("peer %v: ingress counter %d following %v; want 4 and the stamper — a skip is shared like any stamp",
					peer.env.ID(), peer.ingressNext, peer.stamper)
			}
		}
		hint(co, 7)
		hint(co, 3)
		if s, f := stampedAt(co), filledAt(co); s != 4 || f != 4 {
			t.Fatalf("a repeated hint and one below the ingress counter left %d stamped, %d filled; want 4 and 4", s, f)
		}
		wantNoCollision(t, cl, "skipping")
	})
}

// Only the shard's stamper answers: not a member that follows another or —
// while nobody has stamped — is not the round's first, not a c = 1 standby,
// not a primary that has not established its round.
func TestSkipHintOnlyTheStamperAnswers(t *testing.T) {
	eachC(t, func(t *testing.T, c int) {
		cl, shard1 := skipCluster(c, true)
		for _, co := range shard1[1:] {
			hint(co, 7)
			if s := stampedAt(co); s != 0 {
				t.Errorf("member %v (leading=%v) stamped %d slots on a hint, want 0", co.env.ID(), co.Leading(), s)
			}
		}
		if c > 1 {
			shard1[0].stamper = cl.Cfg.Coords[3] // the primary follows a peer
			hint(shard1[0], 7)
			if s := stampedAt(shard1[0]); s != 0 {
				t.Errorf("a member following %v stamped %d slots on a hint, want 0", shard1[0].stamper, s)
			}
		}
		_, unled := skipCluster(c, false)
		hint(unled[0], 7)
		if s := stampedAt(unled[0]); s != 0 {
			t.Errorf("a primary that does not lead stamped %d slots on a hint, want 0", s)
		}
	})
}

// Commands buffered at the stamper go first, one a slot: the hint stamps each
// into the next free slot and skips only what is still unclaimed after them.
func TestSkipHintFlushesBufferedCommandsFirst(t *testing.T) {
	eachC(t, func(t *testing.T, c int) {
		cl, shard1 := skipCluster(c, true)
		co := shard1[0]
		holdInFlight(cl)
		submit(co, 0) // instance 1, stuck in flight
		// Two submissions and the hint arrive in one burst: the hint finds
		// them buffered.
		co.OnMessage(7, ingressSub(1))
		co.OnMessage(7, ingressSub(2))
		hint(co, 7)
		if s, f := stampedAt(co), filledAt(co); s != 4 || f != 1 {
			t.Fatalf("stamped %d slots, %d of them fills; want 4 and 1 (instances 3 and 5 take the buffered pair)", s, f)
		}
		for i, inst := range []uint64{3, 5} {
			if got, want := co.proposals[inst], ingressSub(1+i).Cmd; !got.Equal(want) {
				t.Errorf("instance %d holds %v, want buffered command %v alone", inst, got, want)
			}
		}
		if got := co.proposals[7]; !got.Equal(Noop(7)) {
			t.Errorf("instance 7 holds %v, want the no-op", got)
		}
	})
}

// The learned high-water mark on a recording env: the learners' acks carry it
// (msg.P2b.Hi), and the shard's stamper claims its free slots below it at the
// end of the burst.

// sentMsg is one send a recEnv recorded.
type sentMsg struct {
	to msg.NodeID
	m  msg.Message
}

// recEnv is a node.Env that records every send with its destination.
type recEnv struct {
	id   msg.NodeID
	sent []sentMsg
}

func (e *recEnv) ID() msg.NodeID                    { return e.id }
func (e *recEnv) Now() int64                        { return 0 }
func (e *recEnv) Send(to msg.NodeID, m msg.Message) { e.sent = append(e.sent, sentMsg{to, m}) }
func (e *recEnv) SetTimer(int64, int)               {}

// claimer builds the first member of the last shard's group in a deployment
// of the given shards at c = 3 — an 8-instance window, batching at ingress —
// on a recording env, and establishes its round unless lead is false.
func claimer(t *testing.T, shards int, lead bool) (*Coordinator, *recEnv, Config) {
	t.Helper()
	cfg := NewCluster(ClusterOpts{NAcceptors: 3, F: 1, Seed: 1, Shards: shards, CoordsPerShard: 3}).Cfg
	shard := shards - 1
	env := &recEnv{id: cfg.ShardCoords(shard)[0]}
	co := NewCoordinator(env, cfg)
	co.MaxInflight = 8
	co.IngressBatchMax, co.IngressBatchWait = ingMax, ingWait
	if lead {
		co.BecomeLeader()
		for _, a := range cfg.Acceptors {
			co.OnMessage(a, msg.P1bMulti{Rnd: co.Rnd(), Acc: a, Shard: uint32(shard)})
		}
		if !co.Leading() {
			t.Fatal("the claimer did not establish its round")
		}
	}
	env.sent = nil
	return co, env, cfg
}

// ackHi is learner 300's ack of inst carrying the high-water mark hi.
func ackHi(co *Coordinator, inst, hi uint64) {
	deliver(co, 300, msg.P2b{Inst: inst, Hi: hi})
}

// wantClaims checks that co holds want[i] at each instance of insts, each
// stamp shared with its two group peers and forwarded to every acceptor, and
// that nothing else was stamped since the env's sends were last cleared.
func wantClaims(t *testing.T, co *Coordinator, env *recEnv, cfg Config, insts []uint64, want []cstruct.Cmd) {
	t.Helper()
	shares, twoAs := map[uint64]int{}, map[uint64]int{}
	for _, s := range env.sent {
		switch m := s.m.(type) {
		case msg.Propose:
			if !m.HasSeq || !slices.Contains(cfg.ShardCoords(co.shard), s.to) || s.to == env.id {
				t.Errorf("stamp share %+v sent to %v, want a sequenced share to a group peer", m, s.to)
			}
			shares[co.seqInst(m.Seq)]++
		case msg.P2a:
			twoAs[m.Inst]++
		}
	}
	for i, inst := range insts {
		if got := co.proposals[inst]; !got.Equal(want[i]) {
			t.Errorf("instance %d holds %v, want %v", inst, got, want[i])
		}
		if shares[inst] != 2 || twoAs[inst] != len(cfg.Acceptors) {
			t.Errorf("instance %d: %d shares and %d 2as, want 2 and %d", inst, shares[inst], twoAs[inst], len(cfg.Acceptors))
		}
		delete(shares, inst)
		delete(twoAs, inst)
	}
	if len(shares)+len(twoAs) != 0 {
		t.Errorf("stamps shared %v and forwarded %v beyond instances %v", shares, twoAs, insts)
	}
	env.sent = nil
}

// An ack whose mark runs past the stamper's free slot makes it stamp what it
// buffered, one command a slot, then the no-op through mark−1 — every slot an
// ordinary, shared stamp. A repeated mark finds nothing left, and a skip hint
// (msg.Fill with Idle set) raises the mark to one past its instance.
func TestAckHighWaterMarkClaimsFreeSlots(t *testing.T) {
	co, env, cfg := claimer(t, 2, true)
	submit(co, 0) // nothing in flight: stamped at once, instance 1
	wantClaims(t, co, env, cfg, []uint64{1}, []cstruct.Cmd{ingressSub(0).Cmd})
	// Two submissions and the ack of instance 1 arrive in one burst, the ack
	// saying shard 0 has learned up to instance 11.
	co.OnMessage(7, ingressSub(1))
	co.OnMessage(7, ingressSub(2))
	ackHi(co, 1, 12)
	wantClaims(t, co, env, cfg, []uint64{3, 5, 7, 9, 11},
		[]cstruct.Cmd{ingressSub(1).Cmd, ingressSub(2).Cmd, Noop(7), Noop(9), Noop(11)})
	if s, f := stampedAt(co), filledAt(co); s != 6 || f != 3 || co.ing.Pending() != 0 || len(co.bufd) != 0 {
		t.Fatalf("stamped %d slots, %d fills, %d still buffered (%d tracked); want 6, 3, 0, 0",
			s, f, co.ing.Pending(), len(co.bufd))
	}
	ackHi(co, 3, 12)
	wantClaims(t, co, env, cfg, nil, nil)
	deliver(co, 300, msg.Fill{Inst: 15, Idle: true})
	wantClaims(t, co, env, cfg, []uint64{13, 15}, []cstruct.Cmd{Noop(13), Noop(15)})
}

// Only a leading stamper with room in its window claims: not a member that
// follows a peer, not one that has not established its round, not one whose
// window is full — until a learn frees a slot — and not a one-shard stamper,
// whose free slot the learned mark never passes.
func TestAckHighWaterMarkOnlyTheStamperWithRoomClaims(t *testing.T) {
	follower, env, cfg := claimer(t, 2, true)
	follower.stamper = cfg.ShardCoords(1)[1]
	ackHi(follower, 1, 12)
	wantClaims(t, follower, env, cfg, nil, nil)

	unled, env, cfg := claimer(t, 2, false)
	ackHi(unled, 1, 12)
	wantClaims(t, unled, env, cfg, nil, nil)

	full, env, cfg := claimer(t, 2, true)
	submit(full, 0) // instance 1 in flight
	full.MaxInflight = 1
	env.sent = nil
	deliver(full, 300, msg.Fill{Inst: 11, Idle: true})
	wantClaims(t, full, env, cfg, nil, nil)
	ackHi(full, 1, 12) // the learn frees the slot: one claim fills it
	wantClaims(t, full, env, cfg, []uint64{3}, []cstruct.Cmd{Noop(3)})

	one, _, _ := claimer(t, 1, true)
	for i := range 3 {
		submit(one, i)
		ackHi(one, uint64(i), uint64(i)+1)
	}
	if s, f := stampedAt(one), filledAt(one); s != 3 || f != 0 || one.ingressNext != 3 {
		t.Errorf("one shard: stamped %d slots, %d fills, next slot %d; want the 3 submissions, no fill, 3",
			s, f, one.ingressNext)
	}
}
