package deploy

import (
	"math/rand"
	"testing"

	"mcpaxos/internal/classic"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/node"
	"mcpaxos/internal/sim"
	"mcpaxos/internal/smr"
	"mcpaxos/internal/snapshot"
	"mcpaxos/internal/storage"
)

// The frame bill of one instance, counted on the simulator: the deployed
// learner with its acks beside the protocol agents, one shard, c = 3, three
// acceptors, two learners.

const billRetry = 40

// bill counts what one instance puts on the wire, by kind.
type bill struct{ p2a, p2b, again, acks int }

// acks records when each coordinator heard its first learner ack of the
// instance: that ack releases the instance from the member's window, so
// once every member has one, no window holds it.
type acks map[msg.NodeID]sim.Time

// drained is when the last member's window let go of the instance.
func (a acks) drained() sim.Time {
	var at sim.Time
	for _, t := range a {
		at = max(at, t)
	}
	return at
}

// billCluster hosts the deployment on a simulator and establishes the round.
// The returned bill counts every message sent from then on, and acked when
// each coordinator's window drained; hold2b, while set, drops the acceptors'
// 2bs.
func billCluster(t *testing.T) (s *sim.Sim, coords []*classic.Coordinator, learners []*learner, b *bill, acked acks, hold2b *bool) {
	t.Helper()
	spec := LocalSpec(1, 3, 3, 2, 1)
	spec.RetryEvery = billRetry / 4 * tick // coordinators retransmit at 4 × RetryEvery
	concreteAddrs(&spec)
	cfg, err := spec.config()
	if err != nil {
		t.Fatalf("config: %v", err)
	}
	s = sim.New(1)
	for _, id := range cfg.Coords {
		s.Restart(id, func(env node.Env) node.Handler {
			c := newCoordinator(env, cfg, spec)
			coords = append(coords, c)
			return c
		})
	}
	for _, id := range cfg.Acceptors {
		s.Restart(id, func(env node.Env) node.Handler { return classic.NewAcceptor(env, cfg, &storage.Disk{}) })
	}
	for _, id := range cfg.Learners {
		snaps, err := snapshot.OpenStore("")
		if err != nil {
			t.Fatalf("snapshot store: %v", err)
		}
		s.Restart(id, func(env node.Env) node.Handler {
			l := newLearner(env, cfg, spec, snaps)
			learners = append(learners, l)
			return l
		})
	}
	coords[0].BecomeLeader()
	s.Run()

	b, acked, hold2b = new(bill), acks{}, new(bool)
	s.SetLatency(func(_, to msg.NodeID, m msg.Message, _ *rand.Rand) sim.Time {
		switch mm := m.(type) {
		case msg.P2a:
			b.p2a++
		case msg.P2b:
			switch {
			case mm.Val == nil:
				b.acks++
				if _, ok := acked[to]; !ok {
					acked[to] = s.Now() + 1
				}
			case *hold2b:
				return -1
			case mm.Again:
				b.again++
			default:
				b.p2b++
			}
		}
		return 1
	})
	return s, coords, learners, b, acked, hold2b
}

// billSubmit sends client 1's first write to the shard's primary.
func billSubmit(s *sim.Sim) {
	client, primary := msg.NodeID(1), msg.NodeID(LocalSpec(1, 3, 3, 2, 1).Coords[0].ID)
	s.Env(client).Send(primary, msg.Propose{Cmd: smr.SetCmd(classic.CmdID(client, 0), "k", "v")})
}

func wantApplied(t *testing.T, learners []*learner, coords []*classic.Coordinator, acked acks, n int) {
	t.Helper()
	for _, l := range learners {
		if got := l.rep.Applied(); got != n {
			t.Errorf("learner %v applied %d commands, want %d", l.env.ID(), got, n)
		}
	}
	if len(acked) != len(coords) {
		t.Errorf("%d of %d coordinators heard a learner ack; want every window drained", len(acked), len(coords))
	}
}

// Loss-free, every 2a, 2b and ack of an instance leaves exactly once: 3 members
// × 3 acceptors, 3 acceptors × 2 learners, 2 learners × 3 members. (With the
// acceptors re-announcing on the third member's 2a and the learners acking
// every 2b of a learned instance, the same instance cost 12 2bs and 30 acks.)
func TestFrameBillOfOneInstance(t *testing.T) {
	s, coords, learners, b, acked, _ := billCluster(t)
	billSubmit(s)
	s.Run()
	wantApplied(t, learners, coords, acked, 1)
	if want := (bill{p2a: 9, p2b: 6, acks: 6}); *b != want {
		t.Errorf("one instance of one command cost %+v, want %+v", *b, want)
	}
}

// The once-only bill keeps the repair path: with the first wave of 2bs lost,
// one coordinator retransmission — a 2a from a member the vote already counts
// — draws the vote again, marked, and everything drains.
func TestFrameBillLost2bReplacedAfterOneRetransmission(t *testing.T) {
	s, coords, learners, b, acked, hold2b := billCluster(t)
	*hold2b = true
	base := s.Now()
	billSubmit(s)
	s.RunUntil(base + billRetry)
	*hold2b = false
	s.Run()
	if late := acked.drained() - base - billRetry; late > 5 {
		t.Errorf("windows drained %d ticks after the first retransmission, want a round trip", late)
	}
	wantApplied(t, learners, coords, acked, 1)
	if b.p2a != 18 || b.again == 0 || b.p2b != 0 {
		t.Errorf("bill %+v: want 18 2as (one retransmission by each member) answered by marked 2bs only", *b)
	}
}
