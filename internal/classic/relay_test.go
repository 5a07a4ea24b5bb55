package classic

import (
	"math/rand"
	"testing"

	"mcpaxos/internal/batch"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
)

// The relay rule on the simulator: a group member that is not the shard's
// stamper passes fresh submissions on to the member that is, and takes the
// stamping over on evidence, after a bounded wait, or on a second receipt.
// Submissions are tagged (Client, Req) and travel through the simulated
// network from client IDs the cluster does not host.

// relayCmd is client's req-th command; its ID carries both (CmdID), so
// members can index the constituents of a batch share.
func relayCmd(client msg.NodeID, req uint64) cstruct.Cmd {
	return cstruct.Cmd{ID: CmdID(client, req), Key: "k", Op: cstruct.OpWrite}
}

// relayCluster is a led group of three whose members batch at ingress.
func relayCluster(retryEvery int64) *Cluster {
	cl := NewCluster(ClusterOpts{NAcceptors: 3, F: 1, Seed: 71, MaxInflight: 8,
		CoordsPerShard: 3, RetryEvery: retryEvery})
	for _, co := range cl.Coords {
		co.IngressBatchMax, co.IngressBatchWait = ingMax, ingWait
	}
	cl.LeadAll()
	return cl
}

// submitTo sends client's req-th submission to member i over the network.
func submitTo(cl *Cluster, i int, client msg.NodeID, req uint64) {
	cl.Sim.Env(client).Send(cl.Cfg.Coords[i],
		msg.Propose{Cmd: relayCmd(client, req), Client: client, Req: req})
}

// warmUp decides one submission through member 0, so every member has seen
// who stamps.
func warmUp(t *testing.T, cl *Cluster) {
	t.Helper()
	submitTo(cl, 0, 7, 0)
	cl.Sim.Run()
	if len(cl.LearnedCmds) != 1 {
		t.Fatalf("warm-up: learned %d instances, want 1", len(cl.LearnedCmds))
	}
}

// decidedTimes counts, per client command ID, how many decided instances
// carry it (batches unpacked).
func decidedTimes(cl *Cluster) map[uint64]int {
	times := make(map[uint64]int)
	for _, cmd := range cl.LearnedCmds {
		inner, ok := batch.Unpack(cmd)
		if !ok {
			inner = []cstruct.Cmd{cmd}
		}
		for _, c := range inner {
			times[c.ID]++
		}
	}
	return times
}

// wantDecidedOnce requires each of client's requests lo..hi decided at exactly
// one instance: none lost, none stamped twice.
func wantDecidedOnce(t *testing.T, cl *Cluster, client msg.NodeID, lo, hi uint64) {
	t.Helper()
	times := decidedTimes(cl)
	for req := lo; req <= hi; req++ {
		if got := times[relayCmd(client, req).ID]; got != 1 {
			t.Errorf("client %v request %d decided %d times, want exactly once", client, req, got)
		}
	}
}

// wantNoCollision requires that no two values ever met in a sequence slot: no
// acceptor promoted a round, no request lost its stamp, no round changed.
func wantNoCollision(t *testing.T, cl *Cluster, what string) {
	t.Helper()
	promotions, restamped := 0, uint64(0)
	for _, a := range cl.Accs {
		promotions += a.Promotions()
	}
	for _, co := range cl.Coords {
		_, re, _ := co.IngressCounts()
		restamped += re
	}
	if promotions != 0 || restamped != 0 || cl.RoundChanges() != 0 {
		t.Errorf("%s cost %d acceptor promotions, %d restamps, %d round changes; want none",
			what, promotions, restamped, cl.RoundChanges())
	}
}

// Two sources pinned to different members — clients that lived through an
// outage prefer the member that answered them, a client dialled since uses
// the primary — submit on every tick, stamps and shares in flight throughout.
// One member stamps and the other relays: no two values ever meet in a slot,
// so the acceptors promote nothing and no request loses its stamp. (If each
// member stamps what it is sent, this schedule costs 63 promotions, 65 round
// changes and — with no client retrying here — half of one source's commands.)
func TestRelaySplitSourcesShareOneStamper(t *testing.T) {
	cl := relayCluster(0)
	warmUp(t, cl)
	const ticks = 40
	base := cl.Sim.Now()
	for i := uint64(1); i <= ticks; i++ {
		cl.Sim.At(base+int64(i), func() {
			submitTo(cl, 0, 7, i)
			submitTo(cl, 1, 8, i)
		})
	}
	cl.Sim.Run()

	wantDecidedOnce(t, cl, 7, 1, ticks)
	wantDecidedOnce(t, cl, 8, 1, ticks)
	wantNoCollision(t, cl, "split sources")
	if got := stampedAt(cl.Coords[1]); got != 0 {
		t.Errorf("member 1 stamped %d slots beside the stamper, want 0: it relays", got)
	}
}

// The stamper crashes; the member the client fails over to relays into the
// void until its host reports the stamper unreachable, and then stamps what
// it relayed — with no second submission from the client and no timer
// (RetryEvery = 0: there are none).
func TestRelayTakeoverOnPeerDown(t *testing.T) {
	cl := relayCluster(0)
	warmUp(t, cl)
	cl.Sim.Crash(cl.Cfg.Coords[0])
	for req := uint64(1); req <= 3; req++ {
		submitTo(cl, 1, 8, req)
	}
	cl.Sim.Run()
	if got := stampedAt(cl.Coords[1]); got != 0 || len(cl.LearnedCmds) != 1 {
		t.Fatalf("before the evidence: member 1 stamped %d slots, %d instances learned; want 0 and the warm-up's 1",
			got, len(cl.LearnedCmds))
	}

	deliver(cl.Coords[1], cl.Cfg.Coords[1], msg.PeerDown{Node: cl.Cfg.Coords[0]})
	cl.Sim.Run()
	wantDecidedOnce(t, cl, 8, 1, 3)
	wantNoCollision(t, cl, "takeover on evidence")
	// Evidence about anybody else moves nothing.
	before := stampedAt(cl.Coords[2])
	deliver(cl.Coords[2], cl.Cfg.Coords[2], msg.PeerDown{Node: cl.Cfg.Acceptors[0]})
	if cl.Coords[2].stamper != cl.Cfg.Coords[1] || stampedAt(cl.Coords[2]) != before {
		t.Errorf("member 2 follows %v after a report about an acceptor, want member 1", cl.Coords[2].stamper)
	}
}

// The stamper dies with no evidence — a partition, a silent host. The relaying
// member's own timer bounds the damage: relayWait after the oldest relay it
// stamps everything it relayed, each command exactly once, and is the stamper
// from then on, so the outage costs that one wait and not one per command.
func TestRelayTakeoverAfterBoundedWait(t *testing.T) {
	const retryEvery = 40
	cl := relayCluster(retryEvery)
	warmUp(t, cl)
	co := cl.Coords[1]
	cl.Sim.Crash(cl.Cfg.Coords[0])
	base := cl.Sim.Now()
	for i := uint64(1); i <= 5; i++ {
		cl.Sim.At(base+int64(i)-1, func() { submitTo(cl, 1, 8, i) })
	}
	// The first relay happens when the first submission arrives, one tick out.
	deadline := base + 1 + co.relayWait()
	cl.Sim.RunUntil(deadline - 1)
	if got := stampedAt(co); got != 0 {
		t.Fatalf("member 1 stamped %d slots before the bounded wait ran out", got)
	}
	cl.Sim.RunUntil(deadline)
	if got := stampedAt(co); got == 0 {
		t.Fatalf("member 1 had not taken over %d ticks after its oldest relay", co.relayWait())
	}
	// From here on it stamps at once: the wait is paid once per outage.
	submitTo(cl, 1, 8, 6)
	cl.Sim.RunUntil(cl.Sim.Now() + 1)
	if co.stamper != cl.Cfg.Coords[1] || len(co.relayed) != 0 {
		t.Fatalf("after the takeover member 1 follows %v with %d relays outstanding, want itself and 0",
			co.stamper, len(co.relayed))
	}
	cl.Sim.Run()
	wantDecidedOnce(t, cl, 8, 1, 6)
	wantNoCollision(t, cl, "takeover after the wait")
}

// Beliefs about who stamps are hints and can be mutually wrong: each member of
// a cycle relays to the next. The relay is unchanged on the wire — no hop
// count — and still ends: the first member it reaches twice has it on record
// and stamps it, after at most c relays.
func TestRelayMutualBeliefsResolve(t *testing.T) {
	for _, cycle := range [][]int{{0, 1}, {0, 1, 2}} {
		cl := relayCluster(0)
		for i, at := range cycle {
			cl.Coords[at].stamper = cl.Cfg.Coords[cycle[(i+1)%len(cycle)]]
		}
		relays := 0
		cl.Sim.SetDrop(func(from, _ msg.NodeID, m msg.Message, _ *rand.Rand) bool {
			if p, ok := m.(msg.Propose); ok && !p.HasSeq && from != p.Client {
				relays++
			}
			return false
		})
		submitTo(cl, 0, 7, 1)
		cl.Sim.Run()
		if relays > len(cycle) {
			t.Errorf("cycle %v: %d relays, want at most %d", cycle, relays, len(cycle))
		}
		wantDecidedOnce(t, cl, 7, 1, 1)
		if got := stampedAt(cl.Coords[0]); got != 1 {
			t.Errorf("cycle %v: member 0 stamped %d slots, want 1 — the relay came back to it", cycle, got)
		}
	}
}

// A restarted member hears of the stamper's writes from the acceptors' promises
// before any stamp share names the stamper (in the live stack the share waits
// on a fresh dial; here the writes happened while it was down). It must not
// conclude that nobody stamps: a member brought up through Repair relays from
// its first submission on. (Stamping what it is sent, it and the live stamper
// trade collisions for as long as both receive submissions.)
func TestRelayRepairedMemberDoesNotStampBesideTheStamper(t *testing.T) {
	cl := relayCluster(0)
	warmUp(t, cl)
	cl.Sim.Crash(cl.Cfg.Coords[0])
	submitTo(cl, 1, 8, 1)
	cl.Sim.Run()
	deliver(cl.Coords[1], cl.Cfg.Coords[1], msg.PeerDown{Node: cl.Cfg.Coords[0]})
	cl.Sim.Run()
	wantDecidedOnce(t, cl, 8, 1, 1)

	cl.Restart(cl.Cfg.Coords[0])
	back := cl.Coords[0]
	back.IngressBatchMax, back.IngressBatchWait = ingMax, ingWait
	cl.Sim.Run()
	if !back.Leading() || back.ingressNext != 0 {
		t.Fatalf("restarted member: leading=%v, ingress counter %d; want the live round rejoined and no stamp share seen",
			back.Leading(), back.ingressNext)
	}

	const ticks = 20
	base := cl.Sim.Now()
	for i := uint64(1); i <= ticks; i++ {
		cl.Sim.At(base+int64(i), func() {
			submitTo(cl, 0, 9, i)
			submitTo(cl, 1, 8, 1+i)
		})
	}
	cl.Sim.Run()
	wantDecidedOnce(t, cl, 9, 1, ticks)
	wantDecidedOnce(t, cl, 8, 2, 1+ticks)
	wantNoCollision(t, cl, "a restarted member beside the live stamper")
	if got := stampedAt(back); got != 0 || back.stamper != cl.Cfg.Coords[1] {
		t.Errorf("restarted member stamped %d slots and follows %v, want 0 and member 1", got, back.stamper)
	}
}

// At c = 1 the round's group is its owner alone: no stamp share is ever sent,
// so nobody is ever followed and nothing is relayed — the same ingress code,
// with nothing to do. A standby stamps what it is sent, as it always has.
func TestRelayNeverAtC1(t *testing.T) {
	cl := NewCluster(ClusterOpts{NCoords: 2, NAcceptors: 3, F: 1, Seed: 73, MaxInflight: 8})
	for _, co := range cl.Coords {
		co.IngressBatchMax, co.IngressBatchWait = ingMax, ingWait
	}
	cl.LeadAll()
	submitTo(cl, 0, 7, 1)
	submitTo(cl, 1, 8, 1)
	cl.Sim.Run()
	for i, co := range cl.Coords {
		if co.stamper != cl.Cfg.Coords[i] || len(co.relayed) != 0 || stampedAt(co) != 1 {
			t.Errorf("coordinator %d: follows %v, %d relayed, %d stamped; want itself, 0, 1",
				i, co.stamper, len(co.relayed), stampedAt(co))
		}
	}
}

// timerEnv is a node.Env that only counts the timers set on it.
type timerEnv struct {
	discardEnv
	timers map[int]int // tag → timers set
}

func (e *timerEnv) SetTimer(_ int64, tag int) { e.timers[tag]++ }

// One retransmission timer serves the whole open window. A timer per launch
// would not: each re-sends the whole window when it fires and then sets
// another, so under a closed loop the timer population only grows.
func TestRetryTimerArmsOnce(t *testing.T) {
	const launches = 16
	cfg := NewCluster(ClusterOpts{NAcceptors: 3, F: 1, Seed: 1, CoordsPerShard: 3}).Cfg

	env := &timerEnv{timers: make(map[int]int)}
	co := NewCoordinator(env, cfg)
	co.RetryEvery = 10
	co.leading = true
	for seq := uint64(0); seq < launches; seq++ {
		co.OnMessage(1, msg.Propose{Cmd: mcCmd(seq + 1), Seq: seq, HasSeq: true})
	}
	if co.Inflight() != launches || env.timers[timerRetry] != 1 {
		t.Fatalf("coordinator: %d in flight, %d retry timers pending after %d launches in one tick; want %d and 1",
			co.Inflight(), env.timers[timerRetry], launches, launches)
	}
	co.OnTimer(timerRetry) // fires with the window open: re-arms, once
	co.OnMessage(1, msg.Propose{Cmd: mcCmd(launches + 1), Seq: launches, HasSeq: true})
	if got := env.timers[timerRetry]; got != 2 {
		t.Fatalf("coordinator: %d retry timers set in all, want 2 (one re-arm per firing)", got)
	}

	env = &timerEnv{timers: make(map[int]int)}
	pr := NewProposer(env, cfg)
	pr.RetryEvery = 10
	for i := uint64(0); i < launches; i++ {
		pr.ProposeTo(0, mcCmd(i+1))
	}
	if got := env.timers[timerRetry]; got != 1 {
		t.Fatalf("proposer: %d retry timers pending after %d submissions in one tick, want 1", got, launches)
	}
	pr.OnTimer(timerRetry)
	pr.ProposeTo(0, mcCmd(launches+1))
	if got := env.timers[timerRetry]; got != 2 {
		t.Fatalf("proposer: %d retry timers set in all, want 2", got)
	}
}
