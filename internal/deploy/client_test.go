package deploy

import (
	"strings"
	"testing"

	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/node"
)

// fakeEnv drives a clientHandler deterministically: sends are recorded,
// time is advanced by hand, timers are noted but fired by the test.
type fakeEnv struct {
	id     msg.NodeID
	now    int64
	sent   []fakeSent
	timers []fakeTimer
}

type fakeSent struct {
	to msg.NodeID
	m  msg.Message
}

type fakeTimer struct {
	at  int64
	tag int
}

func (e *fakeEnv) ID() msg.NodeID { return e.id }
func (e *fakeEnv) Now() int64     { return e.now }
func (e *fakeEnv) Send(to msg.NodeID, m msg.Message) {
	e.sent = append(e.sent, fakeSent{to: to, m: m})
}
func (e *fakeEnv) SetTimer(d int64, tag int) {
	e.timers = append(e.timers, fakeTimer{at: e.now + d, tag: tag})
}

// proposeTargets returns the destinations of the Propose messages sent since
// index from.
func proposeTargets(sent []fakeSent, from int) []msg.NodeID {
	var out []msg.NodeID
	for _, s := range sent[from:] {
		if _, ok := s.m.(msg.Propose); ok {
			out = append(out, s.to)
		}
	}
	return out
}

// concreteAddrs gives every node a concrete address so config() accepts the
// spec; the fake env never dials them.
func concreteAddrs(spec *ClusterSpec) {
	for _, group := range []*[]NodeSpec{&spec.Coords, &spec.Acceptors, &spec.Learners, &spec.Clients} {
		for i := range *group {
			(*group)[i].Addr = "127.0.0.1:1"
		}
	}
}

// multiSpec is a 1-shard spec with a coordinator group of three.
func multiSpec(t *testing.T) (ClusterSpec, *clientHandler, *fakeEnv) {
	t.Helper()
	spec := LocalSpec(1, 3, 3, 1, 1)
	concreteAddrs(&spec)
	cfg, err := spec.config()
	if err != nil {
		t.Fatalf("config: %v", err)
	}
	env := &fakeEnv{id: msg.NodeID(spec.Clients[0].ID)}
	return spec, newClientHandler(env, cfg, spec), env
}

func ids(ns []NodeSpec) []msg.NodeID {
	out := make([]msg.NodeID, len(ns))
	for i, n := range ns {
		out[i] = msg.NodeID(n.ID)
	}
	return out
}

func equalIDs(a, b []msg.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestClientPrimaryFunnel: every initial send of a multicoordinated shard
// targets the group's first member — the shard's primary stamper — and
// carries an unsequenced proposal tagged with the client's identity and
// request counter. Funneling keeps one stamper at a time, so concurrent
// submissions never race over sequence slots.
func TestClientPrimaryFunnel(t *testing.T) {
	spec, h, env := multiSpec(t)
	group := ids(spec.Coords) // 1 shard: the group is the first 3 coords
	var reqs []uint64
	for i := 0; i < 4; i++ {
		mark := len(env.sent)
		h.propose(cstruct.Cmd{Key: "k", Op: cstruct.OpWrite})
		got := proposeTargets(env.sent, mark)
		if !equalIDs(got, []msg.NodeID{group[0]}) {
			t.Fatalf("propose %d targeted %v, want the primary %v alone", i, got, group[0])
		}
		p := env.sent[len(env.sent)-1].m.(msg.Propose)
		if p.HasSeq {
			t.Fatalf("client stamped a sequence number itself: %+v", p)
		}
		if p.Client != h.env.ID() {
			t.Fatalf("proposal tagged client %v, want %v", p.Client, h.env.ID())
		}
		reqs = append(reqs, p.Req)
	}
	for i := 1; i < len(reqs); i++ {
		if reqs[i] == reqs[i-1] {
			t.Fatalf("request counters not distinct: %v", reqs)
		}
	}
	if h.stats.Rotations != 0 {
		t.Fatalf("rotations = %d, want 0 (initial sends never rotate)", h.stats.Rotations)
	}
}

// TestClientRetryRotatesGroup: an unanswered proposal fails over one group
// member at a time with exponential backoff — masking a crashed primary
// without fanning a retry burst into several simultaneous stampers — and
// every retry carries the identical idempotency tag, so whichever member
// receives it maps it to the same stamped slot.
func TestClientRetryRotatesGroup(t *testing.T) {
	spec, h, env := multiSpec(t)
	group := ids(spec.Coords)
	h.propose(cstruct.Cmd{Key: "k", Op: cstruct.OpWrite})
	if got := proposeTargets(env.sent, 0); !equalIDs(got, []msg.NodeID{group[0]}) {
		t.Fatalf("initial send targeted %v, want the primary alone", got)
	}

	// First retry: due after twice the base interval (bursts pay one full
	// round trip before the client assumes loss), failing over to the next
	// member.
	env.now += 2 * h.retryEvery
	mark := len(env.sent)
	h.OnTimer(tagClientRetry)
	if got := proposeTargets(env.sent, mark); !equalIDs(got, []msg.NodeID{group[1]}) {
		t.Fatalf("retry 1 targeted %v, want the next member %v", got, group[1])
	}
	if h.stats.Retries != 1 || h.stats.Rotations != 1 {
		t.Fatalf("retries = %d rotations = %d, want 1 and 1", h.stats.Retries, h.stats.Rotations)
	}

	// Every transmission carries the same (client, request) tag and no
	// sequence number: the ingress idempotency key must be stable across
	// retries or a failover would stamp the command twice.
	var tags [][2]uint64
	for _, s := range env.sent {
		if p, ok := s.m.(msg.Propose); ok {
			if p.HasSeq {
				t.Fatalf("retry carried a client-stamped sequence number: %+v", p)
			}
			tags = append(tags, [2]uint64{uint64(p.Client), p.Req})
		}
	}
	for _, tag := range tags {
		if tag != tags[0] {
			t.Fatalf("retry changed the idempotency tag: %v", tags)
		}
	}

	// Backoff: immediately after the first retry nothing is due.
	mark = len(env.sent)
	h.OnTimer(tagClientRetry)
	if got := proposeTargets(env.sent, mark); len(got) != 0 {
		t.Fatalf("retry fired before the backoff elapsed: %v", got)
	}
	// After the doubled interval it is due again — and from the second
	// attempt on, the retry also probes the learners' replay caches (the
	// command may already be applied with every reply frame lost).
	env.now += 2 * h.retryEvery
	h.OnTimer(tagClientRetry)
	want := append([]msg.NodeID{group[2]}, ids(spec.Learners)...)
	if got := proposeTargets(env.sent, mark); !equalIDs(got, want) {
		t.Fatalf("backed-off retry targeted %v, want %v", got, want)
	}
	if h.stats.ReplayProbes != 1 {
		t.Fatalf("replay probes = %d, want 1", h.stats.ReplayProbes)
	}
}

// TestClientShardRoundRobin: successive submissions spread across the
// shards, each to its own group's primary.
func TestClientShardRoundRobin(t *testing.T) {
	spec := LocalSpec(2, 3, 3, 1, 1)
	concreteAddrs(&spec)
	cfg, err := spec.config()
	if err != nil {
		t.Fatalf("config: %v", err)
	}
	env := &fakeEnv{id: msg.NodeID(spec.Clients[0].ID)}
	h := newClientHandler(env, cfg, spec)
	want := []msg.NodeID{
		cfg.ShardCoords(0)[0], cfg.ShardCoords(1)[0],
		cfg.ShardCoords(0)[0], cfg.ShardCoords(1)[0],
	}
	for i, w := range want {
		mark := len(env.sent)
		h.propose(cstruct.Cmd{Key: "k", Op: cstruct.OpWrite})
		if got := proposeTargets(env.sent, mark); !equalIDs(got, []msg.NodeID{w}) {
			t.Fatalf("propose %d targeted %v, want shard primary %v", i, got, w)
		}
	}
}

// TestClientDuplicateReplySuppression: every learner replica answers; the
// first reply resolves the call, the rest are counted and dropped.
func TestClientDuplicateReplySuppression(t *testing.T) {
	_, h, _ := multiSpec(t)
	call := h.propose(cstruct.Cmd{Key: "k", Op: cstruct.OpWrite})
	h.OnMessage(300, msg.Reply{CmdID: call.ID, From: 300, Result: "first"})
	select {
	case <-call.Done():
	default:
		t.Fatal("call did not resolve on first reply")
	}
	h.OnMessage(301, msg.Reply{CmdID: call.ID, From: 301, Result: "second"})
	res, err := call.Result()
	if err != nil || res != "first" {
		t.Fatalf("call resolved to (%q, %v), want the first reply", res, err)
	}
	if h.stats.DupReplies != 1 || h.stats.Resolved != 1 {
		t.Fatalf("stats = %+v, want 1 resolved, 1 duplicate", h.stats)
	}
	if len(h.pend) != 0 || len(h.calls) != 0 {
		t.Fatalf("client retained state after settlement: pend=%d calls=%d",
			len(h.pend), len(h.calls))
	}
}

// TestClientRequestTimeout: a proposal that never draws a reply fails after
// RequestTimeout with the attempt count in the error and stops retrying —
// sequence-slot liveness moved server-side with the ingress stamp, so an
// unstamped command abandons cleanly and a stamped one is the coordinator
// group's to finish.
func TestClientRequestTimeout(t *testing.T) {
	_, h, env := multiSpec(t)
	call := h.propose(cstruct.Cmd{Key: "k", Op: cstruct.OpWrite})
	env.now += h.timeoutTicks + 1
	h.OnTimer(tagClientRetry)
	select {
	case <-call.Done():
	default:
		t.Fatal("call did not fail at its deadline")
	}
	if _, err := call.Result(); err == nil || !strings.Contains(err.Error(), "no reply") {
		t.Fatalf("timeout error = %v", err)
	}
	if h.stats.Failed != 1 {
		t.Fatalf("failed = %d, want 1", h.stats.Failed)
	}
	if len(h.calls) != 0 || len(h.pend) != 0 {
		t.Fatalf("failed call left state behind: calls=%d pend=%d", len(h.calls), len(h.pend))
	}
	// No zombie retransmissions after the failure.
	before := h.stats.Retries
	env.now += h.retryEvery << 6
	h.OnTimer(tagClientRetry)
	if h.stats.Retries != before {
		t.Fatal("timed-out command kept retransmitting")
	}
}

// TestClientStandbyRotationAtC1: targeting has no mode — at c = 1 the first
// send goes to the shard's primary alone and retries rotate through the
// shard's standbys one at a time, exactly as they rotate through a c = 3
// group (TestClientRetryRotatesGroup).
func TestClientStandbyRotationAtC1(t *testing.T) {
	spec := LocalSpec(2, 1, 3, 1, 1)
	// Two standby coordinators beyond the two primaries.
	spec.Coords = append(spec.Coords, NodeSpec{ID: 110}, NodeSpec{ID: 111})
	concreteAddrs(&spec)
	cfg, err := spec.config()
	if err != nil {
		t.Fatalf("config: %v", err)
	}
	env := &fakeEnv{id: msg.NodeID(spec.Clients[0].ID)}
	h := newClientHandler(env, cfg, spec)
	h.propose(cstruct.Cmd{ID: cmdID(1, 0), Key: "k", Op: cstruct.OpWrite}) // shard 0: first round-robin pick
	coords := cfg.ShardCoords(0)
	if got := proposeTargets(env.sent, 0); !equalIDs(got, coords[:1]) {
		t.Fatalf("first send targeted %v, want the primary %v", got, coords[:1])
	}
	mark := len(env.sent)
	env.now += 2 * h.retryEvery
	h.OnTimer(tagClientRetry)
	if got := proposeTargets(env.sent, mark); !equalIDs(got, coords[1:2]) {
		t.Fatalf("retry targeted %v, want the standby %v", got, coords[1:2])
	}
	if h.stats.Rotations != 1 {
		t.Fatalf("rotations = %d, want 1", h.stats.Rotations)
	}
}

var _ node.Handler = (*clientHandler)(nil)
