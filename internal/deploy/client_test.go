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
	if len(h.pend) != 0 {
		t.Fatalf("client retained %d pending commands after settlement", len(h.pend))
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
	if len(h.pend) != 0 {
		t.Fatalf("failed call left %d pending commands behind", len(h.pend))
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
	h.propose(cstruct.Cmd{Key: "k", Op: cstruct.OpWrite}) // shard 0: first round-robin pick
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

// write proposes one KV write from the mailbox goroutine.
func write(h *clientHandler) *Call {
	return h.propose(cstruct.Cmd{Key: "k", Op: cstruct.OpWrite})
}

// TestClientPreferenceFollowsAnsweringMember: when a command that had to fail
// over is answered, the member its last attempt went to becomes the shard's
// preference — new submissions start there — and the shard's other pending
// commands are re-sent to it at once, once, with their retry clocks restarted
// and their attempt counts untouched, instead of each waiting out its own
// timer against the member that does not answer.
func TestClientPreferenceFollowsAnsweringMember(t *testing.T) {
	spec, h, env := multiSpec(t)
	group := ids(spec.Coords)
	a := write(h)
	env.now += h.retryEvery
	b, c := write(h), write(h)
	env.now += h.retryEvery // a is due, b and c are not
	h.OnTimer(tagClientRetry)
	if h.stats.Retries != 1 || h.stats.Rotations != 1 || h.pend[a.ID].member != 1 {
		t.Fatalf("after a's retry: %+v, a at member %d; want 1 retry, 1 rotation, member 1", h.stats, h.pend[a.ID].member)
	}

	mark := len(env.sent)
	h.OnMessage(300, msg.Reply{CmdID: a.ID, From: 300})
	if got := proposeTargets(env.sent, mark); !equalIDs(got, []msg.NodeID{group[1], group[1]}) {
		t.Fatalf("a's reply re-sent to %v, want b and c to the answering member %v", got, group[1])
	}
	for _, call := range []*Call{b, c} {
		p := h.pend[call.ID]
		if p.attempts != 0 || p.next != env.now+2*h.retryEvery {
			t.Fatalf("re-routed command: attempts %d, next retry at %d; want 0 and a restarted clock (%d)",
				p.attempts, p.next, env.now+2*h.retryEvery)
		}
	}
	if h.stats.Retries != 1 || h.stats.Rotations != 3 || h.stats.ReplayProbes != 0 {
		t.Fatalf("stats %+v: a re-route is a rotation, not a retry, and probes no learner; want 1 retry, 3 rotations", h.stats)
	}

	// Exactly once: the next reply finds nothing waiting on another member,
	// and the timer finds nothing due.
	mark = len(env.sent)
	h.OnMessage(300, msg.Reply{CmdID: b.ID, From: 300})
	h.OnTimer(tagClientRetry)
	if got := proposeTargets(env.sent, mark); len(got) != 0 {
		t.Fatalf("c was sent again (%v) although it already waits on the preferred member", got)
	}
	write(h)
	if got := proposeTargets(env.sent, mark); !equalIDs(got, []msg.NodeID{group[1]}) {
		t.Fatalf("new submission targeted %v, want the preferred member %v", got, group[1])
	}
}

// TestClientPeerDownAdvancesPreference: evidence that the preferred member is
// unreachable moves the preference to the next member and takes the shard's
// pending commands along, in submission order, with no timer involved.
// Evidence about any other node changes nothing.
func TestClientPeerDownAdvancesPreference(t *testing.T) {
	spec, h, env := multiSpec(t)
	group := ids(spec.Coords)
	a, b := write(h), write(h)

	mark := len(env.sent)
	h.OnMessage(h.env.ID(), msg.PeerDown{Node: group[0]})
	if got := proposeTargets(env.sent, mark); !equalIDs(got, []msg.NodeID{group[1], group[1]}) {
		t.Fatalf("evidence re-sent to %v, want both pending commands to %v", got, group[1])
	}
	if first := env.sent[mark].m.(msg.Propose); first.Cmd.ID != a.ID {
		t.Fatalf("re-sent command %d first, want submission order (a = %d, b = %d)", first.Cmd.ID, a.ID, b.ID)
	}
	if h.stats.Retries != 0 || h.stats.Rotations != 2 {
		t.Fatalf("stats %+v, want 0 retries and 2 rotations", h.stats)
	}

	mark = len(env.sent)
	h.OnMessage(h.env.ID(), msg.PeerDown{Node: group[2]})              // not the preference
	h.OnMessage(h.env.ID(), msg.PeerDown{Node: group[0]})              // not any more
	h.OnMessage(h.env.ID(), msg.PeerDown{Node: ids(spec.Learners)[0]}) // not a coordinator
	if len(env.sent) != mark || h.pref[0] != 1 {
		t.Fatalf("evidence about other nodes sent %d frames and left the preference at member %d; want 0 and 1",
			len(env.sent)-mark, h.pref[0])
	}
	write(h)
	if got := proposeTargets(env.sent, mark); !equalIDs(got, []msg.NodeID{group[1]}) {
		t.Fatalf("new submission targeted %v, want %v", got, group[1])
	}
}

// TestClientEvidenceCannotSpin: with every member of the group unreachable
// each re-route can raise fresh evidence against the next member. Evidence
// walks the group once between two replies — at most one frame per pending
// command per event — and then stops: the retry timer paces from there, as it
// does without evidence. A reply renews the allowance.
func TestClientEvidenceCannotSpin(t *testing.T) {
	spec, h, env := multiSpec(t)
	group := ids(spec.Coords)
	const pending = 4
	var calls []*Call
	for i := 0; i < pending; i++ {
		calls = append(calls, write(h))
	}
	moves := 0
	for round := 0; round < 10; round++ {
		for _, member := range group {
			mark := len(env.sent)
			h.OnMessage(h.env.ID(), msg.PeerDown{Node: member})
			switch sent := len(env.sent) - mark; sent {
			case 0:
			case pending:
				moves++
			default:
				t.Fatalf("one event sent %d frames, want 0 or one per pending command (%d)", sent, pending)
			}
		}
	}
	if moves != len(group)-1 {
		t.Fatalf("30 events moved the preference %d times, want %d: once round the group", moves, len(group)-1)
	}
	if h.stats.Retries != 0 {
		t.Fatalf("evidence counted %d timer retries", h.stats.Retries)
	}
	// The timer still rotates, exactly as it does without evidence.
	env.now += 2 * h.retryEvery
	mark := len(env.sent)
	h.OnTimer(tagClientRetry)
	if got := proposeTargets(env.sent, mark); len(got) != pending || h.stats.Retries != pending {
		t.Fatalf("timer retried %v (%d counted), want all %d pending commands", got, h.stats.Retries, pending)
	}

	h.OnMessage(300, msg.Reply{CmdID: calls[0].ID, From: 300})
	mark = len(env.sent)
	h.OnMessage(h.env.ID(), msg.PeerDown{Node: group[h.pref[0]]})
	if sent := len(env.sent) - mark; sent != pending-1 {
		t.Fatalf("evidence after a reply sent %d frames, want %d: the allowance is per reply", sent, pending-1)
	}
}

var _ node.Handler = (*clientHandler)(nil)
