package deploy

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mcpaxos/internal/classic"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/node"
	"mcpaxos/internal/smr"
	"mcpaxos/internal/transport"
)

// Call is one in-flight proposal: it resolves when a learner replica
// reports the command's apply result, or when the request times out.
type Call struct {
	// ID is the stamped command ID the reply is correlated by.
	ID   uint64
	done chan struct{}

	// set before done closes, immutable after.
	result string
	err    error
	start  time.Time
	end    time.Time
}

// Done is closed once the call has resolved.
func (c *Call) Done() <-chan struct{} { return c.done }

// Result blocks until the call resolves and returns the apply result.
func (c *Call) Result() (string, error) {
	<-c.done
	return c.result, c.err
}

// resolve settles the call with its result or error. It runs once per call.
func (c *Call) resolve(result string, err error) {
	c.result, c.err, c.end = result, err, time.Now()
	close(c.done)
}

// Latency reports submission-to-reply wall time; zero until resolved.
func (c *Call) Latency() time.Duration {
	select {
	case <-c.done:
		return c.end.Sub(c.start)
	default:
		return 0
	}
}

// ClientStats counts the client's retry and correlation activity.
type ClientStats struct {
	// Proposed counts submitted commands; Resolved counts replies matched to
	// a call; Failed counts calls that timed out.
	Proposed, Resolved, Failed uint64
	// Retries counts timer-driven retransmissions only: a proposal that went
	// unanswered for its whole retry interval. Rotations counts commands moved
	// to another member of their shard's coordinator group, whatever moved
	// them — the retry timer, a reply showing that another member answers, or
	// evidence that the targeted member is unreachable. A failover that costs
	// no interval therefore shows as rotations without retries.
	Retries, Rotations uint64
	// DupReplies counts replies dropped because another learner replica
	// answered first — the duplicate-response suppression at work.
	DupReplies uint64
	// ReplayProbes counts retry rounds that also broadcast the proposal to
	// the learners, soliciting cached replies for already-applied commands.
	ReplayProbes uint64
}

// Client is the embeddable client of a deployment: it connects over TCP and
// submits commands *unsequenced*, tagged (client, request counter) — the
// shard's coordinator group assigns the sequence number at ingress, so any
// number of Clients (and any number of goroutines per Client) share one
// deployment without coordinating. Submissions spread round-robin across the
// shards; each proposal targets the shard's preferred member — the primary
// stamper until a failover teaches the client otherwise — and retries rotate
// through the group with exponential backoff, so a crashed or unreachable
// coordinator is masked. The preference follows the member that answers, and
// leaves a member the transport reports unreachable, so an outage costs one
// hop once instead of a retry interval per command. The idempotency tag makes
// retries safe: a re-received request maps to its already-stamped slot
// instead of a fresh one. Each command's Call resolves when the first learner
// replica reports its apply result.
type Client struct {
	id msg.NodeID
	*endpoint
	h *clientHandler
	// mu orders submissions against Close: Propose checks closed and hands
	// its Call to the mailbox under the read lock, so every Call either
	// reaches the mailbox ahead of Close's failAll or is failed at once.
	mu     sync.RWMutex
	closed bool
}

// Dial opens the client endpoint declared as spec client id and connects it
// to the deployment.
func Dial(spec ClusterSpec, id uint32) (*Client, error) {
	cfg, err := spec.config()
	if err != nil {
		return nil, err
	}
	found := false
	for _, n := range spec.Clients {
		if n.ID == id {
			found = true
		}
	}
	if !found {
		return nil, fmt.Errorf("deploy: %d is not a client of the spec", id)
	}
	// A client is built and routed like any node (openEndpoint) and has no
	// start step: it sends nothing until its first Propose.
	c := &Client{id: msg.NodeID(id)}
	c.endpoint, err = openEndpoint(spec, c.id, func(env node.Env) node.Handler {
		c.h = newClientHandler(env, cfg, spec)
		return c.h
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Propose submits one command and returns its in-flight Call. Safe for
// concurrent use: any number of goroutines may propose at once — the ID
// stamp is atomic and submission travels through the client's mailbox. A
// zero cmd.ID is stamped with the client's identity and submission counter —
// required for reply correlation and retry idempotency; callers supplying
// their own IDs must use the same scheme (classic.CmdID) or forgo replies.
func (c *Client) Propose(cmd cstruct.Cmd) *Call {
	if cmd.ID == 0 {
		cmd.ID = classic.CmdID(c.id, c.h.seq.Add(1)-1)
	}
	call := &Call{ID: cmd.ID, done: make(chan struct{}), start: time.Now()}
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		// The mailbox is (or is about to be) gone: resolve the call now
		// instead of handing back one that can never complete.
		call.resolve("", fmt.Errorf("deploy: client closed"))
		return call
	}
	c.agent.Inject(c.id, proposeMsg{Propose: msg.Propose{Cmd: cmd}, call: call})
	return call
}

// Set proposes a KV write and returns its Call.
func (c *Client) Set(key, value string) *Call {
	return c.Propose(smr.SetCmd(0, key, value))
}

// Del proposes a KV delete and returns its Call.
func (c *Client) Del(key string) *Call {
	return c.Propose(smr.DelCmd(0, key))
}

// Get proposes a KV read through consensus and returns its Call: the result
// resolves to "=<value>" or smr.KVMissing, serialized against the writes —
// the linearizable read path the nemesis history checker exercises.
func (c *Client) Get(key string) *Call {
	return c.Propose(smr.GetCmd(0, key))
}

// Wait blocks until every given call resolves or the timeout elapses; it
// returns the first call error, if any.
func (c *Client) Wait(calls []*Call, timeout time.Duration) error {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	var firstErr error
	for _, call := range calls {
		select {
		case <-call.Done():
			if _, err := call.Result(); err != nil && firstErr == nil {
				firstErr = err
			}
		case <-deadline.C:
			return fmt.Errorf("deploy: %v timeout waiting for call %d", timeout, call.ID)
		}
	}
	return firstErr
}

// Stats snapshots the client's retry/correlation counters.
func (c *Client) Stats() ClientStats {
	var s ClientStats
	c.agent.Do(func(node.Handler) { s = c.h.stats })
	return s
}

// NetStats snapshots the client endpoint's wire traffic counters.
func (c *Client) NetStats() transport.TCPStats { return c.tcp.Stats() }

// Close disconnects the client. Unresolved calls fail, and later Propose
// calls return already-failed Calls.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.agent.Do(func(node.Handler) { c.h.failAll(fmt.Errorf("deploy: client closed")) })
	c.stop()
	return nil
}

// Client timer tags.
const tagClientRetry = 1

// proposeMsg carries one submission through the client's mailbox. It wraps
// the real wire message — Type and Instance report the embedded proposal's —
// but never crosses the wire itself: the handler fills in the ingress tag
// and routes it.
type proposeMsg struct {
	msg.Propose
	call *Call
}

// pendingCmd is one unresolved proposal: its call and its retry state. The
// client retries the identical tagged submission; the ingress idempotency key
// (client, req) maps every re-receipt to the already-stamped slot, so
// retrying is safe no matter how many group members see it.
type pendingCmd struct {
	call  *Call
	shard int
	req   uint64
	cmd   cstruct.Cmd
	// member indexes, in coords[shard], the member the last transmission went
	// to.
	member int
	// attempts counts timer-driven retransmissions. Being re-routed by a reply
	// or by evidence is not an attempt: nothing was waited out, so it brings
	// the learner replay probe no closer.
	attempts int
	next     int64 // env time of the next retry
	deadline int64 // env time at which the call fails
}

// clientHandler is the protocol-facing half of the Client. It runs on the
// client agent's mailbox goroutine; the Client's exported methods reach it
// through Agent.Do, so it needs no locking.
type clientHandler struct {
	env  node.Env
	cfg  classic.Config
	spec ClusterSpec

	// seq is the command-ID stamp counter; atomic because Propose stamps on
	// the caller's goroutine — any number of them concurrently.
	seq atomic.Uint64

	pend map[uint64]*pendingCmd // command ID → the unresolved proposal
	rr   uint64                 // shard rotation cursor

	// coords is ShardCoords(shard) per shard: the members a command of the
	// shard may be sent to, the shard's primary first.
	coords [][]msg.NodeID
	// pref is, per shard, the index in coords[shard] of the member new
	// submissions go to: 0 — the primary stamper — on a fresh client, then
	// whichever member a failed-over command's last attempt went to when its
	// reply came, or the next member round the group when the preferred one is
	// reported unreachable. Any member is a correct target (a backup relays to
	// the stamper); the preference only saves the hop, or the timer.
	pref []int
	// moved counts, per shard, the preference moves made on evidence since the
	// shard last answered. Evidence is cheap to produce — with a whole group
	// down every re-route can raise more — so it walks the group once and
	// then stops; the retry timer paces from there, as it does without
	// evidence.
	moved []int

	retryEvery   int64
	timeoutTicks int64
	retryArmed   bool
	stats        ClientStats
}

var _ node.Handler = (*clientHandler)(nil)
var _ node.TimerHandler = (*clientHandler)(nil)

func newClientHandler(env node.Env, cfg classic.Config, spec ClusterSpec) *clientHandler {
	h := &clientHandler{
		env: env, cfg: cfg, spec: spec,
		pend:         make(map[uint64]*pendingCmd),
		pref:         make([]int, cfg.NShards()),
		moved:        make([]int, cfg.NShards()),
		retryEvery:   spec.retryTicks(),
		timeoutTicks: spec.timeoutTicks(),
	}
	for shard := range h.pref {
		h.coords = append(h.coords, cfg.ShardCoords(shard))
	}
	return h
}

// propose stamps, registers and routes one command from the mailbox
// goroutine (test convenience; the Client submits via proposeMsg).
func (h *clientHandler) propose(cmd cstruct.Cmd) *Call {
	if cmd.ID == 0 {
		cmd.ID = classic.CmdID(h.env.ID(), h.seq.Add(1)-1)
	}
	call := &Call{ID: cmd.ID, done: make(chan struct{}), start: time.Now()}
	h.proposeCall(cmd, call)
	return call
}

// proposeCall registers one stamped command and sends its initial tagged,
// unsequenced proposal.
func (h *clientHandler) proposeCall(cmd cstruct.Cmd, call *Call) {
	if classic.IsNoop(cmd) {
		// The fill no-op's key is the protocol's own vocabulary: a user
		// command carrying it would be silently discarded at apply time.
		call.resolve("", fmt.Errorf("deploy: key %q is reserved for fill no-ops", cmd.Key))
		return
	}
	if _, dup := h.pend[cmd.ID]; dup {
		// A duplicate ID cannot be correlated independently: fail the new
		// call rather than strand it (stamped IDs never collide; only
		// caller-supplied IDs can).
		call.resolve("", fmt.Errorf("deploy: duplicate command ID %d in flight", cmd.ID))
		return
	}
	h.stats.Proposed++
	shard := int(h.rr % uint64(h.cfg.NShards()))
	h.rr++
	// The request counter is the sub-client part of the command ID: for
	// stamped IDs that is exactly the submission counter, unique per client,
	// making (client, req) a sound ingress idempotency key.
	_, req := classic.SplitCmdID(cmd.ID)
	p := &pendingCmd{
		call:  call,
		shard: shard,
		req:   req,
		cmd:   cmd,
		// Every submission is funnelled to one member per shard: one stamper
		// at a time keeps concurrent submissions from colliding over sequence
		// slots, and stamping is cheap enough not to need the Section 4.1
		// load-balance lever.
		member:   h.pref[shard],
		deadline: h.env.Now() + h.timeoutTicks,
	}
	h.pend[cmd.ID] = p
	h.send(p)
	h.armRetry()
}

// send transmits p's tagged, unsequenced proposal to the member it targets
// and restarts its retry clock. The first two waits are twice the base
// interval — under a burst the end-to-end reply time legitimately exceeds
// one, and a premature retransmission only adds to the load it is waiting
// out — and the wait doubles from the second retry on.
func (h *clientHandler) send(p *pendingCmd) {
	p.next = h.env.Now() + h.retryEvery<<uint(min(max(p.attempts, 1), 5))
	h.env.Send(h.coords[p.shard][p.member], msg.Propose{Cmd: p.cmd, Client: h.env.ID(), Req: p.req})
}

// moveTo transmits p to member i of its shard's group: the one place a
// command changes member, so the one place a rotation is counted.
func (h *clientHandler) moveTo(p *pendingCmd, i int) {
	if i != p.member {
		p.member = i
		h.stats.Rotations++
	}
	h.send(p)
}

// prefer makes member i the shard's preference and re-sends, at once and
// once, every pending command of the shard that is waiting on another member:
// what was learned from one command's failover — or from the transport — is
// not paid for again by each of the others' timers.
func (h *clientHandler) prefer(shard, i int) {
	h.pref[shard] = i
	// Deterministic order (map iteration is not), and submission order: a
	// member that takes the stamping over stamps in the order it receives.
	for _, id := range slices.Sorted(maps.Keys(h.pend)) {
		if p := h.pend[id]; p.shard == shard && p.member != i {
			h.moveTo(p, i)
		}
	}
}

// OnMessage implements node.Handler: submissions are routed, replies resolve
// calls, evidence of an unreachable member moves the preference off it;
// everything else is ignored.
func (h *clientHandler) OnMessage(_ msg.NodeID, m msg.Message) {
	switch mm := m.(type) {
	case proposeMsg:
		h.proposeCall(mm.Cmd, mm.call)
	case msg.Reply:
		h.onReply(mm)
	case msg.PeerDown:
		for shard, i := range h.pref {
			if n := len(h.coords[shard]); h.coords[shard][i] == mm.Node && h.moved[shard] < n-1 {
				h.moved[shard]++
				h.prefer(shard, (i+1)%n)
			}
		}
	}
}

// onReply resolves the call a reply answers. Replies come from the learners,
// so which member got the command decided is inferred: the one its last
// transmission went to. If that is not the shard's preference the command had
// to fail over to be answered, and the preference follows it.
func (h *clientHandler) onReply(mm msg.Reply) {
	p, ok := h.pend[mm.CmdID]
	if !ok {
		h.stats.DupReplies++
		return
	}
	delete(h.pend, mm.CmdID)
	h.stats.Resolved++
	p.call.resolve(mm.Result, nil)
	h.moved[p.shard] = 0
	if p.member != h.pref[p.shard] {
		h.prefer(p.shard, p.member)
	}
}

// OnTimer implements node.TimerHandler: due proposals are retransmitted with
// exponential backoff; proposals past their deadline fail their calls and
// stop — sequence-slot liveness is the ingress stamper's problem now, so an
// abandoned command leaves no hole for the learners to stall on.
func (h *clientHandler) OnTimer(tag int) {
	if tag != tagClientRetry {
		return
	}
	h.retryArmed = false
	now := h.env.Now()
	// Deterministic retry order (map iteration is not).
	for _, id := range slices.Sorted(maps.Keys(h.pend)) {
		p := h.pend[id]
		if now >= p.deadline {
			h.failCmd(id, fmt.Errorf("deploy: no reply for command %d after %d attempts", id, p.attempts+1))
			continue
		}
		if now < p.next {
			continue
		}
		// Retries rotate through the shard's coordinators one at a time, so a
		// dead member is failed over without fanning a retry burst into
		// several simultaneous stampers.
		p.attempts++
		h.stats.Retries++
		h.moveTo(p, (p.member+1)%len(h.coords[p.shard]))
		if p.attempts >= 2 {
			// The command may already be applied with every reply frame
			// lost — the ingress dedups it and the consensus path never
			// replies again. Probe the learners' replay caches too.
			node.Broadcast(h.env, h.cfg.Learners,
				msg.Propose{Cmd: p.cmd, Client: h.env.ID(), Req: p.req})
			h.stats.ReplayProbes++
		}
	}
	h.armRetry()
}

// failCmd resolves one command's call with err and stops retrying it.
func (h *clientHandler) failCmd(id uint64, err error) {
	p, ok := h.pend[id]
	if !ok {
		return
	}
	delete(h.pend, id)
	h.stats.Failed++
	p.call.resolve("", err)
}

// failAll fails every in-flight call (client shutdown).
func (h *clientHandler) failAll(err error) {
	for id := range h.pend {
		h.failCmd(id, err)
	}
}

func (h *clientHandler) armRetry() {
	if h.retryArmed || len(h.pend) == 0 {
		return
	}
	h.retryArmed = true
	h.env.SetTimer(h.retryEvery, tagClientRetry)
}
