package classic

import (
	"cmp"
	"slices"
	"strconv"

	"mcpaxos/internal/ballot"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/node"
	"mcpaxos/internal/storage"
)

// vote is an acceptor's (round, value) pair for one instance: a vote cast,
// or an instance's 2a tally in one round — the one value a round can hold
// before the Section 4.2 collision — which is cast as it stands once a
// coordinator quorum of the round's group has forwarded it.
type vote struct {
	vrnd ballot.Ballot
	vval cstruct.Cmd
	// by lists the group members whose 2a for (vrnd, vval) has been counted,
	// sized for the group on first use: what completes a tally, and what
	// tells a member's first 2a from its retransmission once the vote is
	// cast. Volatile: a vote reloaded from disk has no list and treats every
	// matching 2a as a retransmission.
	by []msg.NodeID
}

// Acceptor is a multi-instance acceptor. Its stable state is the paper's
// (Section 4.4): the accepted votes, written before anything reporting them
// leaves — one synchronous write per delivery burst, however many values the
// burst accepted (commit.go) — and the MCount of the rounds it joins
// (storage.Incarnation). The rounds themselves are volatile, and so are the
// partial 2a tallies: a collided round costs no write, and a restarted
// acceptor rebuilds a tally from the coordinators' ordinary 2a retransmission.
//
// Sharded deployments (cfg.Shards > 1) run one coordinator group per
// instance residue class, so the acceptor keeps one current round per shard:
// a phase 1 on shard k claims only instances ≡ k (mod shards) and cannot
// stale-out the other shards' rounds. Every shard's accepts go to the one
// log, so a restart rebuilds every shard from a single replay.
//
// Every round is served by a coordinator group (Config.RoundGroup): the
// acceptor tallies 2a messages per (instance, round) by group member and
// accepts once ⌊c/2⌋+1 members forwarded the same value (Section 4.1 per
// shard) — on the first 2a at c = 1. Conflicting values within one round
// promote the shard to the successor round, with the promise sent to the
// whole group (the Section 4.2 coordinated recovery).
//
// The stable store may be the simulated in-memory Disk or the on-disk WAL
// (internal/wal). Building an Acceptor over a store that already holds its
// records — what a process restart does — is the recovery: the votes are
// reloaded and every shard starts above any round the previous life can have
// joined. No host has to ask for it.
type Acceptor struct {
	env  node.Env
	cfg  Config
	disk storage.Stable
	inc  storage.Incarnation

	rnds    []ballot.Ballot // volatile: highest round heard of, per shard
	votes   map[uint64]vote
	tallies map[uint64]vote
	// maxInst is the recovery-scan bound (storage.KeyMaxInst): the highest
	// instance voted in, on disk or staged.
	maxInst uint64

	// staged holds the records of the votes cast in the current burst, and
	// held every message sent in it: OnIdle writes the one, then releases the
	// other.
	staged map[string]any
	held   []outbound

	// floor is the compaction floor (storage.KeyFloor): vote records below
	// it were durably truncated because the cluster watermark passed them.
	// Catch-up requests below it are refused (the learner must escalate to
	// snapshot transfer) and recovery scans start here.
	floor uint64
	// dropped counts records dropped since the last physical compaction;
	// once it crosses compactAfterDrops the backend is asked to reclaim
	// space (for a WAL: rewrite the live index and GC dead segments).
	dropped int

	// promotions counts collision-triggered round jumps, for experiments.
	promotions int
}

// compactAfterDrops bounds how much tombstoned garbage may accumulate before
// the stable store is physically compacted. Small enough that sustained
// workloads plateau instead of growing; large enough that compaction cost
// amortizes over many truncations.
const compactAfterDrops = 256

// catchupMax bounds the instances one CatchupReq may have re-announced, and is
// what a request with Max = 0 gets. Max comes off the wire: unbounded, one
// request could hold the acceptor's mailbox for billions of lookups.
const catchupMax = 128

var _ node.Handler = (*Acceptor)(nil)
var _ node.IdleHandler = (*Acceptor)(nil)

// NewAcceptor builds an acceptor bound to env, in the state disk dictates:
// the votes come back from the persisted compaction floor up — below it
// everything was truncated — and every shard's round starts where
// storage.LoadIncarnation says: at Zero on a first start, above any round the
// previous life can have joined otherwise (one disk write, Section 4.4).
func NewAcceptor(env node.Env, cfg Config, disk storage.Stable) *Acceptor {
	a := &Acceptor{
		env: env, cfg: cfg, disk: disk,
		votes:   make(map[uint64]vote),
		tallies: make(map[uint64]vote),
		staged:  make(map[string]any),
		rnds:    make([]ballot.Ballot, cfg.NShards()),
	}
	if rec, ok := disk.Get(storage.KeyFloor); ok {
		a.floor = rec.(uint64)
	}
	voted := ballot.Zero
	if hi, ok := disk.Get(storage.KeyMaxInst); ok {
		a.maxInst = hi.(uint64)
		for inst := a.floor; inst <= a.maxInst; inst++ {
			rec, ok := disk.Get(voteKey(inst))
			if !ok {
				continue
			}
			if vr := rec.(storage.VoteRec); len(vr.Cmds) > 0 {
				a.votes[inst] = vote{vrnd: vr.VRnd, vval: vr.Cmds[0]}
				voted = ballot.Max(voted, vr.VRnd)
			}
		}
	}
	var start ballot.Ballot
	a.inc, start = storage.LoadIncarnation(disk, voted)
	for i := range a.rnds {
		a.rnds[i] = start
	}
	return a
}

// ShardRnd exposes the acceptor's current round for one shard, for tests.
func (a *Acceptor) ShardRnd(shard int) ballot.Ballot { return a.rnds[shard] }

// Vote exposes the acceptor's vote for an instance, for tests.
func (a *Acceptor) Vote(inst uint64) (ballot.Ballot, cstruct.Cmd, bool) {
	v, ok := a.votes[inst]
	return v.vrnd, v.vval, ok
}

// Promotions reports how many collision-triggered round changes this
// acceptor initiated (Section 4.2).
func (a *Acceptor) Promotions() int { return a.promotions }

// OnMessage implements node.Handler.
func (a *Acceptor) OnMessage(from msg.NodeID, m msg.Message) {
	switch mm := m.(type) {
	case msg.P1a:
		a.onP1a(from, mm)
	case msg.P2a:
		a.onP2a(from, mm)
	case msg.CatchupReq:
		a.onCatchup(mm)
	case msg.Done:
		a.onDone(mm)
	}
}

// onDone applies the cluster compaction watermark a learner gossiped:
// everything below Watermark is covered by a snapshot some live learner can
// serve, so the vote history of those instances — kept only so the durable-
// tier fallback could replay them — is dead weight. The records are
// dropped durably (tombstones survive a crash; replay must not resurrect
// them), the floor is persisted so recovery scans start past the hole, and
// the backend is asked to physically reclaim space once enough has died.
// The watermark only ratchets forward: a stale or reordered Done is a no-op.
func (a *Acceptor) onDone(mm msg.Done) {
	wm := mm.Watermark
	if wm <= a.floor {
		return
	}
	// The burst's votes reach the disk before the drop: staged behind it, a
	// vote below the new floor would land where no scan or drop looks again.
	a.OnIdle()
	var keys []string
	for inst := a.floor; inst < wm; inst++ {
		if _, ok := a.votes[inst]; ok {
			delete(a.votes, inst)
			keys = append(keys, voteKey(inst))
		}
		delete(a.tallies, inst)
	}
	a.floor = wm
	if len(keys) > 0 {
		a.disk.Drop(keys)
	}
	a.disk.Put(storage.KeyFloor, wm)
	a.dropped += len(keys)
	// A failed compaction loses nothing (the log is merely longer than it
	// need be), so the only reaction is to try again at the next watermark.
	if a.dropped >= compactAfterDrops && a.disk.Compact() == nil {
		a.dropped = 0
	}
}

// onCatchup re-announces the acceptor's current votes for a range of
// instances to one rejoining learner — the catch-up path of last resort,
// for when no peer learner retains the decided prefix (every learner
// restarted while the others were down, so the prefix survives only here,
// on the durable tier). The learner counts the re-announced 2bs through
// its ordinary quorum rule, so the fallback adds no new trust: one
// acceptor's vote proves nothing until a quorum matches.
func (a *Acceptor) onCatchup(mm msg.CatchupReq) {
	if mm.From < a.floor {
		// The requested prefix was compacted away: the votes below the floor
		// no longer exist, here or anywhere. Refuse with the floor so the
		// learner escalates to snapshot transfer instead of waiting for
		// re-announcements that can never come.
		a.send(mm.Learner, msg.CatchupResp{
			Learner: a.env.ID(), From: mm.From, Frontier: a.floor, Floor: a.floor,
		})
		return
	}
	max := uint64(mm.Max)
	if max == 0 || max > catchupMax {
		max = catchupMax
	}
	for inst := mm.From; inst < mm.From+max; inst++ {
		if v, ok := a.votes[inst]; ok {
			a.send(mm.Learner, msg.P2b{Inst: inst, Rnd: v.vrnd, Acc: a.env.ID(), Val: wrap(v.vval)})
		}
	}
}

// onP1a is action Phase1b scoped to the claimed shard: join round mm.Rnd for
// that shard if it is news, reporting every past vote of the shard's
// instances so the round's coordinators can finish interrupted ones. The
// promise goes to the round's whole group — every member completes phase 1
// independently — and a 1a for the round already joined (a competing
// member's 1a, or a retransmission after a lost promise wave) re-sends the
// promise instead of a Stale.
func (a *Acceptor) onP1a(_ msg.NodeID, mm msg.P1a) {
	shard := int(mm.Shard)
	if shard >= a.cfg.NShards() {
		return // misconfigured sender; no shard of ours to promise
	}
	if mm.Rnd.Less(a.rnds[shard]) {
		a.send(mm.Coord, msg.Stale{Acc: a.env.ID(), Rnd: a.rnds[shard], Got: mm.Rnd})
		return
	}
	a.setRnd(shard, mm.Rnd)
	a.send1b(shard, mm.Rnd)
}

// send1b reports the shard's past votes, in instance order, in a promise for
// round r to the round's coordinator group. The order makes a promise a
// function of the acceptor's state, not of map iteration.
func (a *Acceptor) send1b(shard int, r ballot.Ballot) {
	votes := make([]msg.InstVote, 0, len(a.votes))
	for inst, v := range a.votes {
		if a.cfg.ShardOf(inst) != shard {
			continue
		}
		votes = append(votes, msg.InstVote{Inst: inst, VRnd: v.vrnd, VVal: wrap(v.vval)})
	}
	slices.SortFunc(votes, func(x, y msg.InstVote) int { return cmp.Compare(x.Inst, y.Inst) })
	m := msg.P1bMulti{Rnd: r, Acc: a.env.ID(), Votes: votes, Shard: uint32(shard)}
	for _, co := range a.cfg.RoundGroup(shard, r) {
		a.send(co, m)
	}
}

// onP2a is action Phase2b (Section 4.1 per shard): unless a higher round was
// heard of on the instance's shard, tally the member's 2a for (instance,
// round) and accept once a coordinator quorum forwarded the same value.
// Conflicting values within the round are the Section 4.2 collision: promote
// the shard to the successor round so the group re-establishes it
// (coordinated recovery).
//
// An instance below the compaction floor was decided and its votes are gone,
// so no phase 1 can find the value chosen there any more: a vote cast now
// could choose a second one. The 2a is refused with the floor, which is what
// a coordinator that fell behind it needs to catch up (Coordinator.onFloor).
func (a *Acceptor) onP2a(from msg.NodeID, mm msg.P2a) {
	if mm.Inst < a.floor {
		a.send(from, msg.Done{From: a.env.ID(), Frontier: a.floor, Watermark: a.floor})
		return
	}
	shard := a.cfg.ShardOf(mm.Inst)
	if mm.Rnd.Less(a.rnds[shard]) {
		a.send(from, msg.Stale{Inst: mm.Inst, Acc: a.env.ID(), Rnd: a.rnds[shard], Got: mm.Rnd})
		return
	}
	cmd, ok := unwrap(mm.Val)
	if !ok {
		return
	}
	if !a.cfg.InRoundGroup(shard, mm.Rnd, mm.Coord) {
		return // a non-member 2a never counts toward a coordinator quorum
	}
	v, voted := a.votes[mm.Inst]
	if voted && !v.vrnd.Less(mm.Rnd) {
		// Already voted at this round (or a higher one): the 2a adds nothing
		// to tally. A group member's first one — the quorum formed without it
		// — is noted silently; a second one is a retransmission, so the
		// member is still waiting: re-announce the vote so lost 2b messages
		// (or lost learner acks) are eventually replaced.
		if v.vrnd.Equal(mm.Rnd) && v.vval.Equal(cmd) {
			if v.by != nil && !slices.Contains(v.by, mm.Coord) {
				v.by = append(v.by, mm.Coord)
				a.votes[mm.Inst] = v
			} else {
				a.announce(mm.Inst, v, true)
			}
		}
		return
	}
	t, open := a.tallies[mm.Inst]
	if !open || t.vrnd.Less(mm.Rnd) {
		t = vote{vrnd: mm.Rnd, vval: cmd, by: make([]msg.NodeID, 0, a.cfg.NCoordsPerShard())}
	} else if mm.Rnd.Less(t.vrnd) {
		return // stale 2a for a round this instance already left
	}
	if !t.vval.Equal(cmd) {
		// Two group members — or one member twice — forwarded different values
		// for the same (shard, round, instance): collision, Section 4.2.
		a.promote(shard, ballot.SingleScheme{}.Next(t.vrnd, t.vrnd.ID))
		return
	}
	// A pure retransmission of a 2a already tallied changes nothing.
	if !slices.Contains(t.by, mm.Coord) {
		t.by = append(t.by, mm.Coord)
		a.setRnd(shard, mm.Rnd)
		if len(t.by) >= a.cfg.CoordQuorumSize() {
			a.accept(mm.Inst, t, voted)
			return
		}
		a.tallies[mm.Inst] = t
	}
	// Tallied, not acceptable yet: re-send the vote an earlier round left
	// here, if any (Section 4.3, processes keep re-sending their last message;
	// announcing a vote already cast is always safe). A repaired member
	// re-forwards instances that decided before it restarted; its peers have
	// forgotten them and never second those 2as, so this 2b, through the
	// learners' OnDuplicate ack, is all that drains them from its window.
	if voted {
		a.announce(mm.Inst, v, true)
	}
}

// promote acts as if a 1a for round j had been received on the shard
// (Section 4.2's collision escape): join j and broadcast the promise to the
// shard's coordinator group, which re-establishes the round and re-forwards
// the interrupted instances.
func (a *Acceptor) promote(shard int, j ballot.Ballot) {
	if !a.rnds[shard].Less(j) {
		return
	}
	a.promotions++
	a.setRnd(shard, j)
	a.send1b(shard, j)
}

// setRnd advances the volatile round of one shard. Following Section 4.4 the
// round is not persisted, only its MCount, and that only when it is news —
// before anything that names r leaves.
func (a *Acceptor) setRnd(shard int, r ballot.Ballot) {
	if a.rnds[shard].Less(r) {
		a.inc.Observe(r)
		a.rnds[shard] = r
	}
}

// voteKey names inst's vote record on disk: "vote/<decimal inst>", the key
// existing WAL directories replay by.
func voteKey(inst uint64) string {
	var b [len("vote/") + 20]byte
	return string(strconv.AppendUint(append(b[:0], "vote/"...), inst, 10))
}
