package classic

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"mcpaxos/internal/ballot"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/storage"
)

// A round is established by the promises of a classic quorum of distinct
// acceptors. An acceptor re-sends its promise for every 1a of a round it has
// already joined, and at c = 3 each member's 1a brings that promise to the
// whole group, so a member routinely holds copies of one acceptor's promise:
// they count once.
func TestCoordinatorCountsPromisesOfDistinctAcceptors(t *testing.T) {
	cfg := NewCluster(ClusterOpts{NAcceptors: 3, F: 1, Seed: 1, CoordsPerShard: 3}).Cfg // quorum 2
	co := NewCoordinator(discardEnv{}, cfg)
	co.BecomeLeader()
	promise := func(acc msg.NodeID) msg.P1bMulti { return msg.P1bMulti{Rnd: co.Rnd(), Acc: acc} }
	deliver(co, cfg.Acceptors[0], promise(cfg.Acceptors[0]), promise(cfg.Acceptors[0]))
	if co.Leading() {
		t.Fatal("two copies of one acceptor's promise established the round")
	}
	deliver(co, cfg.Acceptors[1], promise(cfg.Acceptors[1]))
	if !co.Leading() {
		t.Fatal("the promises of two distinct acceptors did not establish the round")
	}
}

// refVote and refTally are the reference acceptor's state for one instance:
// a cast vote with the members counted for it, and a partial 2a tally that
// keeps the value each group member forwarded.
type refVote struct {
	vrnd ballot.Ballot
	vval cstruct.Cmd
	by   []msg.NodeID
}

type refTally struct {
	rnd  ballot.Ballot
	vals map[msg.NodeID]cstruct.Cmd
}

// refAcceptor is the acceptor's 2a path over one shard with a per-member
// value map per tally: the reference Acceptor's tally is checked against. It
// sends at once; the Acceptor holds its sends until OnIdle.
type refAcceptor struct {
	cfg        Config
	id         msg.NodeID
	rnd        ballot.Ballot
	votes      map[uint64]refVote
	tallies    map[uint64]*refTally
	promotions int
	out        []string
}

func (r *refAcceptor) onP2a(from msg.NodeID, mm msg.P2a) {
	if mm.Rnd.Less(r.rnd) {
		r.out = append(r.out, describe(from, msg.Stale{Inst: mm.Inst, Acc: r.id, Rnd: r.rnd, Got: mm.Rnd}))
		return
	}
	cmd, _ := unwrap(mm.Val)
	if !r.cfg.InRoundGroup(0, mm.Rnd, mm.Coord) {
		return
	}
	v, voted := r.votes[mm.Inst]
	if voted && !v.vrnd.Less(mm.Rnd) {
		// A member's first 2a after the quorum is noted; a second one is a
		// retransmission, answered by re-announcing the vote.
		if v.vrnd.Equal(mm.Rnd) && v.vval.Equal(cmd) {
			if !slices.Contains(v.by, mm.Coord) {
				v.by = append(v.by, mm.Coord)
				r.votes[mm.Inst] = v
			} else {
				r.announce(mm.Inst, v, true)
			}
		}
		return
	}
	t := r.tallies[mm.Inst]
	if t == nil || t.rnd.Less(mm.Rnd) {
		t = &refTally{rnd: mm.Rnd, vals: make(map[msg.NodeID]cstruct.Cmd)}
		r.tallies[mm.Inst] = t
	} else if mm.Rnd.Less(t.rnd) {
		return
	}
	if prev, seen := t.vals[mm.Coord]; !seen || !prev.Equal(cmd) {
		for _, other := range t.vals {
			if !other.Equal(cmd) {
				r.promote(ballot.SingleScheme{}.Next(t.rnd, t.rnd.ID))
				return
			}
		}
		t.vals[mm.Coord] = cmd
		r.rnd = ballot.Max(r.rnd, mm.Rnd)
		if len(t.vals) >= r.cfg.CoordQuorumSize() {
			cast := refVote{vrnd: mm.Rnd, vval: cmd, by: slices.Collect(maps.Keys(t.vals))}
			r.votes[mm.Inst] = cast
			delete(r.tallies, mm.Inst)
			r.announce(mm.Inst, cast, voted)
			return
		}
	}
	if voted {
		r.announce(mm.Inst, v, true)
	}
}

func (r *refAcceptor) announce(inst uint64, v refVote, again bool) {
	for _, l := range r.cfg.Learners {
		r.out = append(r.out, describe(l, msg.P2b{Inst: inst, Rnd: v.vrnd, Acc: r.id, Val: wrap(v.vval), Again: again}))
	}
}

func (r *refAcceptor) promote(j ballot.Ballot) {
	if !r.rnd.Less(j) {
		return
	}
	r.promotions++
	r.rnd = j
	var votes []msg.InstVote
	for inst, v := range r.votes {
		votes = append(votes, msg.InstVote{Inst: inst, VRnd: v.vrnd, VVal: wrap(v.vval)})
	}
	for _, co := range r.cfg.RoundGroup(0, j) {
		r.out = append(r.out, describe(co, msg.P1bMulti{Rnd: j, Acc: r.id, Votes: votes}))
	}
}

// describe renders a sent message for comparison, with a promise's votes in
// instance order (the Acceptor reports them in map order).
func describe(to msg.NodeID, m msg.Message) string {
	id := func(v cstruct.CStruct) uint64 { c, _ := unwrap(v); return c.ID }
	switch mm := m.(type) {
	case msg.P2b:
		return fmt.Sprintf("2b to %v: inst %d rnd %v acc %v c%d again %v", to, mm.Inst, mm.Rnd, mm.Acc, id(mm.Val), mm.Again)
	case msg.P1bMulti:
		votes := slices.Clone(mm.Votes)
		slices.SortFunc(votes, func(a, b msg.InstVote) int { return int(a.Inst) - int(b.Inst) })
		s := fmt.Sprintf("1b to %v: rnd %v acc %v shard %d votes", to, mm.Rnd, mm.Acc, mm.Shard)
		for _, v := range votes {
			s += fmt.Sprintf(" %d@%v=c%d", v.Inst, v.VRnd, id(v.VVal))
		}
		return s
	case msg.Stale:
		return fmt.Sprintf("stale to %v: inst %d acc %v rnd %v got %v", to, mm.Inst, mm.Acc, mm.Rnd, mm.Got)
	}
	return fmt.Sprintf("%T to %v", m, to)
}

// describingEnv is an acceptor's env that renders every send with describe.
type describingEnv struct {
	discardEnv
	out []string
}

func (e *describingEnv) ID() msg.NodeID { return 200 }

func (e *describingEnv) Send(to msg.NodeID, m msg.Message) { e.out = append(e.out, describe(to, m)) }

// driveTally feeds one Acceptor (one shard, c = 3) the 2a stream data
// encodes and, after every burst, checks what the burst sent, Vote, Tally
// and Promotions against refAcceptor fed the same stream. data[0] picks 2 or
// 3 rounds, each the successor of the last, so a collision's promotion lands
// on a round the stream still uses. Every further byte is one 2a: bits 0–1
// pick the value (c8 on 3, else c7), bit 2 ends the burst, and the rest pick
// the instance (of 3), the round and the sender — a group member or one
// non-member. Repeated bytes are duplicates and retransmissions.
func driveTally(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	cfg := NewCluster(ClusterOpts{NAcceptors: 3, F: 1, Seed: 1, CoordsPerShard: 3}).Cfg
	env := &describingEnv{}
	a := NewAcceptor(env, cfg, &storage.Disk{})
	ref := &refAcceptor{cfg: cfg, id: env.ID(), votes: make(map[uint64]refVote), tallies: make(map[uint64]*refTally)}
	rounds := []ballot.Ballot{{MinCount: 1, ID: uint32(cfg.Coords[0])}}
	for len(rounds) < 2+int(data[0]%2) {
		last := rounds[len(rounds)-1]
		rounds = append(rounds, ballot.SingleScheme{}.Next(last, last.ID))
	}
	senders := append(slices.Clone(cfg.Coords), 999)

	check := func(step int) {
		a.OnIdle()
		if !slices.Equal(env.out, ref.out) {
			t.Fatalf("byte %d of %x: the burst sent\n  %q\nwant\n  %q", step, data, env.out, ref.out)
		}
		env.out, ref.out = nil, nil
		for inst := uint64(0); inst < 3; inst++ {
			gr, gv, gok := a.Vote(inst)
			w, wok := ref.votes[inst]
			if gok != wok || !gr.Equal(w.vrnd) || !gv.Equal(w.vval) {
				t.Fatalf("byte %d of %x: instance %d vote (%v, c%d, %v), want (%v, c%d, %v)",
					step, data, inst, gr, gv.ID, gok, w.vrnd, w.vval.ID, wok)
			}
			tr, tby, tok := a.Tally(inst)
			var wr ballot.Ballot
			var wby []msg.NodeID
			wt := ref.tallies[inst]
			if wt != nil {
				wr, wby = wt.rnd, slices.Sorted(maps.Keys(wt.vals))
			}
			if tok != (wt != nil) || !tr.Equal(wr) || !slices.Equal(tby, wby) {
				t.Fatalf("byte %d of %x: instance %d tally (%v, %v, %v), want (%v, %v, %v)",
					step, data, inst, tr, tby, tok, wr, wby, wt != nil)
			}
		}
		if a.Promotions() != ref.promotions {
			t.Fatalf("byte %d of %x: %d promotions, want %d", step, data, a.Promotions(), ref.promotions)
		}
	}
	for i, b := range data[1:] {
		k := int(b >> 3)
		m := msg.P2a{
			Inst:  uint64(k % 3),
			Rnd:   rounds[k/3%len(rounds)],
			Coord: senders[k/3/len(rounds)%len(senders)],
			Val:   wrap(cstruct.Cmd{ID: 7 + uint64(b&3)/3, Key: "k"}),
		}
		a.OnMessage(m.Coord, m)
		ref.onP2a(m.Coord, m)
		if b&4 != 0 {
			check(i + 1)
		}
	}
	check(len(data))
}

// Property: over random 2a streams the Acceptor's tally — the vote it casts
// at the coordinator quorum — sends, accepts, promotes and reports exactly
// what the per-member reference does.
func TestAcceptorTallyMatchesReference(t *testing.T) {
	for trial := 0; trial < 500; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		data := make([]byte, 1+rng.Intn(64))
		rng.Read(data)
		driveTally(t, data)
	}
}

// FuzzAcceptorTally is TestAcceptorTallyMatchesReference over fuzzed 2a
// streams.
func FuzzAcceptorTally(f *testing.F) {
	for trial := int64(0); trial < 8; trial++ {
		rng := rand.New(rand.NewSource(trial))
		data := make([]byte, 1+rng.Intn(32))
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(driveTally)
}
