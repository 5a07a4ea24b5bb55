package classic

import (
	"math/rand"
	"testing"

	"mcpaxos/internal/ballot"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/quorum"
	"mcpaxos/internal/sim"
)

// newTestLearner builds a bare learner over n acceptors tolerating f
// failures, recording learns.
func newTestLearner(n, f int) (*Learner, *map[uint64]cstruct.Cmd) {
	s := sim.New(1)
	cfg := Config{Quorums: quorum.MustAcceptorSystem(n, f, 0)}
	for i := 0; i < n; i++ {
		cfg.Acceptors = append(cfg.Acceptors, msg.NodeID(200+i))
	}
	cfg.Coords = []msg.NodeID{100}
	cfg.Learners = []msg.NodeID{300}
	learned := make(map[uint64]cstruct.Cmd)
	l := NewLearner(s.Env(300), cfg, func(inst uint64, cmd cstruct.Cmd) {
		learned[inst] = cmd
	})
	return l, &learned
}

func p2b(inst uint64, rnd ballot.Ballot, acc msg.NodeID, cmdID uint64) msg.P2b {
	return msg.P2b{Inst: inst, Rnd: rnd, Acc: acc, Val: wrap(cstruct.Cmd{ID: cmdID, Key: "k"})}
}

// An acceptor moving to a higher round must retract its lower-round vote
// from the tally: two same-round matching votes are then needed again.
func TestLearnerSupersededVoteRetracted(t *testing.T) {
	l, learned := newTestLearner(3, 1) // quorum 2
	r1 := ballot.Ballot{MinCount: 1, ID: 100}
	r2 := ballot.Ballot{MinCount: 2, ID: 100}
	l.OnMessage(200, p2b(0, r1, 200, 7))
	l.OnMessage(200, p2b(0, r2, 200, 8)) // acceptor 200 moves on, retracting (r1, c7)
	l.OnMessage(201, p2b(0, r1, 201, 7))
	if len(*learned) != 0 {
		t.Fatalf("learned %v with only one live (r1, c7) vote", *learned)
	}
	l.OnMessage(202, p2b(0, r1, 202, 7))
	if got, ok := (*learned)[0]; !ok || got.ID != 7 {
		t.Fatalf("quorum of live (r1, c7) votes did not learn: %v", *learned)
	}
}

// A duplicated 2b (same acceptor, same round) must not double-count toward
// the quorum.
func TestLearnerDuplicate2bNotCounted(t *testing.T) {
	l, learned := newTestLearner(3, 1)
	r := ballot.Ballot{MinCount: 1, ID: 100}
	l.OnMessage(200, p2b(0, r, 200, 7))
	l.OnMessage(200, p2b(0, r, 200, 7)) // retransmission
	if len(*learned) != 0 {
		t.Fatalf("learned from one acceptor's duplicate votes: %v", *learned)
	}
	l.OnMessage(201, p2b(0, r, 201, 7))
	if got, ok := (*learned)[0]; !ok || got.ID != 7 {
		t.Fatalf("genuine quorum did not learn: %v", *learned)
	}
}

// Release must GC applied instances, keep LearnedCount monotone, and drop
// late 2b retransmissions below the watermark.
func TestLearnerReleaseBoundsMemory(t *testing.T) {
	l, _ := newTestLearner(3, 1)
	r := ballot.Ballot{MinCount: 1, ID: 100}
	const n = 64
	for inst := uint64(0); inst < n; inst++ {
		l.OnMessage(200, p2b(inst, r, 200, 1000+inst))
		l.OnMessage(201, p2b(inst, r, 201, 1000+inst))
	}
	if l.LearnedCount() != n || l.Retained() != n {
		t.Fatalf("learned=%d retained=%d, want %d/%d", l.LearnedCount(), l.Retained(), n, n)
	}
	l.Release(n)
	if l.Retained() != 0 {
		t.Fatalf("retained %d instances after full release", l.Retained())
	}
	if l.LearnedCount() != n {
		t.Fatalf("LearnedCount dropped to %d on release, must stay %d", l.LearnedCount(), n)
	}
	// A straggler acceptor's late 2b below the watermark is dropped without
	// re-growing state or re-delivering.
	l.OnMessage(202, p2b(3, r, 202, 1003))
	if l.Retained() != 0 || l.LearnedCount() != n {
		t.Fatalf("late 2b below watermark re-grew state: retained=%d count=%d",
			l.Retained(), l.LearnedCount())
	}
}

// referenceCount counts the acceptors whose latest vote matches (rnd, cmd)
// exactly: the recount the learner is checked against.
func referenceCount(byAcc map[msg.NodeID]msg.P2b, rnd ballot.Ballot, cmdID uint64) int {
	n := 0
	for _, v := range byAcc {
		if v.Rnd.Equal(rnd) {
			if c, ok := unwrap(v.Val); ok && c.ID == cmdID {
				n++
			}
		}
	}
	return n
}

// Property: against random 2b streams (random acceptors, rounds, values,
// duplicates and supersessions), the learner learns exactly when the
// reference recount first reaches a quorum, and the same value.
func TestLearnerMatchesRecount(t *testing.T) {
	for trial := 0; trial < 300; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		nAcc := 3 + 2*rng.Intn(2) // 3 or 5
		l, learned := newTestLearner(nAcc, (nAcc-1)/2)
		q := l.cfg.Quorums.ClassicSize()

		// Shadow state for the reference recount.
		byAcc := make(map[msg.NodeID]msg.P2b)
		var refLearned *cstruct.Cmd

		rounds := []ballot.Ballot{
			{MinCount: 1, ID: 100},
			{MinCount: 2, ID: 100},
			{MinCount: 3, ID: 101},
		}
		for step := 0; step < 60 && refLearned == nil; step++ {
			acc := msg.NodeID(200 + rng.Intn(nAcc))
			rnd := rounds[rng.Intn(len(rounds))]
			cmdID := uint64(7 + rng.Intn(2))
			// A coordinator proposes one value per round: derive the value
			// from the round so same-round votes always match, like real
			// classic traffic (rule enforced by the acceptors).
			if rng.Intn(4) > 0 {
				cmdID = 7 + uint64(rnd.MinCount%2)
			}
			m := p2b(0, rnd, acc, cmdID)
			l.OnMessage(acc, m)

			// Reference: keep the acceptor's highest-round vote, recount.
			if prev, ok := byAcc[acc]; !ok || prev.Rnd.Less(m.Rnd) {
				byAcc[acc] = m
			}
			cur := byAcc[acc]
			if c, ok := unwrap(cur.Val); ok && refLearned == nil {
				if referenceCount(byAcc, cur.Rnd, c.ID) >= q {
					cc := c
					refLearned = &cc
				}
			}

			got, gotOK := (*learned)[0]
			switch {
			case refLearned == nil && gotOK:
				t.Fatalf("trial %d step %d: learner learned c%d before reference quorum",
					trial, step, got.ID)
			case refLearned != nil && !gotOK:
				t.Fatalf("trial %d step %d: reference learned c%d, learner did not",
					trial, step, refLearned.ID)
			case refLearned != nil && gotOK && !got.Equal(*refLearned):
				t.Fatalf("trial %d step %d: learned c%d, reference c%d",
					trial, step, got.ID, refLearned.ID)
			}
		}
	}
}
