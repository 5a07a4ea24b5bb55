package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mcpaxos/internal/ballot"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/quorum"
)

func TestProvedSafeFreshQuorum(t *testing.T) {
	set := cstruct.NewHistorySet(cstruct.AlwaysConflict)
	sys := quorum.MustAcceptorSystem(3, 1, 0)
	reports := []Report{
		{AccIdx: 0, VRnd: ballot.Zero, VVal: set.Bottom()},
		{AccIdx: 1, VRnd: ballot.Zero, VVal: set.Bottom()},
	}
	for _, f := range []func(cstruct.Set, quorum.AcceptorSystem, ballot.Scheme, []Report) ([]cstruct.CStruct, error){ProvedSafe, ProvedSafeSized} {
		got, err := f(set, sys, ballot.MultiScheme{}, reports)
		if err != nil {
			t.Fatalf("fresh quorum errored: %v", err)
		}
		if len(got) != 1 || got[0].Len() != 0 {
			t.Errorf("fresh quorum must prove ⊥ safe, got %v", got)
		}
	}
}

func TestProvedSafeAdoptsConstrainedValue(t *testing.T) {
	// Acceptors 0 and 1 accepted ⟨c1⟩ at round k; a new classic round must
	// adopt an extension of ⟨c1⟩.
	set := cstruct.NewHistorySet(cstruct.AlwaysConflict)
	sys := quorum.MustAcceptorSystem(3, 1, 0)
	k := ballot.Ballot{MinCount: 1, ID: 100}
	h := cstruct.AppendSeq(set.Bottom(), []cstruct.Cmd{{ID: 1}})
	reports := []Report{
		{AccIdx: 0, VRnd: k, VVal: h},
		{AccIdx: 1, VRnd: k, VVal: h},
	}
	got, err := ProvedSafeSized(set, sys, ballot.MultiScheme{}, reports)
	if err != nil {
		t.Fatalf("ProvedSafeSized: %v", err)
	}
	if len(got) != 1 || !got[0].Contains(cstruct.Cmd{ID: 1}) {
		t.Errorf("picked value must contain the possibly chosen command, got %v", got)
	}
}

func TestProvedSafeTakesLubOfQuorumGlbs(t *testing.T) {
	// n=3, F=1: classic quorums have size 2, intersections with Q of size
	// 2 have size 1, so Γ holds each reporter's value and the pick is
	// their lub. Compatible divergent tails must both survive.
	conflict := func(a, b cstruct.Cmd) bool { return a.ID != b.ID && a.ID != 3 && b.ID != 3 }
	set := cstruct.NewHistorySet(conflict)
	sys := quorum.MustAcceptorSystem(3, 1, 0)
	k := ballot.Ballot{MinCount: 1, ID: 100}
	base := cstruct.Cmd{ID: 1}
	reports := []Report{
		{AccIdx: 0, VRnd: k, VVal: cstruct.AppendSeq(set.Bottom(), []cstruct.Cmd{base, {ID: 3}})},
		{AccIdx: 1, VRnd: k, VVal: cstruct.AppendSeq(set.Bottom(), []cstruct.Cmd{base})},
	}
	got, err := ProvedSafeSized(set, sys, ballot.MultiScheme{}, reports)
	if err != nil {
		t.Fatalf("ProvedSafeSized: %v", err)
	}
	if len(got) != 1 || !got[0].Contains(base) || !got[0].Contains(cstruct.Cmd{ID: 3}) {
		t.Errorf("lub of quorum glbs must keep both commands, got %v", got)
	}
}

func TestProvedSafeFastRoundThreshold(t *testing.T) {
	// n=4, E=1: a fast quorum holds 3, so within a quorum Q of 3 reports at a
	// fast round k, v may have been chosen at k iff at least |Q|−E = 2 of them
	// voted v — the Fast Paxos pick rule of Section 2.2, which the
	// Coordinated and uncoordinated recoveries apply to 2bs.
	set := cstruct.SingleValueSet{}
	sys := quorum.MustAcceptorSystem(4, 1, 1)
	scheme := ballot.FastScheme{}
	k := scheme.First(0, 100)
	a, b, c := cstruct.NewSingleValue(cstruct.Cmd{ID: 1}), cstruct.NewSingleValue(cstruct.Cmd{ID: 2}),
		cstruct.NewSingleValue(cstruct.Cmd{ID: 3})
	got, err := ProvedSafeSized(set, sys, scheme, []Report{{0, k, a}, {1, k, a}, {2, k, b}})
	if err != nil || len(got) != 1 || !set.Equal(got[0], a) {
		t.Errorf("a value with |Q|−E votes must be forced, got %v (%v)", got, err)
	}
	got, err = ProvedSafeSized(set, sys, scheme, []Report{{0, k, a}, {1, k, b}, {2, k, c}})
	if err != nil || len(got) != 1 || got[0].Len() != 0 {
		t.Errorf("a three-way split must leave the pick free (⊥), got %v (%v)", got, err)
	}
}

func TestProvedSafeEmptyQuorum(t *testing.T) {
	set := cstruct.SingleValueSet{}
	sys := quorum.MustAcceptorSystem(3, 1, 0)
	if _, err := ProvedSafe(set, sys, ballot.MultiScheme{}, nil); err == nil {
		t.Errorf("empty quorum must error")
	}
	if _, err := ProvedSafeSized(set, sys, ballot.MultiScheme{}, nil); err == nil {
		t.Errorf("empty quorum must error")
	}
}

// TestProvedSafeSizedMatchesGeneric cross-checks the Section 3.3.2
// cardinality procedure against the Definition 1 enumeration on randomized
// report sets drawn from plausible protocol states.
func TestProvedSafeSizedMatchesGeneric(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(3) // 3..5 acceptors
		fMax := (n - 1) / 2
		fTol := 1 + r.Intn(fMax)
		e := 0
		if rem := n - 2*fTol - 1; rem > 0 && r.Intn(2) == 0 {
			e = 1 + r.Intn(rem)
			if 2*e+fTol >= n {
				e = 0
			}
		}
		sys, err := quorum.NewAcceptorSystem(n, fTol, e)
		if err != nil {
			return true // skip infeasible draws
		}
		set := cstruct.NewHistorySet(cstruct.NeverConflict)
		scheme := ballot.MultiScheme{}

		// Build a quorum of reports: some acceptors at round k share a
		// common prefix (as a real round would enforce), others lag.
		k := ballot.Ballot{MinCount: uint32(1 + r.Intn(3)), ID: 100}
		prefix := cstruct.AppendSeq(set.Bottom(), []cstruct.Cmd{{ID: 1}})
		qsize := sys.ClassicSize()
		perm := r.Perm(n)
		reports := make([]Report, 0, qsize)
		for i := 0; i < qsize; i++ {
			idx := perm[i]
			if r.Intn(3) == 0 {
				reports = append(reports, Report{AccIdx: idx, VRnd: ballot.Zero, VVal: set.Bottom()})
				continue
			}
			v := cstruct.CStruct(prefix)
			if r.Intn(2) == 0 {
				v = v.Append(cstruct.Cmd{ID: uint64(10 + idx)})
			}
			reports = append(reports, Report{AccIdx: idx, VRnd: k, VVal: v})
		}
		a, errA := ProvedSafe(set, sys, scheme, reports)
		b, errB := ProvedSafeSized(set, sys, scheme, reports)
		if (errA == nil) != (errB == nil) {
			t.Logf("seed %d: error mismatch %v vs %v", seed, errA, errB)
			return false
		}
		if errA != nil {
			return true
		}
		// Compare as sets of c-structs.
		if len(a) != len(b) {
			t.Logf("seed %d: %d vs %d candidates", seed, len(a), len(b))
			return false
		}
		for _, va := range a {
			found := false
			for _, vb := range b {
				if set.Equal(va, vb) {
					found = true
					break
				}
			}
			if !found {
				t.Logf("seed %d: candidate %v missing from sized result", seed, va)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestProvedSafePickNeverLosesChosen drives a real cluster, then verifies
// that a fresh round's pick extends the previously learned c-struct.
func TestProvedSafePickNeverLosesChosen(t *testing.T) {
	cl := histCluster(cstruct.AlwaysConflict, ClusterOpts{
		NCoords: 3, NAcceptors: 3, F: 1, Seed: 1})
	cl.Start(0)
	cl.Props[0].Propose(cstruct.Cmd{ID: 1})
	cl.Sim.Run()
	learnedBefore := cl.Learners[0].Learned()
	if learnedBefore.Len() != 1 {
		t.Fatalf("setup: nothing learned")
	}
	// A new round starts: its Phase2Start pick must extend the choice.
	cur := cl.Accs[0].Rnd()
	cl.Coords[1].StartRound(NextAbove(cl.Cfg.Scheme, cur, 101))
	cl.Sim.Run()
	for _, co := range cl.Coords {
		if co.Started() && !cl.Cfg.Set.Extends(learnedBefore, co.CVal()) {
			t.Errorf("coordinator %v pick %v lost the chosen value %v",
				co.env.ID(), co.CVal(), learnedBefore)
		}
	}
	if !cl.Cfg.Set.Extends(learnedBefore, cl.Learners[0].Learned()) {
		t.Errorf("learned c-struct regressed")
	}
}
