package abstract

import (
	"testing"

	"mcpaxos/internal/cstruct"
)

func conflictingConfig() Config {
	return Config{
		NAcc: 3, F: 1, E: 0,
		Fast:      []bool{false, false, false}, // ballots 0 (initial), 1, 2 classic
		Cmds:      []cstruct.Cmd{{ID: 1}, {ID: 2}},
		Set:       cstruct.NewHistorySet(cstruct.AlwaysConflict),
		NLearners: 2,
	}
}

func commutingConfig() Config {
	return Config{
		NAcc: 3, F: 1, E: 0,
		Fast:      []bool{false, false, false},
		Cmds:      []cstruct.Cmd{{ID: 1, Key: "a"}, {ID: 2, Key: "b"}},
		Set:       cstruct.NewHistorySet(cstruct.KeyConflict),
		NLearners: 2,
	}
}

func fastConfig() Config {
	return Config{
		NAcc: 3, F: 1, E: 0,
		Fast:      []bool{false, true, false}, // middle working ballot fast
		Cmds:      []cstruct.Cmd{{ID: 1}, {ID: 2}},
		Set:       cstruct.NewHistorySet(cstruct.AlwaysConflict),
		NLearners: 2,
	}
}

func TestConfigValidate(t *testing.T) {
	if err := conflictingConfig().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := conflictingConfig()
	bad.Cmds = nil
	if err := bad.Validate(); err == nil {
		t.Errorf("empty command universe must be rejected")
	}
	bad = conflictingConfig()
	bad.F = 2 // 2F ≥ n
	if err := bad.Validate(); err == nil {
		t.Errorf("infeasible quorums must be rejected")
	}
}

func TestInitSatisfiesInvariants(t *testing.T) {
	for _, cfg := range []Config{conflictingConfig(), commutingConfig(), fastConfig()} {
		if err := cfg.CheckInvariants(cfg.Init()); err != nil {
			t.Errorf("initial state violates invariants: %v", err)
		}
	}
}

func TestAllCStructsEnumeration(t *testing.T) {
	cfg := conflictingConfig()
	// AlwaysConflict over 2 commands: ⊥, ⟨1⟩, ⟨2⟩, ⟨1,2⟩, ⟨2,1⟩ = 5.
	if got := len(cfg.AllCStructs()); got != 5 {
		t.Errorf("conflicting universe size = %d, want 5", got)
	}
	cfg2 := commutingConfig()
	// Commuting: ⟨1,2⟩ ≡ ⟨2,1⟩ → 4 distinct histories.
	if got := len(cfg2.AllCStructs()); got != 4 {
		t.Errorf("commuting universe size = %d, want 4", got)
	}
}

func TestExploreClassicConflicting(t *testing.T) {
	cfg := conflictingConfig()
	res, err := cfg.Explore(8, 60_000)
	if err != nil {
		t.Fatalf("invariant violation: %v", err)
	}
	if res.States < 1000 {
		t.Errorf("exploration too shallow: %d states", res.States)
	}
	t.Logf("explored %d states, %d transitions, depth %d (truncated=%v)",
		res.States, res.Transitions, res.Depth, res.Truncated)
}

func TestExploreClassicCommuting(t *testing.T) {
	cfg := commutingConfig()
	res, err := cfg.Explore(8, 60_000)
	if err != nil {
		t.Fatalf("invariant violation: %v", err)
	}
	t.Logf("explored %d states, %d transitions, depth %d", res.States, res.Transitions, res.Depth)
}

func TestExploreFastBallot(t *testing.T) {
	cfg := fastConfig()
	res, err := cfg.Explore(8, 60_000)
	if err != nil {
		t.Fatalf("invariant violation: %v", err)
	}
	t.Logf("explored %d states, %d transitions, depth %d", res.States, res.Transitions, res.Depth)
}

func TestRandomWalksDeep(t *testing.T) {
	for _, cfg := range []Config{conflictingConfig(), commutingConfig(), fastConfig()} {
		if err := cfg.RandomWalk(1, 30, 40); err != nil {
			t.Fatalf("deep random walk violated invariants: %v", err)
		}
	}
}

// TestCheckerDetectsViolations guards against a vacuous checker: corrupted
// states must be rejected.
func TestCheckerDetectsViolations(t *testing.T) {
	cfg := conflictingConfig()
	all := cfg.AllCStructs()
	h1 := all[1] // some non-⊥ c-struct

	// Unproposed maxTried.
	s := cfg.Init()
	s.MaxTried[1] = h1
	if err := cfg.CheckInvariants(s); err == nil {
		t.Errorf("unproposed maxTried must be flagged")
	}

	// Classic vote above maxTried.
	s = cfg.Init()
	s.PropCmd[0] = true
	s.PropCmd[1] = true
	s.MaxTried[1] = cfg.Set.Bottom()
	s.Votes[0][1] = h1
	if err := cfg.CheckInvariants(s); err == nil {
		t.Errorf("classic vote exceeding maxTried must be flagged")
	}

	// Learned value never chosen.
	s = cfg.Init()
	s.PropCmd[0] = true
	s.PropCmd[1] = true
	s.Learned[0] = h1
	if err := cfg.CheckInvariants(s); err == nil {
		t.Errorf("unchosen learned value must be flagged")
	}

	// Incompatible learned values (consistency violation).
	s = cfg.Init()
	s.PropCmd[0] = true
	s.PropCmd[1] = true
	set := cfg.Set.(cstruct.HistorySet)
	ab := cstruct.AppendSeq(set.Bottom(), []cstruct.Cmd{cfg.Cmds[0], cfg.Cmds[1]})
	ba := cstruct.AppendSeq(set.Bottom(), []cstruct.Cmd{cfg.Cmds[1], cfg.Cmds[0]})
	// Make both "chosen" by planting votes at ballot 1 and 2.
	s.MaxTried[1], s.MaxTried[2] = ab, ba
	for a := 0; a < 3; a++ {
		s.Votes[a][1] = ab
		s.Votes[a][2] = ba
		s.MBal[a] = 2
	}
	s.Learned[0], s.Learned[1] = ab, ba
	if err := cfg.CheckInvariants(s); err == nil {
		t.Errorf("incompatible learned values must be flagged")
	}
}

// TestSafeAtBasics sanity-checks the safety predicate.
func TestSafeAtBasics(t *testing.T) {
	cfg := conflictingConfig()
	s := cfg.Init()
	// In the initial state every c-struct is still choosable at ballot 0
	// (no acceptor moved past it), so nothing is safe at ballot 1 yet:
	// this is why phase 1 exists.
	if cfg.SafeAt(s, cfg.Set.Bottom(), 1) {
		t.Errorf("nothing can be safe at 1 before a quorum joins ballot 1")
	}
	// Once a quorum joins ballot 1, only ⊥ remains choosable at 0 and ⊥
	// becomes safe at 1 (the abstract counterpart of completing phase 1).
	for a := 0; a < 3; a++ {
		s.MBal[a] = 1
	}
	if !cfg.SafeAt(s, cfg.Set.Bottom(), 1) {
		t.Errorf("⊥ must be safe at 1 after a quorum joined ballot 1")
	}
	// Make ⟨1⟩ chosen at ballot 1 by a full quorum, everyone at ballot 2.
	s.PropCmd[0] = true
	set := cfg.Set.(cstruct.HistorySet)
	h1 := cstruct.AppendSeq(set.Bottom(), []cstruct.Cmd{cfg.Cmds[0]})
	s.MaxTried[1] = h1
	for a := 0; a < 3; a++ {
		s.Votes[a][1] = h1
		s.MBal[a] = 2
	}
	if cfg.SafeAt(s, cfg.Set.Bottom(), 2) {
		t.Errorf("⊥ cannot be safe at 2 once ⟨1⟩ is choosable at 1")
	}
	if !cfg.SafeAt(s, h1, 2) {
		t.Errorf("the chosen value must be safe at 2")
	}
}

func TestStepNamesCovered(t *testing.T) {
	cfg := conflictingConfig()
	s := cfg.Init()
	names := map[string]bool{}
	// Drive a short scripted run touching every action type.
	for i := 0; i < 200; i++ {
		steps := cfg.Next(s)
		if len(steps) == 0 {
			break
		}
		pick := steps[0]
		for _, st := range steps {
			if !names[st.Name] {
				pick = st
				break
			}
		}
		names[pick.Name] = true
		s = pick.Next
	}
	for _, want := range []string{"Propose", "JoinBallot", "StartBallot", "Suggest", "ClassicVote", "AbstractLearn"} {
		if !names[want] {
			t.Errorf("action %s never enabled in scripted run (got %v)", want, names)
		}
	}
}
