package experiments

import "testing"

func TestAblationCoordQuorum(t *testing.T) {
	rows := RunAblationCoordQuorum(1, []int{1, 3, 5})
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Steps != 3 {
			t.Errorf("nc=%d: steps = %d, want 3 (latency independent of nc)", r.NCoords, r.Steps)
		}
	}
	if rows[0].SurvivedOneCrash {
		t.Errorf("nc=1 cannot survive its only coordinator crashing")
	}
	if !rows[1].SurvivedOneCrash || !rows[2].SurvivedOneCrash {
		t.Errorf("nc≥3 must survive one crash: %+v", rows[1:])
	}
	if rows[1].ToleratedCrashes != 1 || rows[2].ToleratedCrashes != 2 {
		t.Errorf("tolerated crashes wrong: %+v", rows)
	}
}

func TestAblationRndPersistence(t *testing.T) {
	rows := RunAblationRndPersistence(1, 10)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	volatile, persist := rows[0], rows[1]
	if volatile.PersistRnd || !persist.PersistRnd {
		t.Fatalf("row order unexpected: %+v", rows)
	}
	// Paper claim (Section 4.4): keeping rnd volatile saves exactly the
	// per-round-change write — accepts are persisted either way.
	delta := persist.WritesPerAcceptor - volatile.WritesPerAcceptor
	lo, hi := 0.9*float64(persist.RoundChanges), 1.1*float64(persist.RoundChanges)+1
	if delta < lo || delta > hi {
		t.Errorf("persist-rnd extra writes %.2f not ≈ one per round change (%d): %.2f vs %.2f",
			delta, persist.RoundChanges, persist.WritesPerAcceptor, volatile.WritesPerAcceptor)
	}
}
