package experiments

import "testing"

func TestE1StepsMatchPaper(t *testing.T) {
	r := RunE1StepsToLearn(1)
	want := map[Protocol]int64{
		ProtocolClassic:     3,
		ProtocolFast:        2,
		ProtocolMulti:       3,
		ProtocolGeneralized: 2,
	}
	for p, w := range want {
		if got := r.Steps[p]; got != w {
			t.Errorf("%v: %d steps, paper says %d", p, got, w)
		}
	}
	if rows := FormatE1(r); len(rows) != 4 {
		t.Errorf("FormatE1 rows = %d", len(rows))
	}
}

func TestE2QuorumTableMatchesPaper(t *testing.T) {
	rows := RunE2QuorumSizes([]int{3, 5, 7, 9, 11, 13})
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Spot checks from Section 2.2: n=5 → classic 3, fast 4 (⌈(3n+1)/4⌉),
	// balanced 4 (⌈(2n+1)/3⌉); multicoordinated = classic everywhere.
	r5 := rows[1]
	if r5.Classic != 3 || r5.FastMajority != 4 || r5.Balanced != 4 || r5.MultiCoord != 3 {
		t.Errorf("n=5 row wrong: %+v", r5)
	}
	for _, r := range rows {
		if r.MultiCoord != r.Classic {
			t.Errorf("n=%d: multicoordinated rounds must need only classic quorums", r.N)
		}
		if r.FastMajority < r.Classic {
			t.Errorf("n=%d: fast quorums cannot be smaller than classic", r.N)
		}
	}
}

func TestE3AvailabilityShape(t *testing.T) {
	rows := RunE3Availability(1)
	byKey := make(map[string]E3Row)
	for _, r := range rows {
		byKey[r.Kind+string(rune('0'+r.CoordCrashes))] = r
	}
	if r := byKey["single-coordinated0"]; !r.Progress {
		t.Errorf("healthy single-coordinated round must progress")
	}
	if r := byKey["single-coordinated1"]; r.Progress {
		t.Errorf("single-coordinated round must stall when its coordinator dies")
	}
	if r := byKey["multicoordinated(3)1"]; !r.Progress || r.RoundChanged {
		t.Errorf("multicoordinated round must survive one crash without round change: %+v", r)
	}
	if r := byKey["multicoordinated(3)2"]; r.Progress {
		t.Errorf("multicoordinated round must stall without a coordinator quorum")
	}
}

func TestE4LoadBalanceBounds(t *testing.T) {
	r := RunE4LoadBalance(1, 3, 5, 120)
	if r.MaxCoordShare <= 0 || r.MaxCoordShare > r.CoordBound+0.1 {
		t.Errorf("coordinator share %.3f outside (0, %.3f]", r.MaxCoordShare, r.CoordBound)
	}
	if r.MaxAccShare <= 0 || r.MaxAccShare > r.AccBound+0.1 {
		t.Errorf("acceptor share %.3f outside (0, %.3f]", r.MaxAccShare, r.AccBound)
	}
	if r.FastAccShare <= 0.75 {
		t.Errorf("fast acceptor share %.3f must exceed 3/4 (paper claim)", r.FastAccShare)
	}
	if r.MaxAccShare >= r.FastAccShare {
		t.Errorf("multicoordinated acceptor share (%.3f) must beat fast (%.3f)",
			r.MaxAccShare, r.FastAccShare)
	}
}

func TestE5CollisionCostOrdering(t *testing.T) {
	rows := RunE5CollisionRecovery(1)
	byName := make(map[string]E5Row, len(rows))
	for _, r := range rows {
		byName[r.Scenario] = r
	}
	// Sections 2.2 and 4.2: the extra steps each recovery costs over its
	// round's collision-free latency (fast 2, multicoordinated 3).
	want := map[string]int64{
		"fast+restart": 4, "fast+coordinated": 2, "fast+uncoordinated": 1, "multicoord+promote": 2,
	}
	for name, extra := range want {
		r, ok := byName[name]
		if !ok {
			t.Fatalf("missing scenario %s: %+v", name, rows)
		}
		if r.ExtraSteps != extra {
			t.Errorf("%s: %d extra steps (total %d), paper says %d", name, r.ExtraSteps, r.TotalSteps, extra)
		}
	}
	// Paper: fast collisions waste acceptor disk writes; multicoordinated
	// collisions do not (acceptors never accept during the collision).
	mc := byName["multicoord+promote"]
	for _, name := range []string{"fast+restart", "fast+coordinated", "fast+uncoordinated"} {
		if r := byName[name]; r.AcceptorWrites <= mc.AcceptorWrites {
			t.Errorf("%s: %d acceptor writes must exceed multicoord's %d", name, r.AcceptorWrites, mc.AcceptorWrites)
		}
	}
}

func TestE6DiskWritesPerCommand(t *testing.T) {
	r := RunE6DiskWrites(1, 20)
	for _, p := range []Protocol{ProtocolClassic, ProtocolMulti, ProtocolFast} {
		got := r.WritesPerCommandPerAcceptor[p]
		if got < 0.99 || got > 1.01 {
			t.Errorf("%v: %.3f writes/command/acceptor, paper says 1", p, got)
		}
	}
	if r.CoordinatorWrites != 0 {
		t.Errorf("coordinators must not write to disk")
	}
	if r.RecoveryWrites != 1 {
		t.Errorf("recovery must cost exactly 1 extra write, got %d", r.RecoveryWrites)
	}
}

func TestE7ConflictSweepShape(t *testing.T) {
	rows := RunE7ConflictSweep(1, []float64{0, 1}, 8)
	byKey := func(rho float64, p Protocol) E7Row {
		for _, r := range rows {
			if r.ConflictRate == rho && r.Protocol == p {
				return r
			}
		}
		t.Fatalf("row missing for rho=%v %v", rho, p)
		return E7Row{}
	}
	for _, p := range []Protocol{ProtocolMulti, ProtocolGeneralized} {
		lo, hi := byKey(0, p), byKey(1, p)
		if lo.CollisionFrac != 0 {
			t.Errorf("%v: commuting commands must never collide, got %.2f", p, lo.CollisionFrac)
		}
		if hi.CollisionFrac <= lo.CollisionFrac {
			t.Errorf("%v: conflicts must raise the collision rate (%.2f vs %.2f)",
				p, hi.CollisionFrac, lo.CollisionFrac)
		}
		if lo.Learned < 0.99 || hi.Learned < 0.99 {
			t.Errorf("%v: commands lost (lo=%.2f hi=%.2f)", p, lo.Learned, hi.Learned)
		}
	}
	// At full conflict, fast rounds must pay more latency than their own
	// collision-free case.
	gen0, gen1 := byKey(0, ProtocolGeneralized), byKey(1, ProtocolGeneralized)
	if gen1.MeanSteps <= gen0.MeanSteps {
		t.Errorf("generalized: conflicting load must cost extra steps (%.2f vs %.2f)",
			gen1.MeanSteps, gen0.MeanSteps)
	}
}

func TestE8FailoverGaps(t *testing.T) {
	r := RunE8LeaderFailover(1)
	if r.ClassicGap <= r.MultiGap {
		t.Errorf("classic leader failover gap (%d) must exceed multicoordinated (%d)",
			r.ClassicGap, r.MultiGap)
	}
	if r.MultiGap > 3*r.BaselineGap+10 {
		t.Errorf("multicoordinated gap %d should stay near baseline %d",
			r.MultiGap, r.BaselineGap)
	}
}

func TestE9SpontaneousOrderShape(t *testing.T) {
	rows := RunE9SpontaneousOrder(1, []int64{0, 6}, 10)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	calm, wild := rows[0], rows[1]
	if calm.FastCollisionFrac != 0 {
		t.Errorf("no jitter ⇒ spontaneous order ⇒ no fast collisions, got %.2f",
			calm.FastCollisionFrac)
	}
	if wild.FastCollisionFrac <= calm.FastCollisionFrac {
		t.Errorf("jitter must raise fast collision rate: %.2f vs %.2f",
			wild.FastCollisionFrac, calm.FastCollisionFrac)
	}
}

func TestProtocolString(t *testing.T) {
	for p, want := range map[Protocol]string{
		ProtocolClassic: "classic", ProtocolFast: "fast",
		ProtocolMulti: "multicoordinated", ProtocolGeneralized: "generalized",
		Protocol(0): "unknown",
	} {
		if p.String() != want {
			t.Errorf("Protocol(%d) = %q want %q", p, p.String(), want)
		}
	}
}

func TestQuorumSizesError(t *testing.T) {
	if _, _, _, err := QuorumSizes(0); err == nil {
		t.Errorf("n=0 must error")
	}
}
