package mcpaxos

import "testing"

// E13 acceptance: the ISSUE's crash-masking scenario. With Shards=2 and
// CoordsPerShard=3, killing one coordinator of each shard mid-stream must
// not cost a single round change, and the merged order must equal the
// crash-free single-coordinated order; the same crash under c=1 provably
// pays a round change.
func TestE13CrashMasking(t *testing.T) {
	const commands = 192
	rows := RunE13(5, commands, 8, 4)
	byMode := make(map[string]E13Row, len(rows))
	for _, r := range rows {
		if r.Commands != commands {
			t.Fatalf("%s: incomplete run: applied %d/%d", r.Mode, r.Commands, commands)
		}
		byMode[r.Mode] = r
	}

	// One synchronous write per accepted instance per acceptor, whatever the
	// group size (Section 4.4): a partial 2a tally is not a write.
	for _, r := range rows {
		if r.WritesPerInstPerAcc != 1 {
			t.Errorf("%s: %.2f writes/inst/acc, want 1.00", r.Mode, r.WritesPerInstPerAcc)
		}
	}

	c3crash := byMode["c=3+crash"]
	if c3crash.RoundChanges != 0 {
		t.Errorf("c=3 crash paid %d round changes, want 0 (coordinator quorums must mask)", c3crash.RoundChanges)
	}
	if c3crash.Promotions != 0 {
		t.Errorf("c=3 crash triggered %d collision promotions on a conflict-free stream", c3crash.Promotions)
	}
	c1crash := byMode["c=1+crash"]
	if c1crash.RoundChanges == 0 {
		t.Error("c=1 crash paid no round change — the failover baseline is broken")
	}
	for _, mode := range []string{"c=1", "c=3"} {
		if got := byMode[mode].RoundChanges; got != 0 {
			t.Errorf("%s crash-free run paid %d round changes", mode, got)
		}
	}

	// Merged order under the masked crash equals the crash-free c=1 order.
	want, got := byMode["c=1"].Order, c3crash.Order
	if len(want) != commands || len(got) != commands {
		t.Fatalf("order lengths: c=1 %d, c=3+crash %d, want %d", len(want), len(got), commands)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("merged order diverges at position %d: c=1 delivers c%d, c=3+crash delivers c%d",
				i, want[i], got[i])
		}
	}
}

// The redundancy price of multicoordination is message fan-out, not time:
// c=3 sends roughly 3× the 2a/propose traffic but must not be slower than
// c=1 on the same stream, and a masked crash must not stall the drain the
// way the c=1 failover does.
func TestE13RedundancyCost(t *testing.T) {
	rows := RunE13(9, 128, 8, 4)
	byMode := make(map[string]E13Row, len(rows))
	for _, r := range rows {
		byMode[r.Mode] = r
	}
	c1, c3 := byMode["c=1"], byMode["c=3"]
	if c3.MsgsPerCmd <= c1.MsgsPerCmd {
		t.Errorf("c=3 msgs/cmd %.2f not above c=1 %.2f — the quorum fan-out vanished",
			c3.MsgsPerCmd, c1.MsgsPerCmd)
	}
	if c3.MsgsPerCmd > 4*c1.MsgsPerCmd {
		t.Errorf("c=3 msgs/cmd %.2f more than 4× c=1 %.2f — redundancy cost out of band",
			c3.MsgsPerCmd, c1.MsgsPerCmd)
	}
	if c3.SimSteps > c1.SimSteps+2 {
		t.Errorf("c=3 drain took %d steps vs c=1 %d — multicoordination must not add latency",
			c3.SimSteps, c1.SimSteps)
	}
	c1crash, c3crash := byMode["c=1+crash"], byMode["c=3+crash"]
	if c3crash.SimSteps >= c1crash.SimSteps {
		t.Errorf("masked crash (%d steps) not faster than c=1 failover (%d steps)",
			c3crash.SimSteps, c1crash.SimSteps)
	}
}
