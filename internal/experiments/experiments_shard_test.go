package experiments

import "testing"

// E12 acceptance: at fixed batch size and per-leader pipeline window,
// throughput (commands per simulated step) must scale with the leader
// count — N=4 measurably above N=1.
func TestE12ShardScaling(t *testing.T) {
	rows := RunE12Scaling(1, 256, []int{1, 2, 4, 8}, 8, 4)
	byShards := make(map[int]E12Row)
	for _, r := range rows {
		if r.Commands != 256 {
			t.Fatalf("%s: incomplete run: %+v", r.Mode, r)
		}
		byShards[r.Shards] = r
	}
	n1, n4 := byShards[1], byShards[4]
	if n4.SimSteps >= n1.SimSteps {
		t.Errorf("sharding did not cut drain time: shards=1 %d steps, shards=4 %d steps",
			n1.SimSteps, n4.SimSteps)
	}
	if n4.CmdsPerStep < 2*n1.CmdsPerStep {
		t.Errorf("shards=4 throughput %.2f cmds/step not ≥2× shards=1 %.2f",
			n4.CmdsPerStep, n1.CmdsPerStep)
	}
	if byShards[8].CmdsPerStep <= n1.CmdsPerStep {
		t.Errorf("shards=8 throughput %.2f not above shards=1 %.2f",
			byShards[8].CmdsPerStep, n1.CmdsPerStep)
	}
}

// The merged total order must hold commands back only while a cross-shard
// gap is open, and end every run empty.
func TestE12MergerDrains(t *testing.T) {
	for _, shards := range []int{2, 4} {
		r := RunE12Sharded(7, 128, shards, 8, 2)
		if r.Commands != 128 {
			t.Fatalf("shards=%d: applied %d/128", shards, r.Commands)
		}
		if r.MaxMergeBuffer == 0 && shards > 1 {
			// With concurrent leaders some instance always completes ahead
			// of a lower-numbered one on another shard.
			t.Logf("shards=%d: merge buffer never filled (unusually aligned run)", shards)
		}
	}
}

// The durable sharded run must land every shard's accepts in the acceptors'
// shared logs, under shared group-commit fsyncs.
func TestE12DurableStreams(t *testing.T) {
	row, err := RunE12Durable(t.TempDir(), 3, 64, 4, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if row.Commands != 64 {
		t.Fatalf("applied %d/64", row.Commands)
	}
	for shard, accepts := range row.ShardAccepts {
		if accepts == 0 {
			t.Errorf("shard %d: no acceptor holds a vote of it", shard)
		}
	}
	if row.FsyncsPerCmdPerAcc > 0.5 {
		t.Errorf("batched sharded run cost %.3f fsyncs/cmd/acc, want ≤ 0.5 (group commit per batch)",
			row.FsyncsPerCmdPerAcc)
	}
}
