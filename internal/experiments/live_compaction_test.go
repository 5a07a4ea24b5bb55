package experiments

import "testing"

// TestE16CompactionBoundsStorage is the E16 claim at smoke scale: against a
// baseline whose snapshot interval is longer than the run, over the same
// write stream, a short interval leaves the learner resident log and the
// acceptors' on-disk WAL bytes bounded by the knobs instead of growing with
// history length.
func TestE16CompactionBoundsStorage(t *testing.T) {
	if testing.Short() {
		t.Skip("two live runs of several seconds")
	}
	const commands = 300
	base, err := RunE16Compaction(commands, 1<<30, 4, t.TempDir())
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	comp, err := RunE16Compaction(commands, 32, 4, t.TempDir())
	if err != nil {
		t.Fatalf("compaction: %v", err)
	}
	if msg := E16Bounded(base, comp); msg != "" {
		t.Fatalf("bounded-storage check: %s", msg)
	}
	bf := base.Samples[len(base.Samples)-1]
	cf := comp.Samples[len(comp.Samples)-1]
	t.Logf("baseline: resident=%d wal=%dB; compaction: resident=%d wal=%dB snaps=%dB saves=%d watermark=%d",
		bf.ResidentLog, bf.WALBytes, cf.ResidentLog, cf.WALBytes, cf.SnapBytes, cf.Saves, cf.Watermark)
}
