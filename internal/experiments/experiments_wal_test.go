package experiments

import "testing"

// TestE11GroupCommitAmortizesFsyncs checks the tentpole claim: with the
// acceptors on a real on-disk WAL, the unbatched stream costs one physical
// fsync per command per acceptor (the paper's one-write-per-accept floor),
// and batch=32 drives it below one — to 1/32 — because each batch is one
// group-commit flush.
func TestE11GroupCommitAmortizesFsyncs(t *testing.T) {
	const commands = 64
	rows, err := RunE11GroupCommit(1, commands, []int{8, 32})
	if err != nil {
		t.Fatal(err)
	}
	byMode := make(map[string]E11Row, len(rows))
	for _, r := range rows {
		byMode[r.Mode] = r
		if r.Commands != commands {
			t.Fatalf("mode %s incomplete: %+v", r.Mode, r)
		}
	}

	seq, ok := byMode["sequential"]
	if !ok {
		t.Fatal("no sequential row")
	}
	if seq.FsyncsPerCmdPerAcc != 1 {
		t.Errorf("sequential fsyncs/cmd/acceptor = %.3f, want exactly 1", seq.FsyncsPerCmdPerAcc)
	}
	if seq.Writes != seq.Fsyncs {
		t.Errorf("sequential run coalesced: %d writes vs %d fsyncs", seq.Writes, seq.Fsyncs)
	}

	b32, ok := byMode["batch=32"]
	if !ok {
		t.Fatal("no batch=32 row")
	}
	if b32.FsyncsPerCmdPerAcc >= 1 {
		t.Errorf("batch=32 fsyncs/cmd/acceptor = %.3f, want < 1", b32.FsyncsPerCmdPerAcc)
	}
	// 64 commands in two batches of 32: one fsync per batch per acceptor.
	want := 1.0 / 32.0
	if b32.FsyncsPerCmdPerAcc > want*1.01 {
		t.Errorf("batch=32 fsyncs/cmd/acceptor = %.4f, want ≈ %.4f", b32.FsyncsPerCmdPerAcc, want)
	}

	b8 := byMode["batch=8"]
	if !(b32.FsyncsPerCmdPerAcc < b8.FsyncsPerCmdPerAcc && b8.FsyncsPerCmdPerAcc < seq.FsyncsPerCmdPerAcc) {
		t.Errorf("fsync cost not monotone in batch size: seq=%.3f b8=%.3f b32=%.3f",
			seq.FsyncsPerCmdPerAcc, b8.FsyncsPerCmdPerAcc, b32.FsyncsPerCmdPerAcc)
	}
}
