package experiments

import "testing"

// TestE10BatchingAmortizesProtocolWork pins the shape of the throughput
// experiment: batching must cut protocol messages and acceptor disk writes
// per command by at least the acceptance factor, and pipelining must
// collapse the sequential stream's communication steps.
func TestE10BatchingAmortizesProtocolWork(t *testing.T) {
	const commands = 256
	seq := RunE10Sequential(1, commands)
	if seq.Commands != commands {
		t.Fatalf("sequential run incomplete: %+v", seq)
	}

	b32 := RunE10Batched(1, commands, 32)
	if b32.Commands != commands {
		t.Fatalf("batched run incomplete: %+v", b32)
	}
	if b32.Instances != commands/32 {
		t.Errorf("batch=32 used %d instances, want %d", b32.Instances, commands/32)
	}
	// Acceptance floor is 2×; the measured amortization is ~32×.
	if b32.MsgsPerCmd*2 > seq.MsgsPerCmd {
		t.Errorf("batch=32 msgs/cmd %.2f not ≥2× better than sequential %.2f",
			b32.MsgsPerCmd, seq.MsgsPerCmd)
	}
	if b32.WritesPerCmd*2 > seq.WritesPerCmd {
		t.Errorf("batch=32 writes/cmd %.3f not ≥2× better than sequential %.3f",
			b32.WritesPerCmd, seq.WritesPerCmd)
	}

	p8 := RunE10Pipelined(1, commands, 8)
	if p8.Commands != commands {
		t.Fatalf("pipelined run incomplete: %+v", p8)
	}
	// Pipelining does not change per-command protocol work...
	if p8.Msgs != seq.Msgs {
		t.Errorf("pipeline msgs %d != sequential %d", p8.Msgs, seq.Msgs)
	}
	// ...but it overlaps the instances' round trips.
	if p8.SimSteps*2 > seq.SimSteps {
		t.Errorf("pipeline=8 steps %d not ≥2× better than sequential %d",
			p8.SimSteps, seq.SimSteps)
	}
}

// TestE10BatchedRunsAreDeterministic: the deterministic clock inside the
// Batcher and simulator must make repeated runs identical.
func TestE10BatchedRunsAreDeterministic(t *testing.T) {
	a := RunE10Batched(7, 128, 16)
	b := RunE10Batched(7, 128, 16)
	if a != b {
		t.Errorf("batched runs diverged:\n  %+v\n  %+v", a, b)
	}
}
