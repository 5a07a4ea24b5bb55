package experiments

import (
	"strings"
	"testing"

	"mcpaxos/internal/classic"
)

// TestDrainRefusesBrokenRun pins the one completeness rule behind E10–E13:
// with every coordinator killed two steps in, the stream cannot drain, and
// the drain must say so rather than report the partial counts as a result.
func TestDrainRefusesBrokenRun(t *testing.T) {
	const commands = 128
	d, err := drain(drainSpec{seed: 1, commands: commands, shards: 2, perShard: 3, coords: 6,
		batch: 8, window: 4, crash: func(cl *classic.Cluster) {
			for _, id := range cl.Cfg.Coords {
				cl.Sim.Crash(id)
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	if d.commands >= commands {
		t.Fatalf("applied %d/%d with every coordinator dead: the crash hook did not bite", d.commands, commands)
	}
	if d.complete {
		t.Errorf("drain applied %d/%d and reports the run complete", d.commands, commands)
	}
	if row := e13Row("c=3+crash", 3, true, d); !strings.HasSuffix(row.Mode, "(INCOMPLETE)") {
		t.Errorf("broken run reported as mode %q, want an (INCOMPLETE) mark", row.Mode)
	}
}
