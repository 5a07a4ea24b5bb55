package classic

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"mcpaxos/internal/batch"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/storage"
	"mcpaxos/internal/wal"
)

// Property test for the paper's disk-write accounting (Sections 4.2, 4.4),
// checked over randomized command streams and both stable-storage backends
// (the simulated Disk and the on-disk WAL):
//
//   - coordinators perform zero stable writes — structurally, no
//     coordinator even holds a storage.Stable, so every write counted on
//     the cluster's stores is an acceptor's;
//   - acceptors perform exactly one group-commit write per flushed batch
//     (one consensus instance = one PutAll), never more — at c = 1 and in
//     the deployed configuration, coordinator groups of three (a partial 2a
//     tally is not a write), sharded or not;
//   - recovery performs exactly one write (the incarnation bump).
func TestDiskWriteAccountingProperty(t *testing.T) {
	backends := map[string]func(t *testing.T, trial int) func(i int) storage.Stable{
		"disk": func(*testing.T, int) func(i int) storage.Stable {
			return nil // cluster default: in-memory Disk
		},
		"wal": func(t *testing.T, trial int) func(i int) storage.Stable {
			base := t.TempDir()
			return func(i int) storage.Stable {
				w, err := wal.Open(filepath.Join(base, fmt.Sprintf("t%d-acc%d", trial, i)), wal.Options{})
				if err != nil {
					t.Fatalf("open wal: %v", err)
				}
				return w
			}
		},
	}
	shapes := []struct{ c, shards int }{{1, 1}, {3, 1}, {3, 2}}
	for name, mkStable := range backends {
		t.Run(name, func(t *testing.T) {
			trials := 6
			if name == "wal" {
				trials = 3 // real fsyncs: keep the I/O bounded
			}
			rng := rand.New(rand.NewSource(99))
			for trial := 0; trial < trials*len(shapes); trial++ {
				shape := shapes[trial%len(shapes)]
				commands := 1 + rng.Intn(40)
				batchSize := 1 + rng.Intn(8)
				seed := rng.Int63()
				cl := NewCluster(ClusterOpts{
					NAcceptors: 3, F: 1, Seed: seed,
					CoordsPerShard: shape.c, Shards: shape.shards,
					Stable: mkStable(t, trial),
				})
				cl.LeadAll()
				for _, d := range cl.Disks {
					d.ResetWrites()
				}

				bt := batch.NewBatcher(batchSize, 0, cl.Sim.Now, func(c cstruct.Cmd, _ []cstruct.Cmd) {
					cl.Prop.Propose(c)
				})
				for i := 0; i < commands; i++ {
					bt.Add(cstruct.Cmd{ID: uint64(1 + i), Key: "k", Op: cstruct.OpWrite})
				}
				bt.Flush()
				cl.Sim.Run()

				instances := len(cl.LearnedCmds)
				wantInstances := (commands + batchSize - 1) / batchSize
				if instances != wantInstances {
					t.Fatalf("trial %d (c=%d shards=%d cmds=%d batch=%d): %d instances, want %d",
						trial, shape.c, shape.shards, commands, batchSize, instances, wantInstances)
				}
				// One group-commit write per flushed batch per acceptor;
				// coordinators contribute nothing (they hold no store).
				for i, d := range cl.Disks {
					if got := d.Writes(); got != uint64(instances) {
						t.Errorf("trial %d (c=%d shards=%d cmds=%d batch=%d): acceptor %d performed %d writes for %d flushed batches",
							trial, shape.c, shape.shards, commands, batchSize, i, got, instances)
					}
				}

				// Recovery is exactly one write: the incarnation bump.
				pre := cl.Disks[0].Writes()
				cl.Sim.Crash(cl.Cfg.Acceptors[0])
				cl.Restart(cl.Cfg.Acceptors[0])
				cl.Sim.Run()
				if got := cl.Disks[0].Writes() - pre; got != 1 {
					t.Errorf("trial %d: recovery performed %d writes, want exactly 1", trial, got)
				}

				if name == "wal" {
					for _, d := range cl.Disks {
						d.(*wal.WAL).Close()
					}
				}
			}
		})
	}
}
