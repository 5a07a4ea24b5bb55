package experiments

import (
	"fmt"
	"path/filepath"

	"mcpaxos/internal/ballot"
	"mcpaxos/internal/batch"
	"mcpaxos/internal/classic"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/smr"
	"mcpaxos/internal/storage"
	"mcpaxos/internal/wal"
)

// This file holds the one simulator run behind E10–E13: a classic SMR
// deployment over 3 acceptors is brought up, fed the e10Cmd stream through
// the batch router, run to quiescence and counted. The experiments differ
// only in the drainSpec they pass and in which counts they report.

// drainSpec shapes one drain.
type drainSpec struct {
	seed     int64
	commands int
	// shards is the number of concurrent coordinator groups and perShard
	// each group's size c (0 is 1). coords counts every coordinator: those
	// beyond shards×perShard, its floor, are standbys.
	shards, perShard, coords int
	// batch is the router's batch size (1 proposes each command alone) and
	// window each coordinator's pipeline window (0 is unbounded).
	batch, window int
	// sequential runs the simulator to quiescence after every command.
	sequential bool
	// walDir, when set, puts each acceptor on an on-disk WAL under it.
	walDir string
	// crash, when set, runs two communication steps into the drain.
	crash func(cl *classic.Cluster)
}

// drained is what one drain counted. Everything counts from the start of the
// drain except leadWrites, the acceptors' writes during bring-up (phase 1's
// incarnation writes).
type drained struct {
	cl  *classic.Cluster
	m   *smr.Merger
	rep *smr.Replica
	// complete holds when the replica applied every command and the merger
	// holds nothing back: a broken run is never reported as a number.
	complete                   bool
	commands, instances        int
	msgs                       uint64
	steps                      int64
	leadWrites, writes, fsyncs uint64
	// roundChanges is what E13Row.RoundChanges reports.
	roundChanges int
}

// mode labels a row, marking a broken run so it cannot pass for a result.
func (d drained) mode(name string) string {
	if !d.complete {
		return name + "(INCOMPLETE)"
	}
	return name
}

func e10Cmd(i int) cstruct.Cmd {
	return cstruct.Cmd{ID: uint64(1 + i), Key: "k", Op: cstruct.OpWrite, Payload: []byte{1, byte(i)}}
}

// drain runs one spec. Its only error is a WAL that would not open; the WALs
// are closed when it returns.
func drain(s drainSpec) (drained, error) {
	const acceptors = 3
	var (
		wals   []*wal.WAL
		stable func(i int) storage.Stable // nil: in-memory disks
	)
	defer func() {
		for _, w := range wals {
			w.Close()
		}
	}()
	for i := 0; s.walDir != "" && i < acceptors; i++ {
		w, err := wal.Open(filepath.Join(s.walDir, fmt.Sprintf("acc%d", i)), wal.Options{})
		if err != nil {
			return drained{}, err
		}
		wals = append(wals, w)
	}
	if wals != nil {
		stable = func(i int) storage.Stable { return wals[i] }
	}
	rep := smr.NewReplica(smr.NewKVStore())
	m := smr.NewMerger(smr.ReplicaDeliver(rep))
	cl := classic.NewCluster(classic.ClusterOpts{
		NCoords: s.coords, NAcceptors: acceptors, F: 1, Seed: s.seed,
		Shards: s.shards, CoordsPerShard: s.perShard, MaxInflight: s.window, Stable: stable,
		OnLearn: func(inst uint64, cmd cstruct.Cmd) { m.Add(inst, cmd) },
	})
	m.OnRelease = func(upTo uint64) { cl.Learners[0].Release(upTo) }
	cl.LeadAll()

	base := make([]ballot.Ballot, cl.Cfg.NShards())
	for k := range base {
		base[k] = cl.ShardRound(k)
	}
	lead := cl.TotalDiskWrites()
	for _, d := range cl.Disks {
		d.ResetWrites()
	}
	for _, w := range wals {
		w.ResetFsyncs()
	}
	cl.Sim.Metrics().Reset()
	start := cl.Sim.Now()
	router := batch.NewRouter(cl.Cfg.NShards(), s.batch, 0, cl.Sim.Now, cl.Prop.ProposeSeq)
	for i := 0; i < s.commands; i++ {
		router.Route(e10Cmd(i))
		if s.sequential {
			cl.Sim.Run()
		}
	}
	router.FlushAll()
	if s.crash != nil {
		cl.Sim.RunUntil(cl.Sim.Now() + 2)
		s.crash(cl)
	}
	cl.Sim.Run()

	d := drained{
		cl: cl, m: m, rep: rep,
		complete:     rep.Applied() == s.commands && m.Buffered() == 0,
		commands:     rep.Applied(),
		instances:    int(m.Delivered()),
		msgs:         cl.Sim.Metrics().TotalSent(),
		steps:        cl.Sim.Now() - start,
		leadWrites:   lead,
		writes:       cl.TotalDiskWrites(),
		roundChanges: cl.RoundChanges(),
	}
	for _, w := range wals {
		d.fsyncs += w.Fsyncs()
	}
	for k := range base {
		if base[k].Less(cl.ShardRound(k)) {
			d.roundChanges++
		}
	}
	return d, nil
}
