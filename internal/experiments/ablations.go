package experiments

import (
	"mcpaxos/internal/ballot"
	"mcpaxos/internal/core"
	"mcpaxos/internal/cstruct"
)

// This file implements the ablations DESIGN.md calls out: design choices of
// Section 4 varied one at a time, each arm one coreTrial (experiments.go).

// AblationCoordRow reports the effect of the coordinator-set size on a
// multicoordinated deployment: nc = 1 degenerates to Classic Paxos rounds.
type AblationCoordRow struct {
	NCoords int
	// QuorumSize is the coordinator quorum cardinality.
	QuorumSize int
	// ToleratedCrashes is the number of coordinator crashes that leave a
	// quorum intact (nc − quorum).
	ToleratedCrashes int
	// Steps is the measured propose→learn latency (claim: 3, independent
	// of nc).
	Steps int64
	// SurvivedOneCrash reports whether a decision completed after one
	// coordinator crash without a round change.
	SurvivedOneCrash bool
}

// RunAblationCoordQuorum sweeps the coordinator-set size (Section 4.1: "an
// equally high number of coordinators increases only availability"; latency
// is unaffected).
func RunAblationCoordQuorum(seed int64, sizes []int) []AblationCoordRow {
	out := make([]AblationCoordRow, 0, len(sizes))
	for _, nc := range sizes {
		cl := coreTrial(seed, core.ClusterOpts{NCoords: nc, NAcceptors: 3, F: 1, Set: cstruct.CmdSetSet{}})
		steps, ok := stepsToLearn(cl, func() { cl.Props[0].Propose(cstruct.Cmd{ID: 1}) })
		if !ok {
			steps = -1
		}
		// Crash one coordinator and check a second decision still lands
		// without a round change.
		r0 := cl.Accs[0].Rnd()
		cl.Sim.Crash(cl.Cfg.Coords[nc-1])
		cl.Props[0].Propose(cstruct.Cmd{ID: 2})
		cl.Sim.Run()
		_, survived := cl.LearnTimes[2]
		survived = survived && cl.Accs[0].Rnd().Equal(r0)
		out = append(out, AblationCoordRow{
			NCoords:          nc,
			QuorumSize:       cl.Cfg.CoordQ.Size(),
			ToleratedCrashes: cl.Cfg.CoordQ.MaxFailures(),
			Steps:            steps,
			SurvivedOneCrash: survived,
		})
	}
	return out
}

// AblationRndRow compares the Section 4.4 volatile-rnd policy against naive
// per-round-change persistence.
type AblationRndRow struct {
	PersistRnd bool
	// WritesPerAcceptor during a run with `RoundChanges` round changes and
	// one accepted command per round.
	WritesPerAcceptor float64
	RoundChanges      int
}

// RunAblationRndPersistence measures the disk-write cost of persisting rnd
// on every round change versus keeping it volatile (Section 4.4).
func RunAblationRndPersistence(seed int64, roundChanges int) []AblationRndRow {
	out := make([]AblationRndRow, 0, 2)
	for _, persist := range []bool{false, true} {
		cl := coreTrial(seed, core.ClusterOpts{NCoords: 1, NAcceptors: 3, F: 1,
			Scheme: ballot.SingleScheme{}, Set: cstruct.CmdSetSet{}})
		// coreTrial zeroed the first round's writes, so the policy can follow it.
		for _, a := range cl.Accs {
			a.PersistRnd = persist
		}
		id := uint64(1)
		for i := 0; i < roundChanges; i++ {
			cur := cl.Accs[0].Rnd()
			cl.Coords[0].StartRound(core.NextAbove(cl.Cfg.Scheme, cur, 100))
			cl.Sim.Run()
			cl.Props[0].Propose(cstruct.Cmd{ID: id})
			id++
			cl.Sim.Run()
		}
		out = append(out, AblationRndRow{
			PersistRnd:        persist,
			WritesPerAcceptor: float64(cl.TotalDiskWrites()) / float64(len(cl.Disks)),
			RoundChanges:      roundChanges,
		})
	}
	return out
}
