package core

import (
	"testing"

	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
)

// driverCluster wires LeaderDrivers next to every coordinator.
func driverCluster(t *testing.T, seed int64) (*Cluster, []*LeaderDriver) {
	t.Helper()
	cl := NewCluster(ClusterOpts{
		NCoords: 3, NAcceptors: 3, F: 1, Seed: seed,
		Set: cstruct.CmdSetSet{}, RetryEvery: 40,
	})
	drivers := make([]*LeaderDriver, len(cl.Coords))
	for i, id := range cl.Cfg.Coords {
		d := NewLeaderDriver(cl.Sim.Env(id), cl.Cfg, cl.Coords[i], 10, 25, 30)
		drivers[i] = d
		cl.Sim.Register(id, withDriver{cl.Coords[i], d})
	}
	for _, d := range drivers {
		d.Start()
	}
	return cl, drivers
}

// withDriver hosts a coordinator and its LeaderDriver on one node: every
// message and timer reaches both, the coordinator first.
type withDriver struct {
	*Coordinator
	d *LeaderDriver
}

func (h withDriver) OnMessage(from msg.NodeID, m msg.Message) {
	h.Coordinator.OnMessage(from, m)
	h.d.OnMessage(from, m)
}

func (h withDriver) OnTimer(tag int) {
	h.Coordinator.OnTimer(tag)
	h.d.OnTimer(tag)
}

func TestDriverBootstrapsRound(t *testing.T) {
	cl, drivers := driverCluster(t, 1)
	cl.Sim.RunUntil(100)
	if drivers[0].Leader() != cl.Cfg.Coords[0] {
		t.Fatalf("lowest-ID coordinator must lead, got %v", drivers[0].Leader())
	}
	cl.Props[0].Propose(cstruct.Cmd{ID: 1})
	cl.Sim.RunUntil(200)
	if _, ok := cl.LearnTimes[1]; !ok {
		t.Fatalf("driver-bootstrapped deployment must decide")
	}
}

func TestDriverSurvivesLeaderCrash(t *testing.T) {
	cl, _ := driverCluster(t, 1)
	cl.Sim.RunUntil(100)
	// Crash the leader; the round is multicoordinated, so decisions go on
	// through the remaining quorum without any new round.
	cl.Sim.Crash(cl.Cfg.Coords[0])
	cl.Props[0].Propose(cstruct.Cmd{ID: 2})
	cl.Sim.RunUntil(200)
	if _, ok := cl.LearnTimes[2]; !ok {
		t.Fatalf("multicoordinated round must survive the leader crash")
	}
}

func TestDriverTakesOverWhenQuorumDies(t *testing.T) {
	cl, drivers := driverCluster(t, 1)
	cl.Sim.RunUntil(100)
	// Crash a majority of coordinators, leaving only coordinator 2: no
	// coordquorum survives; the driver on 102 must detect this, win the
	// election, and start a single-coordinated round it owns.
	cl.Sim.Crash(cl.Cfg.Coords[0])
	cl.Sim.Crash(cl.Cfg.Coords[1])
	cl.Props[0].Propose(cstruct.Cmd{ID: 3})
	cl.Sim.RunUntil(600)
	if _, ok := cl.LearnTimes[3]; !ok {
		t.Fatalf("surviving coordinator must take over with a single-coordinated round")
	}
	if drivers[2].Leader() != cl.Cfg.Coords[2] {
		t.Errorf("coordinator 102 must believe itself leader")
	}
}

func TestLossyNetworkEndToEnd(t *testing.T) {
	cl := NewCluster(ClusterOpts{
		NCoords: 3, NAcceptors: 3, F: 1, Seed: 11,
		Set: cstruct.CmdSetSet{}, RetryEvery: 30,
	})
	cl.Sim.SetLatency(dropProb(0.15))
	cl.Start(0)
	const n = 15
	for i := 0; i < n; i++ {
		cl.Props[0].Propose(cstruct.Cmd{ID: uint64(1 + i)})
	}
	cl.Sim.RunUntil(5_000)
	learned := 0
	for i := 0; i < n; i++ {
		if _, ok := cl.LearnTimes[uint64(1+i)]; ok {
			learned++
		}
	}
	if learned != n {
		t.Fatalf("lossy run learned %d/%d commands", learned, n)
	}
	if !cl.Agreement() {
		t.Fatalf("learners diverged under loss")
	}
}
