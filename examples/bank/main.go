// Bank: Generic Broadcast over Multicoordinated Paxos (Section 3.3 of the
// paper) — the core engine agreeing on command histories. Deposits to
// different accounts commute and may be delivered in different orders at
// different replicas; operations on the same account are totally ordered.
// Replica states converge either way.
//
//	go run ./examples/bank
package main

import (
	"fmt"

	"mcpaxos/internal/core"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/smr"
)

func main() {
	cl := core.NewCluster(core.ClusterOpts{
		NCoords:    3,
		NAcceptors: 5,
		F:          2,
		NLearners:  2,
		NProposers: 2,
		Seed:       7,
		Set:        cstruct.NewHistorySet(cstruct.KeyConflict), // same account ⇒ ordered
	})

	// Attach a bank replica to each learner.
	replicas := make([]*smr.Replica, len(cl.Cfg.Learners))
	for i, id := range cl.Cfg.Learners {
		replicas[i] = smr.NewReplica(smr.NewBank())
		l := core.NewLearner(cl.Sim.Env(id), cl.Cfg, replicas[i].UpdateFn())
		cl.Sim.Register(id, l)
		cl.Learners[i] = l
	}
	cl.Start(0)

	// Two clients issue concurrent traffic on different accounts
	// (commuting) and the same account (ordered).
	id := uint64(1)
	for round := 0; round < 5; round++ {
		cl.Props[0].Propose(smr.DepositCmd(id, "alice", 10))
		id++
		cl.Props[1].Propose(smr.DepositCmd(id, "bob", 20))
		id++
		cl.Sim.Run()
	}
	cl.Props[0].Propose(smr.WithdrawCmd(id, "alice", 35))
	cl.Sim.Run()

	for i, r := range replicas {
		bank := r.Machine().(*smr.Bank)
		fmt.Printf("replica %d: alice=%d bob=%d (applied %d ops)\n",
			i, bank.Balance("alice"), bank.Balance("bob"), r.Applied())
	}
	if replicas[0].Machine().Snapshot() == replicas[1].Machine().Snapshot() {
		fmt.Println("replicas converged ✓")
	} else {
		fmt.Println("replicas diverged ✗")
	}
	// Compatible histories order every conflicting pair alike.
	if cl.Agreement() {
		fmt.Println("conflicting operations delivered in one order everywhere ✓")
	}
}
