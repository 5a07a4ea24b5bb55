package main

import (
	"fmt"
	"time"

	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/smr"
)

// gate is the correctness check of a repetition: both learners reach the
// same Applied within 2 s of the load draining, their merged orders are
// prefix-consistent and duplicate-free, every acked command is in the order,
// and replaying learner 300's order through a fresh KVStore reproduces every
// acked Call.Result — which is what makes the Get half of durable_mixed
// checked and not just timed. After a coordinator kill it also requires the
// restarted coordinator to be hosted again.
func (d *deployment) gate(killed bool) error {
	deadline := time.Now().Add(2 * time.Second)
	for {
		a, errA := d.rep.Applied(learnerA)
		b, errB := d.rep.Applied(learnerB)
		if errA != nil || errB != nil {
			return fmt.Errorf("gate: learner missing: %v %v", errA, errB)
		}
		if a == b {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gate: learners diverge 2s after drain: applied %d vs %d", a, b)
		}
		time.Sleep(2 * time.Millisecond)
	}
	oa, errA := d.rep.Order(learnerA)
	ob, errB := d.rep.Order(learnerB)
	if errA != nil || errB != nil {
		return fmt.Errorf("gate: order: %v %v", errA, errB)
	}
	for i := 0; i < min(len(oa), len(ob)); i++ {
		if oa[i] != ob[i] {
			return fmt.Errorf("gate: orders differ at position %d: %d vs %d", i, oa[i], ob[i])
		}
	}
	if killed {
		hosted := false
		for _, id := range d.rep.Hosted() {
			hosted = hosted || id == killedCoord
		}
		if !hosted {
			return fmt.Errorf("gate: coordinator %d not hosted after restart", killedCoord)
		}
	}

	byID := make(map[uint64]*opRec, len(d.ops))
	for _, o := range d.ops {
		byID[o.id] = o
	}
	kv := smr.NewKVStore()
	seen := make(map[uint64]bool, len(oa))
	for pos, id := range oa {
		if seen[id] {
			return fmt.Errorf("gate: command %d applied twice (position %d)", id, pos)
		}
		seen[id] = true
		o, ok := byID[id]
		if !ok {
			return fmt.Errorf("gate: order holds command %d that no client proposed", id)
		}
		if got := kv.Apply(o.cmd); o.ok && got != o.result {
			return fmt.Errorf("gate: command %d (%s %s) acked %q, replay gives %q",
				id, opName(o.cmd), o.cmd.Key, o.result, got)
		}
	}
	for _, o := range d.ops {
		if o.ok && !seen[o.id] {
			return fmt.Errorf("gate: acked command %d missing from learner %d's order", o.id, learnerA)
		}
	}
	return nil
}

func opName(c cstruct.Cmd) string {
	if c.Op == cstruct.OpRead {
		return "get"
	}
	return "set"
}
