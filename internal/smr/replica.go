package smr

import (
	"fmt"

	"mcpaxos/internal/batch"
	"mcpaxos/internal/cstruct"
)

// Replica applies a learner's growing command structure to a machine. It is
// attached as the learner's update callback: each newly learned command is
// applied exactly once, in an order consistent with the learned c-struct —
// which is a total order when the conflict relation orders everything, and
// a commutativity-respecting order otherwise. Batch commands
// (internal/batch) are unpacked transparently: the constituents are applied
// in batch order, each exactly once.
type Replica struct {
	machine Machine
	applied map[uint64]string
	order   []cstruct.Cmd
	// seeded counts commands marked applied by snapshot installation: they
	// are in applied (dedup) but not in order (they never ran here).
	seeded int
}

// NewReplica builds a replica over machine.
func NewReplica(machine Machine) *Replica {
	return &Replica{machine: machine, applied: make(map[uint64]string)}
}

// UpdateFn returns the learner callback feeding this replica (a
// core.UpdateFn, spelled out so the live path does not link the
// simulator-only engine for a type name).
func (r *Replica) UpdateFn() func(cstruct.CStruct, []cstruct.Cmd) {
	return func(_ cstruct.CStruct, fresh []cstruct.Cmd) {
		for _, c := range fresh {
			r.ApplyOnce(c)
		}
	}
}

// ApplyOnce applies the command unless it was already applied; it returns
// the (possibly cached) result.
func (r *Replica) ApplyOnce(c cstruct.Cmd) string {
	if res, ok := r.applied[c.ID]; ok {
		return res
	}
	if sub, ok := batch.Unpack(c); ok {
		for _, s := range sub {
			r.ApplyOnce(s)
		}
		res := fmt.Sprintf("batch:%d", len(sub))
		r.applied[c.ID] = res
		return res
	}
	res := r.machine.Apply(c)
	r.applied[c.ID] = res
	r.order = append(r.order, c)
	return res
}

// Seed marks cmdID as already applied with the given cached result, without
// touching the machine or the apply order. Snapshot installation uses it:
// the machine state already reflects these commands, so a later re-learn
// above the frontier must deduplicate against them, not re-apply. Seeded
// commands count toward Applied — they reached the machine, just on the
// snapshotting node.
func (r *Replica) Seed(cmdID uint64, result string) {
	if _, ok := r.applied[cmdID]; !ok {
		r.applied[cmdID] = result
		r.seeded++
	}
}

// Applied reports how many distinct commands are reflected in the machine
// state, locally applied or seeded from a snapshot. Batch wrappers are not
// counted — only the constituent commands they carry.
func (r *Replica) Applied() int { return len(r.order) + r.seeded }

// Order returns the application order, for checking replica agreement.
func (r *Replica) Order() []cstruct.Cmd { return r.order }

// Machine returns the underlying machine.
func (r *Replica) Machine() Machine { return r.machine }

// Result returns the cached result of a command, if applied.
func (r *Replica) Result(cmdID uint64) (string, bool) {
	res, ok := r.applied[cmdID]
	return res, ok
}
