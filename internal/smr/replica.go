package smr

import (
	"fmt"

	"mcpaxos/internal/batch"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/snapshot"
)

// Replica applies a learner's growing command structure to a machine. It is
// attached as the learner's update callback: each newly learned command is
// applied exactly once, in an order consistent with the learned c-struct —
// which is a total order when the conflict relation orders everything, and
// a commutativity-respecting order otherwise. Batch commands
// (internal/batch) are unpacked transparently: the constituents are applied
// in batch order, each exactly once.
//
// The replica is the one owner of its apply order, kept as command IDs: the
// bodies went into the machine, and a host that needs them again (a
// learner's retained log) keeps its own bounded copy.
type Replica struct {
	machine Machine
	applied map[uint64]string
	order   []uint64
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
	r.order = append(r.order, c.ID)
	return res
}

// Install replaces the replica's state with snapshot s, the one install
// step: the machine restores s.State, the order becomes s.Order, and each of
// its commands counts as applied — with its result from s.Replies where the
// snapshot kept one — so a later re-learn above the frontier deduplicates
// against it instead of re-applying. A result the replica already holds is
// kept. It fails, changing nothing, when the machine is not a DurableMachine
// or refuses the state.
func (r *Replica) Install(s snapshot.Snapshot) error {
	dm, ok := r.machine.(DurableMachine)
	if !ok {
		return fmt.Errorf("smr: %T cannot restore a snapshot", r.machine)
	}
	if err := dm.RestoreState(s.State); err != nil {
		return err
	}
	results := make(map[uint64]string, len(s.Replies))
	for _, rp := range s.Replies {
		results[rp.CmdID] = rp.Result
	}
	for _, id := range s.Order {
		if _, ok := r.applied[id]; !ok {
			r.applied[id] = results[id]
		}
	}
	r.order = append([]uint64(nil), s.Order...)
	return nil
}

// Applied reports how many distinct commands are reflected in the machine
// state, applied here or installed from a snapshot. Batch wrappers are not
// counted — only the constituent commands they carry.
func (r *Replica) Applied() int { return len(r.order) }

// Order returns the application order as command IDs, for checking replica
// agreement and for cutting snapshots. The caller must not modify it.
func (r *Replica) Order() []uint64 { return r.order }

// Machine returns the underlying machine.
func (r *Replica) Machine() Machine { return r.machine }

// Result returns the cached result of a command, if applied.
func (r *Replica) Result(cmdID uint64) (string, bool) {
	res, ok := r.applied[cmdID]
	return res, ok
}
