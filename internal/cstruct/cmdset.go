package cstruct

import (
	"sort"
	"strings"
)

// CmdSetSet is the c-struct set in which c-structs are sets of commands,
// ⊥ is the empty set, and v • C adds C to the set (first example of
// Section 2.3.1 of the paper). Every pair of c-structs is compatible: the
// lattice is the power set of Cmd with glb = intersection, lub = union.
// Generalized Consensus over this set is reliable broadcast.
type CmdSetSet struct{}

var _ Set = CmdSetSet{}

// CmdSet is a c-struct of CmdSetSet. It holds one command per ID: a c-struct
// of generalized consensus never sees two commands under one ID (only
// batches share IDs, and batches ride only SingleValue).
type CmdSet struct {
	cmds map[uint64]Cmd
}

var _ CStruct = CmdSet{}

// Append returns v ∪ {c}.
func (v CmdSet) Append(c Cmd) CStruct {
	if v.Contains(c) {
		return v
	}
	m := make(map[uint64]Cmd, len(v.cmds)+1)
	for id, cc := range v.cmds {
		m[id] = cc
	}
	m[c.ID] = c
	return CmdSet{cmds: m}
}

// Contains reports set membership: the command stored under c's ID is Equal
// to c.
func (v CmdSet) Contains(c Cmd) bool {
	d, ok := v.cmds[c.ID]
	return ok && d.Equal(c)
}

// Len is the set cardinality.
func (v CmdSet) Len() int { return len(v.cmds) }

// Commands returns the commands in ascending ID order.
func (v CmdSet) Commands() []Cmd {
	out := make([]Cmd, 0, len(v.cmds))
	for _, c := range v.cmds {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// String renders v.
func (v CmdSet) String() string {
	parts := make([]string, 0, len(v.cmds))
	for _, c := range v.Commands() {
		parts = append(parts, c.String())
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Name implements Set.
func (CmdSetSet) Name() string { return "cmd-set" }

// Bottom implements Set.
func (CmdSetSet) Bottom() CStruct { return CmdSet{cmds: map[uint64]Cmd{}} }

func asCmdSet(v CStruct) CmdSet {
	cs, ok := v.(CmdSet)
	if !ok {
		panic("cstruct: CmdSetSet operation on foreign c-struct")
	}
	return cs
}

// Equal implements Set.
func (s CmdSetSet) Equal(v, w CStruct) bool {
	return asCmdSet(v).Len() == asCmdSet(w).Len() && s.Extends(v, w)
}

// Extends implements Set: v ⊑ w iff v ⊆ w.
func (CmdSetSet) Extends(v, w CStruct) bool {
	a, b := asCmdSet(v), asCmdSet(w)
	if len(a.cmds) > len(b.cmds) {
		return false
	}
	for _, c := range a.cmds {
		if !b.Contains(c) {
			return false
		}
	}
	return true
}

// GLB implements Set: set intersection.
func (s CmdSetSet) GLB(vs ...CStruct) CStruct {
	if len(vs) == 0 {
		return s.Bottom()
	}
	out := make(map[uint64]Cmd)
	first := asCmdSet(vs[0])
outer:
	for id, c := range first.cmds {
		for _, v := range vs[1:] {
			if !asCmdSet(v).Contains(c) {
				continue outer
			}
		}
		out[id] = c
	}
	return CmdSet{cmds: out}
}

// Compatible implements Set: always true.
func (CmdSetSet) Compatible(vs ...CStruct) bool {
	for _, v := range vs {
		asCmdSet(v) // type check only
	}
	return true
}

// LUB implements Set: set union.
func (CmdSetSet) LUB(vs ...CStruct) (CStruct, bool) {
	out := make(map[uint64]Cmd)
	for _, v := range vs {
		for id, c := range asCmdSet(v).cmds {
			out[id] = c
		}
	}
	return CmdSet{cmds: out}, true
}
