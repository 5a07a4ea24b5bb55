package cstruct

import "strings"

// HistorySet is the command-history c-struct set of Section 3.3.1: c-structs
// are partially ordered sets of commands where only conflicting commands
// (per the configured Conflict relation) are ordered. Histories are
// represented as duplicate-free command sequences; the sequence order of two
// conflicting commands is their poset order, while non-conflicting commands
// carry no ordering information. Generalized Consensus over this set is
// Generic Broadcast.
type HistorySet struct {
	conflict Conflict
}

var _ Set = HistorySet{}

// NewHistorySet returns the c-struct set of command histories under the
// given conflict relation.
func NewHistorySet(conflict Conflict) HistorySet {
	if conflict == nil {
		conflict = AlwaysConflict
	}
	return HistorySet{conflict: conflict}
}

// History is a c-struct of a HistorySet: a representative command sequence.
type History struct {
	seq      []Cmd
	conflict Conflict
}

var _ CStruct = History{}

func (h History) append(c Cmd) History {
	if h.Contains(c) {
		return h
	}
	out := make([]Cmd, len(h.seq), len(h.seq)+1)
	copy(out, h.seq)
	out = append(out, c)
	return History{seq: out, conflict: h.conflict}
}

// Append returns h • c: h unchanged if c ∈ h, otherwise h with c appended
// (c succeeds every conflicting command already in h).
func (h History) Append(c Cmd) CStruct { return h.append(c) }

// Contains reports whether c ∈ h.
func (h History) Contains(c Cmd) bool {
	for _, d := range h.seq {
		if d.Equal(c) {
			return true
		}
	}
	return false
}

// Len is the number of commands in h.
func (h History) Len() int { return len(h.seq) }

// Commands returns a representative sequence of h. Callers must not mutate
// the returned slice.
func (h History) Commands() []Cmd { return h.seq }

// String renders h.
func (h History) String() string {
	parts := make([]string, len(h.seq))
	for i, c := range h.seq {
		parts[i] = c.String()
	}
	return "⟨" + strings.Join(parts, "≺") + "⟩"
}

// indexOf returns the position of c in seq, or -1.
func indexOf(seq []Cmd, c Cmd) int {
	for i, d := range seq {
		if d.Equal(c) {
			return i
		}
	}
	return -1
}

// remove returns seq without element c (first occurrence).
func remove(seq []Cmd, c Cmd) []Cmd {
	i := indexOf(seq, c)
	if i < 0 {
		return seq
	}
	out := make([]Cmd, 0, len(seq)-1)
	out = append(out, seq[:i]...)
	out = append(out, seq[i+1:]...)
	return out
}

// descendants marks the transitive conflict-descendants of head within
// tail: every command in tail that conflicts with head or with an earlier
// descendant. Used by the Prefix operator of Section 3.3.1.
func descendants(conflict Conflict, head Cmd, tail []Cmd) []bool {
	desc := make([]bool, len(tail))
	anchors := []Cmd{head}
	for j, x := range tail {
		for _, a := range anchors {
			if conflict(a, x) {
				desc[j] = true
				anchors = append(anchors, x)
				break
			}
		}
	}
	return desc
}

// prefix implements the Prefix(H, I) operator of Section 3.3.1: the longest
// common prefix (greatest lower bound) of the two histories.
func prefix(conflict Conflict, h, i []Cmd) []Cmd {
	var out []Cmd
	h = append([]Cmd(nil), h...)
	i = append([]Cmd(nil), i...)
	for len(h) > 0 && len(i) > 0 {
		head := h[0]
		j := indexOf(i, head)
		if j >= 0 {
			// head ∈ I: it is part of the common prefix iff no command
			// conflicting with head occurs in I before head.
			conflictBefore := false
			for k := 0; k < j; k++ {
				if conflict(head, i[k]) {
					conflictBefore = true
					break
				}
			}
			if !conflictBefore {
				out = append(out, head)
				h = h[1:]
				i = remove(i, head)
				continue
			}
		}
		// head is not part of the common prefix: drop it together with its
		// conflict-descendants in H (they cannot precede head's absence).
		desc := descendants(conflict, head, h[1:])
		next := make([]Cmd, 0, len(h)-1)
		for j, x := range h[1:] {
			if !desc[j] {
				next = append(next, x)
			}
		}
		h = next
	}
	return out
}

// compatible implements the AreCompatible(H, I, A) operator of
// Section 3.3.1, deciding whether two histories have a common upper bound.
func compatible(conflict Conflict, h, i []Cmd) bool {
	h = append([]Cmd(nil), h...)
	i = append([]Cmd(nil), i...)
	var skipped []Cmd // the accumulator A: heads of H absent from I
	for len(h) > 0 && len(i) > 0 {
		head := h[0]
		j := indexOf(i, head)
		// Incompatible if some command conflicting with head occurs in I
		// before head's own occurrence (or anywhere, if head ∉ I).
		limit := len(i)
		if j >= 0 {
			limit = j
		}
		for k := 0; k < limit; k++ {
			if conflict(head, i[k]) {
				return false
			}
		}
		if j >= 0 {
			// head ∈ I but some already-skipped H-predecessor conflicts
			// with it: the two histories order them oppositely.
			for _, f := range skipped {
				if conflict(head, f) {
					return false
				}
			}
			h = h[1:]
			i = remove(i, head)
			continue
		}
		skipped = append(skipped, head)
		h = h[1:]
	}
	// Remaining elements of I must not conflict with skipped H-elements:
	// H orders skipped-before-nothing while I would force the opposite.
	for _, x := range i {
		for _, f := range skipped {
			if conflict(x, f) {
				return false
			}
		}
	}
	return true
}

// lub merges two compatible histories (the ⊔ operator of Section 3.3.1):
// consume H in order, matching elements out of I, then append I's leftover.
func lub(h, i []Cmd) []Cmd {
	i = append([]Cmd(nil), i...)
	out := make([]Cmd, 0, len(h)+len(i))
	for _, head := range h {
		out = append(out, head)
		i = remove(i, head)
	}
	out = append(out, i...)
	return out
}

// Name implements Set.
func (HistorySet) Name() string { return "history" }

// Bottom implements Set.
func (s HistorySet) Bottom() CStruct { return History{conflict: s.conflict} }

func asHistory(v CStruct) History {
	h, ok := v.(History)
	if !ok {
		panic("cstruct: HistorySet operation on foreign c-struct")
	}
	return h
}

// Equal implements Set: same command set and same relative order of every
// conflicting pair.
func (s HistorySet) Equal(v, w CStruct) bool {
	a, b := asHistory(v), asHistory(w)
	if len(a.seq) != len(b.seq) {
		return false
	}
	return len(prefix(s.conflict, a.seq, b.seq)) == len(a.seq)
}

// Extends implements Set: v ⊑ w iff v = v ⊓ w, i.e. the common prefix of v
// and w is all of v.
func (s HistorySet) Extends(v, w CStruct) bool {
	a, b := asHistory(v), asHistory(w)
	if len(a.seq) > len(b.seq) {
		return false
	}
	return len(prefix(s.conflict, a.seq, b.seq)) == len(a.seq)
}

// GLB implements Set by iterated pairwise Prefix.
func (s HistorySet) GLB(vs ...CStruct) CStruct {
	if len(vs) == 0 {
		return s.Bottom()
	}
	acc := asHistory(vs[0]).seq
	for _, v := range vs[1:] {
		acc = prefix(s.conflict, acc, asHistory(v).seq)
	}
	return History{seq: acc, conflict: s.conflict}
}

// Compatible implements Set by pairwise AreCompatible. Pairwise
// compatibility suffices by axiom CS3 (checked in axioms_test.go).
func (s HistorySet) Compatible(vs ...CStruct) bool {
	for i := range vs {
		for j := i + 1; j < len(vs); j++ {
			if !compatible(s.conflict, asHistory(vs[i]).seq, asHistory(vs[j]).seq) {
				return false
			}
		}
	}
	return true
}

// LUB implements Set by iterated pairwise merge, guarded by Compatible.
func (s HistorySet) LUB(vs ...CStruct) (CStruct, bool) {
	if !s.Compatible(vs...) {
		return nil, false
	}
	acc := []Cmd{}
	for _, v := range vs {
		acc = lub(acc, asHistory(v).seq)
	}
	return History{seq: acc, conflict: s.conflict}, true
}
