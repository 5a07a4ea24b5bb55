package cstruct

// Accessors and helpers that only this package's tests use: no shipped code
// reads them.

import (
	"fmt"
	"slices"
	"strings"
)

// RWConflict orders two distinct (not Equal) commands iff they touch the same
// key and at least one of them is a write. Two reads of the same key commute.
func RWConflict(a, b Cmd) bool {
	return a.Key == b.Key && (a.Op == OpWrite || b.Op == OpWrite) && !a.Equal(b)
}

// FmtCmds renders a command slice compactly, for diagnostics.
func FmtCmds(cs []Cmd) string {
	parts := make([]string, len(cs))
	for i, c := range cs {
		parts[i] = c.String()
	}
	return fmt.Sprintf("⟨%s⟩", strings.Join(parts, ","))
}

// NewCmdSet returns a CmdSet containing the given commands.
func NewCmdSet(cs ...Cmd) CmdSet {
	m := make(map[uint64]Cmd, len(cs))
	for _, c := range cs {
		m[c.ID] = c
	}
	return CmdSet{cmds: m}
}

// ConstructibleFrom reports whether v is constructible from commands drawn
// from pool: every command contained in v appears in pool. This is the
// Str(P) membership test used by the Nontriviality property.
func ConstructibleFrom(v CStruct, pool []Cmd) bool {
	for _, c := range v.Commands() {
		if !slices.ContainsFunc(pool, c.Equal) {
			return false
		}
	}
	return true
}

// Conflict returns the conflict relation of the set.
func (s HistorySet) Conflict() Conflict { return s.conflict }

// NewHistory builds a history by appending seq to ⊥ of set s.
func (s HistorySet) NewHistory(seq ...Cmd) History {
	h := History{conflict: s.conflict}
	for _, c := range seq {
		h = h.append(c)
	}
	return h
}

// IsBottom reports whether the c-struct is ⊥.
func (v SingleValue) IsBottom() bool { return !v.set }
