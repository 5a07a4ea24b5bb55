// Package cstruct implements the command-structure (c-struct) framework of
// Generalized Consensus as defined by Lamport ("Generalized Consensus and
// Paxos", MSR-TR-2005-33) and used by Multicoordinated Paxos (Camargos,
// Schmidt, Pedone, TR 2007/02, Section 2.3 and 3.3).
//
// A c-struct set is defined by a bottom element ⊥, a set of commands Cmd, an
// append operator • and five axioms CS0-CS4. This package provides three
// concrete c-struct sets:
//
//   - SingleValueSet: the consensus c-struct set (⊥ or exactly one command).
//   - CmdSetSet: c-structs are sets of commands (a distributive lattice).
//   - HistorySet: command histories — partially ordered sets of commands
//     where only conflicting commands are ordered (Section 3.3.1 of the
//     paper). This is the c-struct set used for Generic Broadcast.
//
// All operations are pure: they never mutate their receivers and always
// return fresh values, so c-structs can be shared freely across goroutines.
package cstruct

import (
	"bytes"
	"strconv"
	"strings"
)

// OpKind classifies a command for built-in conflict relations.
type OpKind uint8

// Operation kinds. Start at one so the zero value is detectably unset.
const (
	_ OpKind = iota
	OpRead
	OpWrite
)

// Cmd is a proposed command and the value an instance decides. Two commands
// are one value only if they are Equal: an ID alone does not tell, since two
// batches headed by one command share it (batch.BatchID). Key and Op let
// conflict relations see what a command touches; Payload is opaque.
type Cmd struct {
	ID      uint64
	Key     string
	Op      OpKind
	Payload []byte
}

// Equal reports whether c and d are one value: same ID, Key, Op and Payload
// (nil and empty payloads are one). It is the only equality over values.
func (c Cmd) Equal(d Cmd) bool {
	return c.ID == d.ID && c.Key == d.Key && c.Op == d.Op && bytes.Equal(c.Payload, d.Payload)
}

// String renders a short human-readable form of the command.
func (c Cmd) String() string {
	var b strings.Builder
	b.WriteString("c")
	b.WriteString(strconv.FormatUint(c.ID, 10))
	if c.Key != "" {
		b.WriteString("(")
		switch c.Op {
		case OpRead:
			b.WriteString("r:")
		case OpWrite:
			b.WriteString("w:")
		}
		b.WriteString(c.Key)
		b.WriteString(")")
	}
	return b.String()
}

// Conflict is a symmetric, irreflexive interference relation over commands.
// Two commands that conflict must be ordered the same way by all learners;
// commands that do not conflict may be learned in different orders.
type Conflict func(a, b Cmd) bool

// AlwaysConflict orders every pair of distinct (not Equal) commands: command
// histories under it degenerate to totally ordered sequences (total order
// broadcast).
func AlwaysConflict(a, b Cmd) bool { return !a.Equal(b) }

// NeverConflict lets every pair of commands commute: command histories
// degenerate to command sets (reliable broadcast).
func NeverConflict(a, b Cmd) bool { return false }

// KeyConflict orders two distinct (not Equal) commands iff they touch the
// same key, as two batches headed by one command do.
func KeyConflict(a, b Cmd) bool { return a.Key == b.Key && !a.Equal(b) }
