package cstruct

// CStruct is one command structure: an element of a c-struct set. Values are
// immutable; Append returns a new c-struct and never mutates the receiver.
type CStruct interface {
	// Append returns v • C, the c-struct extended with command c.
	Append(c Cmd) CStruct
	// Contains reports whether the c-struct contains command c.
	Contains(c Cmd) bool
	// Len is the number of commands contained in the c-struct.
	Len() int
	// Commands returns one command sequence σ such that ⊥ • σ reconstructs
	// this c-struct. Callers must not mutate the returned slice.
	Commands() []Cmd
	// String renders the c-struct for diagnostics.
	String() string
}

// Set is a c-struct set: the bottom element together with the lattice
// operations the Paxos family needs. Implementations must satisfy axioms
// CS0-CS4 of the paper (property-checked in axioms_test.go).
type Set interface {
	// Name identifies the c-struct set, for diagnostics.
	Name() string
	// Bottom returns ⊥, the empty c-struct.
	Bottom() CStruct
	// Extends reports v ⊑ w: w is an extension of v (∃σ: w = v • σ).
	Extends(v, w CStruct) bool
	// Equal reports whether v and w are the same c-struct.
	Equal(v, w CStruct) bool
	// GLB returns the greatest lower bound ⊓vs. GLB of an empty slice is ⊥.
	GLB(vs ...CStruct) CStruct
	// Compatible reports whether vs have a common upper bound.
	Compatible(vs ...CStruct) bool
	// LUB returns the least upper bound ⊔vs and true, or nil and false if
	// the c-structs are incompatible. LUB of an empty slice is ⊥.
	LUB(vs ...CStruct) (CStruct, bool)
}

// AppendSeq returns v • σ for the command sequence σ.
func AppendSeq(v CStruct, seq []Cmd) CStruct {
	for _, c := range seq {
		v = v.Append(c)
	}
	return v
}
