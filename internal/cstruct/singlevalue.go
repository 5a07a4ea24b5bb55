package cstruct

// SingleValueSet is the consensus c-struct set: a c-struct is either ⊥ or a
// single command, and appending to a non-⊥ c-struct is a no-op. Generalized
// Consensus over this set is exactly classic consensus (Section 2.3.2 of the
// paper), which is how the consensus protocols in this repository are
// expressed as special cases of the generalized engine.
type SingleValueSet struct{}

var _ Set = SingleValueSet{}

// SingleValue is a c-struct of SingleValueSet.
type SingleValue struct {
	set bool
	cmd Cmd
}

var _ CStruct = SingleValue{}

// NewSingleValue returns the c-struct holding exactly command c.
func NewSingleValue(c Cmd) SingleValue { return SingleValue{set: true, cmd: c} }

// Value returns the held command; ok is false for ⊥.
func (v SingleValue) Value() (Cmd, bool) { return v.cmd, v.set }

// Append returns v • c: c if v is ⊥, otherwise v unchanged.
func (v SingleValue) Append(c Cmd) CStruct {
	if v.set {
		return v
	}
	return SingleValue{set: true, cmd: c}
}

// Contains reports whether v holds exactly c.
func (v SingleValue) Contains(c Cmd) bool { return v.set && v.cmd.Equal(c) }

// Len is 0 for ⊥ and 1 otherwise.
func (v SingleValue) Len() int {
	if v.set {
		return 1
	}
	return 0
}

// Commands returns the commands of v.
func (v SingleValue) Commands() []Cmd {
	if !v.set {
		return nil
	}
	return []Cmd{v.cmd}
}

// String renders v.
func (v SingleValue) String() string {
	if !v.set {
		return "⊥"
	}
	return v.cmd.String()
}

// Name implements Set.
func (SingleValueSet) Name() string { return "single-value" }

// Bottom implements Set.
func (SingleValueSet) Bottom() CStruct { return SingleValue{} }

func asSingle(v CStruct) SingleValue {
	sv, ok := v.(SingleValue)
	if !ok {
		panic("cstruct: SingleValueSet operation on foreign c-struct")
	}
	return sv
}

// Equal implements Set.
func (SingleValueSet) Equal(v, w CStruct) bool {
	a, b := asSingle(v), asSingle(w)
	return a.set == b.set && (!a.set || a.cmd.Equal(b.cmd))
}

// Extends implements Set: v ⊑ w.
func (s SingleValueSet) Extends(v, w CStruct) bool {
	a := asSingle(v)
	if !a.set {
		return true
	}
	return s.Equal(v, w)
}

// GLB implements Set.
func (s SingleValueSet) GLB(vs ...CStruct) CStruct {
	if len(vs) == 0 {
		return SingleValue{}
	}
	first := asSingle(vs[0])
	for _, v := range vs[1:] {
		if !s.Equal(first, asSingle(v)) {
			return SingleValue{}
		}
	}
	return first
}

// Compatible implements Set: compatible iff all non-⊥ members are equal.
func (s SingleValueSet) Compatible(vs ...CStruct) bool {
	_, ok := s.LUB(vs...)
	return ok
}

// LUB implements Set.
func (s SingleValueSet) LUB(vs ...CStruct) (CStruct, bool) {
	out := SingleValue{}
	for _, v := range vs {
		sv := asSingle(v)
		if !sv.set {
			continue
		}
		if out.set && !out.cmd.Equal(sv.cmd) {
			return nil, false
		}
		out = sv
	}
	return out, true
}
