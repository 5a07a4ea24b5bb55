package cstruct

import (
	"strings"
	"testing"
)

func cmd(id uint64) Cmd { return Cmd{ID: id} }

func kcmd(id uint64, key string, op OpKind) Cmd { return Cmd{ID: id, Key: key, Op: op} }

// sameHead returns two batch-like commands that share an ID — as two batches
// headed by one command do (batch.BatchID) — but hold different commands.
func sameHead() (a, b Cmd) {
	a = Cmd{ID: 1<<63 | 7, Key: "\x00batch", Op: OpWrite, Payload: []byte{0xB7, 1, 7}}
	b = Cmd{ID: 1<<63 | 7, Key: "\x00batch", Op: OpWrite, Payload: []byte{0xB7, 1, 8}}
	return a, b
}

func TestCmdEqual(t *testing.T) {
	a := Cmd{ID: 1, Key: "x", Op: OpWrite, Payload: []byte("v")}
	same := Cmd{ID: 1, Key: "x", Op: OpWrite, Payload: []byte("v")}
	if !a.Equal(same) {
		t.Errorf("commands with equal fields must be equal")
	}
	if !(Cmd{ID: 1}).Equal(Cmd{ID: 1, Payload: []byte{}}) {
		t.Errorf("a nil and an empty payload must compare equal")
	}
	ha, hb := sameHead()
	for name, d := range map[string]Cmd{
		"id":      {ID: 2, Key: "x", Op: OpWrite, Payload: []byte("v")},
		"key":     {ID: 1, Key: "y", Op: OpWrite, Payload: []byte("v")},
		"op":      {ID: 1, Key: "x", Op: OpRead, Payload: []byte("v")},
		"payload": {ID: 1, Key: "x", Op: OpWrite, Payload: []byte("w")},
	} {
		if a.Equal(d) || d.Equal(a) {
			t.Errorf("commands differing in %s must differ", name)
		}
	}
	if ha.Equal(hb) {
		t.Errorf("two batches headed by one command must differ: %v % x vs %v % x", ha, ha.Payload, hb, hb.Payload)
	}
}

// TestConflictSameHead pins that the conflict relations tell distinct
// commands apart by content: two batches headed by one command share an ID
// and the batch key, so every relation that orders distinct same-key
// commands orders them.
func TestConflictSameHead(t *testing.T) {
	a, b := sameHead()
	for name, rel := range map[string]Conflict{"always": AlwaysConflict, "key": KeyConflict, "rw": RWConflict} {
		if !rel(a, b) || !rel(b, a) {
			t.Errorf("%s: two batches headed by one command must conflict", name)
		}
		if rel(a, a) {
			t.Errorf("%s: conflict relation must be irreflexive", name)
		}
	}
}

// TestContainsSameHead pins that membership is by value: a c-struct holding
// one command does not contain another command under the same ID.
func TestContainsSameHead(t *testing.T) {
	a, b := sameHead()
	for name, v := range map[string]CStruct{
		"single-value": NewSingleValue(a),
		"history":      NewHistorySet(KeyConflict).NewHistory(a),
		"cmd-set":      NewCmdSet(a),
	} {
		if !v.Contains(a) {
			t.Errorf("%s: must contain the command it holds", name)
		}
		if v.Contains(b) {
			t.Errorf("%s: must not contain another command under the same ID", name)
		}
	}
	sv := SingleValueSet{}
	if sv.Equal(NewSingleValue(a), NewSingleValue(b)) || sv.Compatible(NewSingleValue(a), NewSingleValue(b)) {
		t.Errorf("single values of two batches headed by one command must be distinct and incompatible")
	}
	if ConstructibleFrom(NewSingleValue(a), []Cmd{b}) {
		t.Errorf("a value must not be constructible from another command under its ID")
	}
}

func TestAlwaysConflict(t *testing.T) {
	a, b := cmd(1), cmd(2)
	if !AlwaysConflict(a, b) {
		t.Errorf("distinct commands must conflict")
	}
	if AlwaysConflict(a, a) {
		t.Errorf("conflict relation must be irreflexive")
	}
}

func TestNeverConflict(t *testing.T) {
	if NeverConflict(cmd(1), cmd(2)) {
		t.Errorf("NeverConflict must never conflict")
	}
}

func TestKeyConflict(t *testing.T) {
	ax := kcmd(1, "x", OpWrite)
	bx := kcmd(2, "x", OpRead)
	cy := kcmd(3, "y", OpWrite)
	if !KeyConflict(ax, bx) {
		t.Errorf("same-key commands must conflict")
	}
	if KeyConflict(ax, cy) {
		t.Errorf("different-key commands must not conflict")
	}
	if KeyConflict(ax, ax) {
		t.Errorf("conflict relation must be irreflexive")
	}
}

func TestRWConflict(t *testing.T) {
	r1 := kcmd(1, "x", OpRead)
	r2 := kcmd(2, "x", OpRead)
	w1 := kcmd(3, "x", OpWrite)
	w2 := kcmd(4, "y", OpWrite)
	if RWConflict(r1, r2) {
		t.Errorf("two reads of the same key commute")
	}
	if !RWConflict(r1, w1) {
		t.Errorf("read-write on the same key must conflict")
	}
	if !RWConflict(w1, Cmd{ID: 9, Key: "x", Op: OpWrite}) {
		t.Errorf("write-write on the same key must conflict")
	}
	if RWConflict(w1, w2) {
		t.Errorf("writes to different keys commute")
	}
}

func TestConflictSymmetry(t *testing.T) {
	cmds := []Cmd{
		kcmd(1, "x", OpRead), kcmd(2, "x", OpWrite),
		kcmd(3, "y", OpRead), kcmd(4, "y", OpWrite),
	}
	rels := map[string]Conflict{
		"always": AlwaysConflict, "never": NeverConflict,
		"key": KeyConflict, "rw": RWConflict,
	}
	for name, rel := range rels {
		for _, a := range cmds {
			for _, b := range cmds {
				if rel(a, b) != rel(b, a) {
					t.Errorf("%s: conflict(%v,%v) not symmetric", name, a, b)
				}
			}
		}
	}
}

func TestCmdString(t *testing.T) {
	if got := cmd(7).String(); got != "c7" {
		t.Errorf("String() = %q, want c7", got)
	}
	if got := kcmd(7, "x", OpWrite).String(); !strings.Contains(got, "w:x") {
		t.Errorf("String() = %q, want op and key rendered", got)
	}
	if got := FmtCmds([]Cmd{cmd(1), cmd(2)}); got != "⟨c1,c2⟩" {
		t.Errorf("FmtCmds = %q", got)
	}
}

func TestConstructibleFrom(t *testing.T) {
	s := NewHistorySet(AlwaysConflict)
	h := s.NewHistory(cmd(1), cmd(2))
	if !ConstructibleFrom(h, []Cmd{cmd(1), cmd(2), cmd(3)}) {
		t.Errorf("history over {1,2} must be constructible from {1,2,3}")
	}
	if ConstructibleFrom(h, []Cmd{cmd(1)}) {
		t.Errorf("history over {1,2} must not be constructible from {1}")
	}
}

func TestAppendSeq(t *testing.T) {
	s := SingleValueSet{}
	v := AppendSeq(s.Bottom(), []Cmd{cmd(1), cmd(2)})
	if !v.Contains(cmd(1)) || v.Contains(cmd(2)) {
		t.Errorf("single-value append sequence must keep only the first command, got %v", v)
	}
}
