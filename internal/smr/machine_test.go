package smr

import (
	"bytes"
	"testing"

	"mcpaxos/internal/wire"
)

// durables builds one empty instance of each DurableMachine.
var durables = map[string]func() DurableMachine{
	"kv":   func() DurableMachine { return NewKVStore() },
	"bank": func() DurableMachine { return NewBank() },
}

// TestRestoreStateRejectsOversizedCount: a key count the input cannot hold is
// corruption, refused before it sizes an allocation.
func TestRestoreStateRejectsOversizedCount(t *testing.T) {
	state := wire.AppendUvarint(nil, 1<<62)
	for name, build := range durables {
		if err := build().RestoreState(state); err == nil {
			t.Errorf("%s: restored a state claiming 2^62 keys from %d bytes", name, len(state))
		}
	}
}

// FuzzMachineState feeds arbitrary bytes to both machines' RestoreState. It
// must never panic; a state it accepts restores, once re-marshalled, to the
// same Snapshot(), and since the form is canonical the re-marshal is the
// input itself.
func FuzzMachineState(f *testing.F) {
	kv := NewKVStore()
	kv.Apply(SetCmd(1, "a", "1"))
	kv.Apply(SetCmd(2, "b", ""))
	bank := NewBank()
	bank.Apply(DepositCmd(1, "x", 5))
	bank.Apply(DepositCmd(2, "y", -7))
	f.Add(kv.MarshalState())
	f.Add(bank.MarshalState())
	f.Add([]byte{0})
	f.Add([]byte{})
	f.Add([]byte{2, 1, 'b', 0, 1, 'a', 0}) // keys out of order
	f.Add(wire.AppendUvarint(nil, 1<<62))

	f.Fuzz(func(t *testing.T, data []byte) {
		for name, build := range durables {
			m := build()
			if m.RestoreState(data) != nil {
				continue
			}
			re := m.MarshalState()
			again := build()
			if err := again.RestoreState(re); err != nil {
				t.Fatalf("%s: re-marshalled state does not restore: %v", name, err)
			}
			if again.Snapshot() != m.Snapshot() {
				t.Fatalf("%s: re-marshal changed the state:\n in  %s\n out %s", name, m.Snapshot(), again.Snapshot())
			}
			if !bytes.Equal(re, data) {
				t.Fatalf("%s: accepted state is not canonical:\n in  % x\n out % x", name, data, re)
			}
		}
	})
}
