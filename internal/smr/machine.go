// Package smr provides state-machine replication on top of the consensus
// and generic broadcast protocols: deterministic machines apply the learned
// command structure, so all replicas converge to the same state. This is the
// application layer the paper motivates ("one of the most important
// applications of consensus algorithms", abstract).
//
// A Replica applies each learned command once and is the one owner of its
// apply order, kept as command IDs; Replica.Install adopts a snapshot
// (internal/snapshot) in one step. A Merger restores one total order over a
// sharded instance space, and a ReplyCache replays recent apply results to
// clients whose replies were lost, exporting its records as snapshot.Reply.
package smr

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"sync"

	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/wire"
)

// Machine is a deterministic state machine. For generic broadcast
// deployments, Apply must commute for commands the conflict relation leaves
// unordered.
type Machine interface {
	// Apply executes a command and returns its result.
	Apply(cmd cstruct.Cmd) string
	// Snapshot renders the full state deterministically, for comparing
	// replicas.
	Snapshot() string
}

// DurableMachine extends Machine with binary state marshalling, the hook
// the snapshot subsystem uses to cut and install state snapshots: a learner
// restarted below the compaction watermark restores the marshalled state
// and replays only the log suffix.
type DurableMachine interface {
	Machine
	// MarshalState renders the full state as opaque bytes.
	MarshalState() []byte
	// RestoreState replaces the state with one produced by MarshalState.
	RestoreState(data []byte) error
}

// KV op kinds, encoded in Cmd.Payload[0].
const (
	KVSet byte = iota + 1
	KVDel
	KVGet
)

// KV read results: a found key applies to "=<value>", a missing key to
// KVMissing. Writes and deletes apply to "ok". The sentinel cannot collide
// with a found value, which always starts with '='.
const KVMissing = "#missing"

// KVStore is a replicated key-value map. Commands on different keys
// commute; use cstruct.KeyConflict (or RWConflict) as the conflict
// relation.
type KVStore struct {
	mu   sync.Mutex
	data map[string]string
}

var _ Machine = (*KVStore)(nil)

// NewKVStore builds an empty store.
func NewKVStore() *KVStore { return &KVStore{data: make(map[string]string)} }

// SetCmd builds a command writing value to key.
func SetCmd(id uint64, key, value string) cstruct.Cmd {
	return cstruct.Cmd{
		ID: id, Key: key, Op: cstruct.OpWrite,
		Payload: append([]byte{KVSet}, []byte(value)...),
	}
}

// DelCmd builds a command deleting key.
func DelCmd(id uint64, key string) cstruct.Cmd {
	return cstruct.Cmd{ID: id, Key: key, Op: cstruct.OpWrite, Payload: []byte{KVDel}}
}

// GetCmd builds a command reading key through consensus: the read is
// serialized against the writes like any other command, so its result is
// linearizable — the read path the nemesis history checker exercises.
func GetCmd(id uint64, key string) cstruct.Cmd {
	return cstruct.Cmd{ID: id, Key: key, Op: cstruct.OpRead, Payload: []byte{KVGet}}
}

// Apply implements Machine.
func (s *KVStore) Apply(cmd cstruct.Cmd) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(cmd.Payload) == 0 {
		return "err:empty"
	}
	switch cmd.Payload[0] {
	case KVSet:
		s.data[cmd.Key] = string(cmd.Payload[1:])
		return "ok"
	case KVDel:
		delete(s.data, cmd.Key)
		return "ok"
	case KVGet:
		if v, ok := s.data[cmd.Key]; ok {
			return "=" + v
		}
		return KVMissing
	default:
		return "err:opcode"
	}
}

// Get reads a key (local, not linearizable).
func (s *KVStore) Get(key string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.data[key]
	return v, ok
}

// Snapshot implements Machine.
func (s *KVStore) Snapshot() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var b strings.Builder
	for _, k := range sortedKeys(s.data) {
		fmt.Fprintf(&b, "%s=%s;", k, s.data[k])
	}
	return b.String()
}

// MarshalState implements DurableMachine: the key/value pairs in the state
// form of appendState, each value a string.
func (s *KVStore) MarshalState() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return appendState(s.data, wire.AppendString)
}

// RestoreState implements DurableMachine, replacing the store's contents.
func (s *KVStore) RestoreState(data []byte) error {
	m, err := readState(data, func(r *wire.Reader) string { return r.String("kv value") })
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.data = m
	return nil
}

var _ DurableMachine = (*KVStore)(nil)

// Bank op kinds, encoded in Cmd.Payload[0].
const (
	BankDeposit byte = iota + 1
	BankWithdraw
)

// Bank is a replicated set of integer accounts; the account is the command
// key, so operations on different accounts commute under KeyConflict, and
// deposits to the same account commute too (they are modelled as reads for
// RW-style relations would be wrong — use KeyConflict for strict ordering
// per account, or a custom relation for commuting deposits).
type Bank struct {
	mu       sync.Mutex
	balances map[string]int64
}

var _ Machine = (*Bank)(nil)

// NewBank builds an empty bank.
func NewBank() *Bank { return &Bank{balances: make(map[string]int64)} }

// DepositCmd builds a deposit command.
func DepositCmd(id uint64, account string, amount int64) cstruct.Cmd {
	return cstruct.Cmd{ID: id, Key: account, Op: cstruct.OpWrite,
		Payload: bankPayload(BankDeposit, amount)}
}

// WithdrawCmd builds a withdrawal command (rejected when underfunded).
func WithdrawCmd(id uint64, account string, amount int64) cstruct.Cmd {
	return cstruct.Cmd{ID: id, Key: account, Op: cstruct.OpWrite,
		Payload: bankPayload(BankWithdraw, amount)}
}

func bankPayload(op byte, amount int64) []byte {
	out := make([]byte, 9)
	out[0] = op
	binary.BigEndian.PutUint64(out[1:], uint64(amount))
	return out
}

// Apply implements Machine.
func (b *Bank) Apply(cmd cstruct.Cmd) string {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(cmd.Payload) != 9 {
		return "err:payload"
	}
	amount := int64(binary.BigEndian.Uint64(cmd.Payload[1:]))
	switch cmd.Payload[0] {
	case BankDeposit:
		b.balances[cmd.Key] += amount
		return "ok"
	case BankWithdraw:
		if b.balances[cmd.Key] < amount {
			return "err:funds"
		}
		b.balances[cmd.Key] -= amount
		return "ok"
	default:
		return "err:opcode"
	}
}

// Balance reads an account balance (local).
func (b *Bank) Balance(account string) int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.balances[account]
}

// Snapshot implements Machine.
func (b *Bank) Snapshot() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	var sb strings.Builder
	for _, k := range sortedKeys(b.balances) {
		fmt.Fprintf(&sb, "%s=%d;", k, b.balances[k])
	}
	return sb.String()
}

// MarshalState implements DurableMachine: the balances in the state form of
// appendState, each a varint of the balance's two's-complement bits.
func (b *Bank) MarshalState() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return appendState(b.balances, func(dst []byte, v int64) []byte { return wire.AppendUvarint(dst, uint64(v)) })
}

// RestoreState implements DurableMachine.
func (b *Bank) RestoreState(data []byte) error {
	m, err := readState(data, func(r *wire.Reader) int64 { return int64(r.Uvarint("balance")) })
	if err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.balances = m
	return nil
}

var _ DurableMachine = (*Bank)(nil)

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// appendState renders a machine's map in the one state form both machines
// share, built from package wire's layouts: the key count, then each key as
// a string followed by its value as val appends it, keys in ascending order
// so replicas with equal contents marshal equal bytes.
func appendState[V any](m map[string]V, val func([]byte, V) []byte) []byte {
	out := wire.AppendUvarint(nil, uint64(len(m)))
	for _, k := range sortedKeys(m) {
		out = val(wire.AppendString(out, k), m[k])
	}
	return out
}

// readState parses appendState's form, reading each value with val. Like
// every wire layout it is canonical: keys must ascend strictly, and the
// count is checked against the input before anything is allocated.
func readState[V any](data []byte, val func(*wire.Reader) V) (map[string]V, error) {
	r := &wire.Reader{B: data}
	n := r.Count("state key count", 2) // a key length and a value byte at least
	m := make(map[string]V, n)
	prev := ""
	for i := 0; i < n && r.Err == nil; i++ {
		k := r.String("state key")
		if i > 0 && k <= prev {
			r.Fail("state key order")
		}
		m[k], prev = val(r), k
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("smr: malformed machine state: %w", err)
	}
	return m, nil
}
