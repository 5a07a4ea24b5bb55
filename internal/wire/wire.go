// Package wire defines the byte layouts every serialization in the repo is
// built from — the transport's message frames, the WAL's stable records, the
// learners' state snapshots, the machine states inside them and the batch
// commands inside all of these — so that an integer, a ballot and a command
// each have exactly one encoding:
//
//   - integers are unsigned LEB128 varints, minimally encoded;
//   - a ballot is four varints (MCount, MinCount, ID, RType);
//   - a command is varint ID, length-prefixed key, one Op byte and a
//     length-prefixed payload;
//   - strings, byte sections and command sequences carry a varint length or
//     count first.
//
// Encoding appends to a caller-owned slice and never allocates beyond it.
// Decoding goes through Reader, whose reads are bounds-checked and whose
// error is sticky: arbitrary input can neither panic nor allocate more than
// a constant factor of its own length. The layouts are canonical — one byte
// string per value — so a decoder built on Reader accepts only what the
// matching encoder emits.
//
// What reaches a disk is one frame (frame.go): a WAL record batch, a WAL
// index snapshot and a learner snapshot are each a checksummed payload
// behind the same 8-byte header.
package wire

import (
	"fmt"
	"math"
	"math/bits"

	"mcpaxos/internal/ballot"
	"mcpaxos/internal/cstruct"
)

// AppendUvarint appends v as an unsigned varint.
func AppendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// AppendBallot appends b as four varints.
func AppendBallot(dst []byte, b ballot.Ballot) []byte {
	dst = AppendUvarint(dst, uint64(b.MCount))
	dst = AppendUvarint(dst, uint64(b.MinCount))
	dst = AppendUvarint(dst, uint64(b.ID))
	return AppendUvarint(dst, uint64(b.RType))
}

// AppendString appends s as a length-prefixed section.
func AppendString(dst []byte, s string) []byte {
	dst = AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendBytes appends b as a length-prefixed section.
func AppendBytes(dst, b []byte) []byte {
	dst = AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// AppendCmd appends one command.
func AppendCmd(dst []byte, c cstruct.Cmd) []byte {
	dst = AppendUvarint(dst, c.ID)
	dst = AppendString(dst, c.Key)
	dst = append(dst, byte(c.Op))
	return AppendBytes(dst, c.Payload)
}

// AppendCmds appends a counted command sequence.
func AppendCmds(dst []byte, cs []cstruct.Cmd) []byte {
	dst = AppendUvarint(dst, uint64(len(cs)))
	for _, c := range cs {
		dst = AppendCmd(dst, c)
	}
	return dst
}

// CmdsSize is the exact length AppendCmds appends for cs, so an encoder can
// size its buffer once.
func CmdsSize(cs []cstruct.Cmd) int {
	n := uvarintSize(uint64(len(cs)))
	for _, c := range cs {
		n += uvarintSize(c.ID) + uvarintSize(uint64(len(c.Key))) + len(c.Key) +
			1 + uvarintSize(uint64(len(c.Payload))) + len(c.Payload)
	}
	return n
}

// uvarintSize is the length AppendUvarint appends for v: one byte per seven
// significant bits, and one for zero.
func uvarintSize(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// Reader walks an encoded buffer. After the first failed read every further
// read returns a zero value and Err keeps the first failure, so a decoder
// reads a whole structure and checks once, with Finish. Everything a read
// returns is copied out of B: the buffer may be pooled scratch.
type Reader struct {
	B   []byte // the bytes not yet consumed
	Err error  // the first failure, if any
}

// Fail records a decode failure at the field named what.
func (r *Reader) Fail(what string) {
	if r.Err == nil {
		r.Err = fmt.Errorf("truncated or invalid %s", what)
	}
}

// Finish ends a decode: the sticky error if any read failed, and otherwise
// an error if bytes remain — they are corruption, not padding.
func (r *Reader) Finish() error {
	if r.Err == nil && len(r.B) != 0 {
		r.Err = fmt.Errorf("%d trailing bytes", len(r.B))
	}
	return r.Err
}

// Uvarint reads one varint, rejecting truncated, overlong (more than 64
// bits) and non-minimal (a trailing zero group) encodings.
func (r *Reader) Uvarint(what string) uint64 {
	if r.Err != nil {
		return 0
	}
	var v uint64
	for i := 0; i < len(r.B) && i < 10; i++ {
		c := r.B[i]
		if i == 9 && c > 1 {
			break
		}
		v |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			if c == 0 && i > 0 {
				break
			}
			r.B = r.B[i+1:]
			return v
		}
	}
	r.Fail(what)
	return 0
}

// U32 reads a varint that must fit 32 bits.
func (r *Reader) U32(what string) uint32 {
	v := r.Uvarint(what)
	if v > math.MaxUint32 {
		r.Fail(what)
		return 0
	}
	return uint32(v)
}

// Byte reads one raw byte.
func (r *Reader) Byte(what string) byte {
	if r.Err != nil {
		return 0
	}
	if len(r.B) == 0 {
		r.Fail(what)
		return 0
	}
	c := r.B[0]
	r.B = r.B[1:]
	return c
}

// Count reads the element count of a section whose elements each take at
// least elemMin encoded bytes. A larger count than the remaining input
// could hold is corrupt, and rejecting it before the caller allocates
// bounds that allocation by the input's own length.
func (r *Reader) Count(what string, elemMin int) int {
	n := r.Uvarint(what)
	if n > uint64(len(r.B)/elemMin) {
		r.Fail(what)
		return 0
	}
	return int(n)
}

// section consumes a length-prefixed run of bytes without copying it.
func (r *Reader) section(what string) []byte {
	n := r.Count(what, 1)
	s := r.B[:n]
	r.B = r.B[n:]
	return s
}

// Bytes reads a length-prefixed byte section; an empty one is nil.
func (r *Reader) Bytes(what string) []byte {
	s := r.section(what)
	if len(s) == 0 {
		return nil
	}
	return append([]byte(nil), s...)
}

// String reads a length-prefixed string.
func (r *Reader) String(what string) string { return string(r.section(what)) }

// Ballot reads four 32-bit varints.
func (r *Reader) Ballot() ballot.Ballot {
	return ballot.Ballot{
		MCount:   r.U32("ballot"),
		MinCount: r.U32("ballot"),
		ID:       r.U32("ballot"),
		RType:    r.U32("ballot"),
	}
}

// Cmd reads one command.
func (r *Reader) Cmd() cstruct.Cmd { return r.cmd(true) }

// Cmds reads a counted command sequence; an empty one is nil.
func (r *Reader) Cmds() []cstruct.Cmd { return r.cmds(true) }

// CmdMetas reads a counted command sequence as Cmds does but skips every
// payload, leaving it nil: the ID, Key and Op of each command without a
// payload copy apiece.
func (r *Reader) CmdMetas() []cstruct.Cmd { return r.cmds(false) }

func (r *Reader) cmd(payload bool) cstruct.Cmd {
	c := cstruct.Cmd{
		ID:  r.Uvarint("cmd id"),
		Key: r.String("cmd key"),
		Op:  cstruct.OpKind(r.Byte("cmd op")),
	}
	if payload {
		c.Payload = r.Bytes("cmd payload")
	} else {
		r.section("cmd payload")
	}
	return c
}

func (r *Reader) cmds(payloads bool) []cstruct.Cmd {
	// Every encoded command takes at least 4 bytes (id, key length, op,
	// payload length).
	n := r.Count("cmd count", 4)
	if n == 0 {
		return nil
	}
	out := make([]cstruct.Cmd, 0, n)
	for i := 0; i < n && r.Err == nil; i++ {
		out = append(out, r.cmd(payloads))
	}
	return out
}
