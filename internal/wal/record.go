package wal

import (
	"fmt"

	"mcpaxos/internal/ballot"
	"mcpaxos/internal/storage"
	"mcpaxos/internal/wire"
)

// This file is the record codec: the byte form of a frame's payload. It is
// built from package wire's layouts (varints, ballots, commands, length-
// prefixed sections — the ones the transport codec uses), and like them it
// is canonical: one byte string per record list.
//
//	commit batch:    [recVersion] [count] count × record
//	index snapshot:  [recVersion] [since] [count] count × record
//	record:          [key] [tag: 1 byte] [body, fixed per tag]
//
// The vocabulary is closed — the tags below are every type an acceptor
// stores (storage.Stable) plus the log's own deletion marker — so decoding
// hands back values of exactly the concrete type that was appended.
//
// tagTally is reserved: earlier builds logged an acceptor's partial 2a
// tallies under it. Nothing encodes it any more, but a directory such a
// build wrote must still open, so the decoder reads the record and hands it
// back as a deletion of its key.

// recVersion is the first payload byte of every frame. A payload that opens
// with anything else was written by another build, and Open refuses the
// directory rather than guess at it.
const recVersion = 0x01

// Record tags and their bodies.
const (
	tagDeleted byte = iota // tombstone: no body
	tagUint32              // varint
	tagUint64              // varint
	tagBallot              // ballot
	tagVote                // storage.VoteRec: Inst, VRnd, Cmds
	tagTally               // reserved, decode-only: Inst, Rnd, counted Coords, Cmds
)

// appendRecs appends the counted record list recs to dst. The only failure
// is a value outside the vocabulary.
func appendRecs(dst []byte, recs []Rec) ([]byte, error) {
	dst = wire.AppendUvarint(dst, uint64(len(recs)))
	for _, r := range recs {
		dst = wire.AppendString(dst, r.Key)
		switch v := r.Val.(type) {
		case tombstone:
			dst = append(dst, tagDeleted)
		case uint32:
			dst = wire.AppendUvarint(append(dst, tagUint32), uint64(v))
		case uint64:
			dst = wire.AppendUvarint(append(dst, tagUint64), v)
		case ballot.Ballot:
			dst = wire.AppendBallot(append(dst, tagBallot), v)
		case storage.VoteRec:
			dst = wire.AppendUvarint(append(dst, tagVote), v.Inst)
			dst = wire.AppendBallot(dst, v.VRnd)
			dst = wire.AppendCmds(dst, v.Cmds)
		default:
			return nil, fmt.Errorf("wal: record %q: %T is outside the record vocabulary", r.Key, r.Val)
		}
	}
	return dst, nil
}

// readRecs reads one counted record list; failures stick to r.
func readRecs(r *wire.Reader) []Rec {
	// Every record takes at least 2 bytes (key length, tag).
	n := r.Count("record count", 2)
	recs := make([]Rec, 0, n)
	for i := 0; i < n && r.Err == nil; i++ {
		rec := Rec{Key: r.String("record key")}
		switch r.Byte("record tag") {
		case tagDeleted:
			rec.Val = tombstone{}
		case tagUint32:
			rec.Val = r.U32("uint32 record")
		case tagUint64:
			rec.Val = r.Uvarint("uint64 record")
		case tagBallot:
			rec.Val = r.Ballot()
		case tagVote:
			rec.Val = storage.VoteRec{Inst: r.Uvarint("vote inst"), VRnd: r.Ballot(), Cmds: r.Cmds()}
		case tagTally:
			r.Uvarint("tally inst")
			r.Ballot()
			for c := r.Count("coord count", 1); c > 0 && r.Err == nil; c-- {
				r.U32("coord")
			}
			r.Cmds()
			rec.Val = tombstone{}
		default:
			r.Fail("record tag")
		}
		recs = append(recs, rec)
	}
	return recs
}

// payloadReader opens a frame payload, checking its version byte.
func payloadReader(payload []byte) *wire.Reader {
	r := &wire.Reader{B: payload}
	if r.Byte("record version") != recVersion {
		r.Fail("record version")
	}
	return r
}

// decodeBatch decodes a commit batch's payload.
func decodeBatch(payload []byte) ([]Rec, error) {
	r := payloadReader(payload)
	recs := readRecs(r)
	return recs, r.Finish()
}

// decodeSnapshot decodes an index snapshot's payload.
func decodeSnapshot(payload []byte) (since uint64, recs []Rec, err error) {
	r := payloadReader(payload)
	since = r.Uvarint("snapshot since")
	recs = readRecs(r)
	return since, recs, r.Finish()
}
