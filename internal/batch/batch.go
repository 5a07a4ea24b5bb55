// Package batch amortizes per-command protocol and I/O costs by packing
// many client commands into one batch command that rides the consensus
// protocols unchanged: a batch is an ordinary cstruct.Cmd whose payload
// encodes the constituent commands, agreed on as a unit and unpacked at
// apply time (internal/smr). This is the standard throughput lever of
// production Paxos-family systems: one instance, one acceptor disk write
// and one quorum exchange now decide a whole batch.
//
// A batch payload is the magic byte followed by the constituents as one
// counted command sequence in package wire's layout (wire.AppendCmds), so a
// batch has no byte format of its own.
package batch

import (
	"slices"

	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/wire"
)

// magic is the first payload byte of every batch command. Application
// machines keep their opcodes small (internal/smr uses 1 and 2), so this
// value cannot collide with a machine command payload.
const magic = 0xB7

// Key is the reserved key carried by every batch command. All batches
// mutually conflict under the key-based relations (KeyConflict, RWConflict),
// so batched deployments keep a total order over batches while the commands
// inside a batch preserve submission order.
const Key = "\x00batch"

// IDBase is or-ed into a batch command's ID, placing batch IDs in the upper
// half of the ID space. Client command IDs must stay below IDBase so a batch
// never collides with one of its constituents in dedup maps.
const IDBase = uint64(1) << 63

// BatchID derives the batch command ID from the first constituent. The ID
// orders batches and deduplicates them, but it is not unique: two batches
// headed by the same command — a stamper's and a failover stamper's for one
// slot — share it while holding different commands. Values compare by
// content, through cstruct.Cmd.Equal, so the two stay two values.
func BatchID(first cstruct.Cmd) uint64 { return first.ID | IDBase }

// Pack encodes cmds into a single batch command. Packing a single command
// is valid but pointless; callers normally pass it through unwrapped. Pack
// panics on an empty slice: an empty batch has no ID and nothing to decide.
// The payload is sized exactly before encoding, so a batch costs one
// allocation regardless of its command count.
func Pack(cmds []cstruct.Cmd) cstruct.Cmd {
	if len(cmds) == 0 {
		panic("batch: Pack of empty command slice")
	}
	buf := append(make([]byte, 0, 1+wire.CmdsSize(cmds)), magic)
	buf = wire.AppendCmds(buf, cmds)
	return cstruct.Cmd{ID: BatchID(cmds[0]), Key: Key, Op: cstruct.OpWrite, Payload: buf}
}

// IsBatch reports whether c is a batch command.
func IsBatch(c cstruct.Cmd) bool {
	return len(c.Payload) > 0 && c.Payload[0] == magic && c.Key == Key
}

// Unpack decodes a batch command; ok is false when c is not a batch, and
// when its payload is not exactly what Pack emits (truncated, trailing
// bytes, a non-minimal varint, no commands).
func Unpack(c cstruct.Cmd) (cmds []cstruct.Cmd, ok bool) {
	if !IsBatch(c) {
		return nil, false
	}
	r := wire.Reader{B: c.Payload[1:]}
	return finish(&r, r.Cmds())
}

// UnpackMeta parses only the ID/Key/Op of each constituent, skipping the
// payload copies — enough for conflict evaluation, reply correlation and
// retry bookkeeping at a fraction of Unpack's allocation cost.
func UnpackMeta(c cstruct.Cmd) ([]cstruct.Cmd, bool) {
	if !IsBatch(c) {
		return nil, false
	}
	r := wire.Reader{B: c.Payload[1:]}
	return finish(&r, r.CmdMetas())
}

// finish accepts what r read only if it read the whole payload without
// error and found at least one command.
func finish(r *wire.Reader, cmds []cstruct.Cmd) ([]cstruct.Cmd, bool) {
	if r.Finish() != nil || len(cmds) == 0 {
		return nil, false
	}
	return cmds, true
}

// Clock supplies the Batcher's notion of time. Hosts pass sim.Now (units of
// simulated time) or a wall-clock adapter; the Batcher itself never reads
// real time, which keeps batching deterministic under the simulator.
type Clock func() int64

// FlushFn receives each flushed batch (or lone command) and the commands it
// carries, in the order they were added. The slice is the batcher's own
// buffer: it is valid only for the call.
type FlushFn func(flushed cstruct.Cmd, cmds []cstruct.Cmd)

// Batcher aggregates commands and flushes them as batch commands when either
// the size threshold fills or the oldest buffered command has waited MaxWait
// clock units. The Batcher is passive — it owns no goroutine or timer.
// Size-triggered flushes happen inside Add; hosts drive time-triggered
// flushes by calling Tick from a timer (runtime hosts) or scheduled event
// (simulator hosts), using Deadline to know when the next one is due.
type Batcher struct {
	// MaxCmds flushes a batch as soon as it holds this many commands.
	// Values < 2 disable batching: every Add flushes immediately.
	MaxCmds int
	// MaxWait bounds the latency a buffered command can pay waiting for the
	// batch to fill, in clock units. 0 means only size triggers flushes.
	MaxWait int64

	clock   Clock
	flush   FlushFn
	pending []cstruct.Cmd
	oldest  int64 // clock reading when pending[0] arrived

	// Batches counts flushed batches; Singles counts pass-through flushes of
	// a single command (no batch framing).
	Batches, Singles uint64
}

// NewBatcher builds a batcher flushing through fn using clock for deadlines.
func NewBatcher(maxCmds int, maxWait int64, clock Clock, fn FlushFn) *Batcher {
	return &Batcher{MaxCmds: maxCmds, MaxWait: maxWait, clock: clock, flush: fn}
}

// Add buffers one command, flushing if the batch is full.
func (b *Batcher) Add(cmd cstruct.Cmd) {
	if len(b.pending) == 0 {
		b.oldest = b.clock()
	}
	b.pending = append(b.pending, cmd)
	if len(b.pending) >= b.MaxCmds || b.MaxCmds < 2 {
		b.Flush()
	}
}

// Tick flushes a partial batch whose oldest command has waited MaxWait or
// longer. Call it whenever the Deadline passes.
func (b *Batcher) Tick() {
	if len(b.pending) == 0 || b.MaxWait <= 0 {
		return
	}
	if b.clock()-b.oldest >= b.MaxWait {
		b.Flush()
	}
}

// Deadline returns the clock time of the next time-triggered flush; ok is
// false when nothing is buffered or MaxWait is disabled.
func (b *Batcher) Deadline() (at int64, ok bool) {
	if len(b.pending) == 0 || b.MaxWait <= 0 {
		return 0, false
	}
	return b.oldest + b.MaxWait, true
}

// Pending reports how many commands are buffered.
func (b *Batcher) Pending() int { return len(b.pending) }

// Drain hands back whatever is buffered, unflushed, and leaves the batcher
// empty: for a host that stops being the one to flush and passes the commands
// on instead. The caller owns the returned slice.
func (b *Batcher) Drain() []cstruct.Cmd {
	out := b.pending
	b.pending = nil
	return out
}

// Pop removes and returns the oldest buffered command, unflushed: for a host
// that places buffered commands one at a time. Call it only while Pending is
// non-zero. The deadline stays the one the popped command set, so what
// remains is flushed no later than it would have been.
func (b *Batcher) Pop() cstruct.Cmd {
	cmd := b.pending[0]
	b.pending = slices.Delete(b.pending, 0, 1)
	return cmd
}

// Flush emits whatever is buffered: a lone command passes through unwrapped,
// two or more are packed into one batch command, and either way the flush
// callback is handed the buffered commands beside it. The pending buffer's
// backing array is kept for the next batch — Pack copies the constituents
// into the batch payload, so nothing flushed aliases it once the callback
// returns.
func (b *Batcher) Flush() {
	if len(b.pending) == 0 {
		return
	}
	if len(b.pending) == 1 {
		b.Singles++
		b.flush(b.pending[0], b.pending)
	} else {
		b.Batches++
		b.flush(Pack(b.pending), b.pending)
	}
	b.pending = b.pending[:0]
}
