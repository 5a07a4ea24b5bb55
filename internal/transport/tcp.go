package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mcpaxos/internal/msg"
)

// RecvFn consumes inbound messages.
type RecvFn func(from msg.NodeID, m msg.Message)

// sendQueueDepth bounds the messages buffered per peer; a full queue drops
// the message (the asynchronous model allows loss, and the protocols
// retransmit).
const sendQueueDepth = 1024

// frameHdrLen is the fixed frame header: sender ID (4 bytes) + payload
// length (4 bytes).
const frameHdrLen = 8

// maxFrame refuses absurd frames on both ends of a connection.
const maxFrame = 16 << 20

// dialTimeout bounds a connection attempt. Send dials on its caller's
// goroutine — a node's mailbox — so a peer that neither accepts nor refuses
// must not park it for the kernel's connect timeout.
const dialTimeout = time.Second

// downQueueDepth bounds the unreachable-peer reports waiting for the
// OnPeerDown consumer. A peer yields one report per connection loss, so this
// covers every peer of a deployment failing at once; past it reports are
// dropped, never waited for — they are hints (msg.PeerDown).
const downQueueDepth = 64

// maxPooledFrame caps the scratch buffers the frame pool retains: a rare
// multi-megabyte frame must not pin its buffer in the pool forever.
const maxPooledFrame = 1 << 20

// writeChunk bounds each conn.Write and the buffer a link's writer keeps
// between batches. The writer sends what it has encoded whenever half of it
// is pending, so a batch of small frames never grows the buffer past it; one
// frame larger than that does, and the buffer is dropped after its batch.
const writeChunk = 64 << 10

// readAhead sizes an inbound connection's read buffer. Frames on a
// deployment's links are a few hundred bytes; a frame longer than the buffer
// is read straight into the reader's frame, bypassing it.
const readAhead = 4 << 10

// frame is one pooled scratch buffer. A writer encodes a whole batch of
// frames into it and writes them from it; a reader decodes each frame out of
// it. The codec never retains frame memory, so a goroutine can reuse one
// frame for its whole lifetime.
type frame struct{ b []byte }

var framePool = sync.Pool{New: func() any { return new(frame) }}

func getFrame() *frame { return framePool.Get().(*frame) }

func putFrame(f *frame) {
	if cap(f.b) > maxPooledFrame {
		f.b = nil
	}
	framePool.Put(f)
}

// TCPStats counts one endpoint's wire traffic and codec time.
type TCPStats struct {
	// FramesOut/BytesOut cover frames written to the wire (headers
	// included); FramesIn/BytesIn cover frames decoded off it.
	FramesOut, BytesOut uint64
	FramesIn, BytesIn   uint64
	// EncodeNanos/DecodeNanos total the codec time spent on those frames.
	EncodeNanos, DecodeNanos uint64
}

// Plus returns the component-wise sum (for aggregating endpoints).
func (s TCPStats) Plus(o TCPStats) TCPStats {
	return TCPStats{
		FramesOut: s.FramesOut + o.FramesOut, BytesOut: s.BytesOut + o.BytesOut,
		FramesIn: s.FramesIn + o.FramesIn, BytesIn: s.BytesIn + o.BytesIn,
		EncodeNanos: s.EncodeNanos + o.EncodeNanos, DecodeNanos: s.DecodeNanos + o.DecodeNanos,
	}
}

// TCP is a TCP transport endpoint for one node: it listens on its own
// address and opens one client connection per peer on demand. Frames are
// length-prefixed binary wire messages, preceded by the sender ID.
//
// Sends are asynchronous and zero-copy: Send queues the message itself, and
// each peer's dedicated writer goroutine takes everything queued at once,
// encodes it frame after frame into its one pooled scratch buffer and writes
// the batch to the connection in one write (several, none longer than
// writeChunk, for a batch past half of it) — no intermediate allocation per
// message — so a slow or stalled peer never delays traffic to the others. A
// link holds only what it carries: its queue grows with the traffic, up to
// sendQueueDepth messages, and its write buffer with its batches, keeping at
// most writeChunk between them.
type TCP struct {
	id    msg.NodeID
	codec Codec
	addrs map[msg.NodeID]string
	recv  RecvFn

	ln       net.Listener
	mu       sync.Mutex
	peers    map[msg.NodeID]*peer
	accepted map[net.Conn]struct{}
	// unreachable marks the peers reported down since their last successful
	// dial, which makes the report edge-triggered: one per connection loss or
	// first refused dial, not one per Send that fails afterwards.
	unreachable map[msg.NodeID]bool
	// down carries those reports to the OnPeerDown consumer. Senders never
	// block on it: a report is raised from inside Send, possibly on the very
	// goroutine the consumer would deliver it to.
	down      chan msg.NodeID
	wg        sync.WaitGroup
	closed    chan struct{}
	closeOnce sync.Once

	framesOut, bytesOut atomic.Uint64
	framesIn, bytesIn   atomic.Uint64
	encNanos, decNanos  atomic.Uint64
}

// peer is one outbound connection with its writer and watcher goroutines.
type peer struct {
	conn net.Conn
	// mu guards q, the messages queued for the writer in Send order: it grows
	// on demand up to sendQueueDepth, and the writer takes it whole.
	mu sync.Mutex
	q  []msg.Message
	// wake holds a token while q has messages the writer has not taken: the
	// Send that finds q empty leaves one, and only the writer empties q.
	wake chan struct{}
	// dead is closed when the writer exits; messages enqueued after that
	// are lost, and the next Send redials.
	dead chan struct{}
	// lost is closed by the watcher when the remote end closed or reset the
	// connection, so an idle writer learns of it without having to write.
	lost chan struct{}
}

// NewTCPOnListener starts a TCP endpoint on an already-bound listener (e.g.
// one reserved while resolving ephemeral ports, so the port cannot be
// grabbed between resolution and startup). The endpoint owns ln and closes
// it on Close.
func NewTCPOnListener(id msg.NodeID, ln net.Listener, addrs map[msg.NodeID]string, codec Codec, recv RecvFn) *TCP {
	t := &TCP{
		id:          id,
		codec:       codec,
		addrs:       addrs,
		recv:        recv,
		ln:          ln,
		peers:       make(map[msg.NodeID]*peer),
		accepted:    make(map[net.Conn]struct{}),
		unreachable: make(map[msg.NodeID]bool),
		down:        make(chan msg.NodeID, downQueueDepth),
		closed:      make(chan struct{}),
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t
}

// OnPeerDown starts the one consumer of this endpoint's unreachable-peer
// reports: fn runs, on a goroutine of its own, once each time an established
// connection to a peer is lost (the remote end closed or reset it, or a write
// failed) and once when a peer that was not connected refuses a dial; further
// failed dials to it stay silent until one succeeds. The report is evidence,
// not a verdict (msg.PeerDown). fn may block — the senders that raise reports
// never wait for it — and reports raised before the call are delivered after
// it. Call it at most once, before Close.
func (t *TCP) OnPeerDown(fn func(msg.NodeID)) {
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		for {
			select {
			case id := <-t.down:
				fn(id)
			case <-t.closed:
				return
			}
		}
	}()
}

// reportDown queues one unreachable-peer report without blocking. Caller
// holds t.mu.
func (t *TCP) reportDown(to msg.NodeID) {
	t.unreachable[to] = true
	select {
	case t.down <- to:
	default:
	}
}

// peerLost evicts p — the next Send redials — and reports the peer
// unreachable: once per connection, by whichever of its watcher and its
// writer notices first.
func (t *TCP) peerLost(to msg.NodeID, p *peer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.peers[to] != p {
		return
	}
	delete(t.peers, to)
	t.reportDown(to)
}

// Stats snapshots the endpoint's wire traffic counters.
func (t *TCP) Stats() TCPStats {
	return TCPStats{
		FramesOut: t.framesOut.Load(), BytesOut: t.bytesOut.Load(),
		FramesIn: t.framesIn.Load(), BytesIn: t.bytesIn.Load(),
		EncodeNanos: t.encNanos.Load(), DecodeNanos: t.decNanos.Load(),
	}
}

func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			select {
			case <-t.closed:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		t.mu.Lock()
		t.accepted[conn] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

func (t *TCP) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.accepted, conn)
		t.mu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, readAhead)
	// One pooled scratch buffer serves every frame of the connection: the
	// codec copies out what the decoded message keeps.
	f := getFrame()
	defer putFrame(f)
	// The header array escapes through io.ReadFull's interface: declared
	// once, it costs one allocation per connection, not one per frame.
	var hdr [frameHdrLen]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		from := msg.NodeID(binary.BigEndian.Uint32(hdr[0:4]))
		size := binary.BigEndian.Uint32(hdr[4:8])
		if size > maxFrame {
			return // refuse absurd frames
		}
		if cap(f.b) < int(size) {
			f.b = make([]byte, size)
		} else {
			f.b = f.b[:size]
		}
		if _, err := io.ReadFull(br, f.b); err != nil {
			return
		}
		start := time.Now()
		m, err := t.codec.Decode(f.b)
		if err != nil {
			continue // corrupt frame: the model allows loss, not corruption
		}
		t.decNanos.Add(uint64(time.Since(start)))
		t.framesIn.Add(1)
		t.bytesIn.Add(uint64(size) + frameHdrLen)
		select {
		case <-t.closed:
			return
		default:
		}
		t.recv(from, m)
	}
}

// Send queues m for node `to`'s writer, dialing on first use. The write
// itself is asynchronous — a nil return means the message was queued, not
// delivered — and errors are returned for diagnostics; callers may treat
// failures as message loss. Messages are immutable once sent (the msg
// package contract), so the peer's writer encodes them after the fact
// without copying here.
func (t *TCP) Send(to msg.NodeID, m msg.Message) error {
	if !encodable(m) {
		return fmt.Errorf("transport: unknown message type %T", m)
	}
	p, err := t.peer(to)
	if err != nil {
		return err
	}
	select {
	case <-p.dead:
		return fmt.Errorf("transport: connection to %v lost", to)
	case <-t.closed:
		return fmt.Errorf("transport: endpoint closed")
	default:
	}
	p.mu.Lock()
	if len(p.q) >= sendQueueDepth {
		p.mu.Unlock()
		return fmt.Errorf("transport: send queue to %v full", to)
	}
	p.q = append(p.q, m)
	first := len(p.q) == 1
	p.mu.Unlock()
	if first {
		select {
		case p.wake <- struct{}{}:
		default: // a token is already waiting
		}
	}
	return nil
}

// peer returns the live peer for `to`, dialing and starting its writer on
// first use (or after an eviction).
func (t *TCP) peer(to msg.NodeID) (*peer, error) {
	t.mu.Lock()
	if p, ok := t.peers[to]; ok {
		t.mu.Unlock()
		return p, nil
	}
	addr, ok := t.addrs[to]
	t.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("transport: unknown node %v", to)
	}
	// Dial outside the lock: a slow dial to one peer must not block sends
	// to the others.
	c, err := net.DialTimeout("tcp", addr, dialTimeout)
	t.mu.Lock()
	defer t.mu.Unlock()
	if err != nil {
		if !t.unreachable[to] {
			t.reportDown(to)
		}
		return nil, fmt.Errorf("transport: dial %v: %w", to, err)
	}
	if p, ok := t.peers[to]; ok { // lost the dial race
		c.Close()
		return p, nil
	}
	select {
	case <-t.closed:
		c.Close()
		return nil, fmt.Errorf("transport: endpoint closed")
	default:
	}
	p := &peer{
		conn: c, wake: make(chan struct{}, 1),
		dead: make(chan struct{}), lost: make(chan struct{}),
	}
	t.peers[to] = p
	delete(t.unreachable, to)
	t.wg.Add(2)
	go t.writeLoop(to, p)
	go t.watch(to, p)
	return p, nil
}

// watch blocks reading one outbound connection. Each direction of a link has
// its own connection and this one carries no inbound bytes, so the read
// returns only when the remote end closed or reset it (or the writer closed
// it on its way out): the peer is evicted at that moment, not when a later
// write happens to fail — frames written in between would go into a dead
// incarnation's socket — and the idle writer is woken to release the
// connection.
func (t *TCP) watch(to msg.NodeID, p *peer) {
	defer t.wg.Done()
	var b [1]byte
	for {
		if _, err := p.conn.Read(b[:]); err != nil {
			break
		}
	}
	t.peerLost(to, p)
	close(p.lost)
}

// writeLoop drains one peer's message queue, taking everything queued at
// once and writing it as one batch (writeBatch). The writer owns the
// connection: on any error, on the watcher's word that the remote end is
// gone, or on shutdown it evicts itself and closes the conn, so an evicted
// connection never leaks its fd or leaves the remote reader blocked
// mid-frame.
func (t *TCP) writeLoop(to msg.NodeID, p *peer) {
	defer t.wg.Done()
	defer func() {
		t.peerLost(to, p)
		close(p.dead)
		p.conn.Close()
	}()
	f := getFrame()
	defer putFrame(f)
	// The queue and the batch swap backings, so neither is reallocated once
	// it has grown to the link's largest batch.
	var spare []msg.Message
	for {
		select {
		case <-p.wake:
		case <-p.lost:
			return
		case <-t.closed:
			return
		}
		p.mu.Lock()
		batch := p.q
		p.q = spare
		p.mu.Unlock()
		if t.writeBatch(p.conn, f, batch) != nil {
			return
		}
		clear(batch) // the sent messages are garbage now
		spare = batch[:0]
	}
}

// writeBatch encodes batch frame after frame into f and writes it to w,
// header and payload of each frame together: whenever half a writeChunk is
// pending and once at the end, each Write at most writeChunk long. A message
// that does not encode is dropped and the rest still go. The error is w's:
// the connection is done for. f keeps at most writeChunk of capacity
// afterwards.
func (t *TCP) writeBatch(w io.Writer, f *frame, batch []msg.Message) error {
	var hdrZero [frameHdrLen]byte
	f.b = f.b[:0]
	frames := 0
	send := func() error {
		for b := f.b; len(b) > 0; {
			n, err := w.Write(b[:min(len(b), writeChunk)])
			if err != nil {
				return err
			}
			b = b[n:]
		}
		t.framesOut.Add(uint64(frames))
		t.bytesOut.Add(uint64(len(f.b)))
		f.b, frames = f.b[:0], 0
		return nil
	}
	for _, m := range batch {
		start := time.Now()
		mark := len(f.b)
		b, err := t.codec.AppendEncode(append(f.b, hdrZero[:]...), m)
		size := len(b) - mark - frameHdrLen
		if err != nil || size > maxFrame {
			continue // drop the frame, keep the connection
		}
		binary.BigEndian.PutUint32(b[mark:], uint32(t.id))
		binary.BigEndian.PutUint32(b[mark+4:], uint32(size))
		f.b = b
		frames++
		t.encNanos.Add(uint64(time.Since(start)))
		if len(f.b) >= writeChunk/2 {
			if err := send(); err != nil {
				return err
			}
		}
	}
	err := send()
	if cap(f.b) > writeChunk {
		f.b = nil
	}
	return err
}

// Close shuts the endpoint down and waits for its goroutines.
func (t *TCP) Close() error {
	var err error
	t.closeOnce.Do(func() {
		close(t.closed)
		err = t.ln.Close()
		t.mu.Lock()
		// Closing the conns unblocks writers stuck inside a write; each
		// writer closes its conn again on exit, which is harmless.
		for _, p := range t.peers {
			p.conn.Close()
		}
		for c := range t.accepted {
			c.Close()
		}
		t.mu.Unlock()
		t.wg.Wait()
	})
	return err
}
