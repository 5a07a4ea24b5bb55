package transport

import (
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mcpaxos/internal/ballot"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
)

func TestTCPRoundtrip(t *testing.T) {
	set := cstruct.NewHistorySet(cstruct.KeyConflict)
	codec := Codec{Set: set}

	var mu sync.Mutex
	var got []msg.Message
	var from []msg.NodeID

	// Bootstrap: listen on ephemeral ports, then share the address map.
	addrs := map[msg.NodeID]string{1: "127.0.0.1:0", 2: "127.0.0.1:0"}
	t2, err := listenTCP(2, addrs, codec, func(f msg.NodeID, m msg.Message) {
		mu.Lock()
		defer mu.Unlock()
		got = append(got, m)
		from = append(from, f)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer t2.Close()
	addrs[2] = t2.Addr()

	t1, err := listenTCP(1, addrs, codec, func(msg.NodeID, msg.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()
	addrs[1] = t1.Addr()

	h := cstruct.AppendSeq(set.Bottom(), []cstruct.Cmd{{ID: 1, Key: "x"}})
	msgs := []msg.Message{
		msg.Propose{Cmd: cstruct.Cmd{ID: 9, Key: "k"}},
		msg.P2a{Rnd: ballot.Ballot{MinCount: 1, ID: 1}, Coord: 1, Val: h},
		msg.Heartbeat{From: 1, Epoch: 3},
	}
	for _, m := range msgs {
		if err := t1.Send(2, m); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == len(msgs) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("received %d/%d messages", n, len(msgs))
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, f := range from {
		if f != 1 {
			t.Errorf("sender ID mangled: %v", f)
		}
	}
	if p2a, ok := got[1].(msg.P2a); !ok || !set.Equal(p2a.Val, h) {
		t.Errorf("P2a over TCP mangled: %+v", got[1])
	}
}

// counter collects received messages behind a mutex, for concurrent tests.
type counter struct {
	mu  sync.Mutex
	got []msg.Message
}

func (c *counter) recv(_ msg.NodeID, m msg.Message) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.got = append(c.got, m)
}

func (c *counter) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.got)
}

func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTCPConcurrentSends hammers one endpoint with parallel sends to three
// peers: per-peer writer goroutines must neither race (run with -race) nor
// serialize peers behind each other, and nothing may be lost on healthy
// connections.
func TestTCPConcurrentSends(t *testing.T) {
	codec := Codec{Set: cstruct.SingleValueSet{}}
	addrs := map[msg.NodeID]string{
		1: "127.0.0.1:0", 2: "127.0.0.1:0", 3: "127.0.0.1:0", 4: "127.0.0.1:0",
	}
	peers := make(map[msg.NodeID]*counter)
	var eps []*TCP
	for _, id := range []msg.NodeID{2, 3, 4} {
		c := &counter{}
		peers[id] = c
		ep, err := listenTCP(id, addrs, codec, c.recv)
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		addrs[id] = ep.Addr()
		eps = append(eps, ep)
	}
	t1, err := listenTCP(1, addrs, codec, func(msg.NodeID, msg.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()
	addrs[1] = t1.Addr()

	const goroutines, perPeer = 8, 40
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var sendErrs []error
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perPeer; i++ {
				for _, to := range []msg.NodeID{2, 3, 4} {
					m := msg.Heartbeat{From: 1, Epoch: uint64(g*perPeer + i)}
					if err := t1.Send(to, m); err != nil {
						errMu.Lock()
						sendErrs = append(sendErrs, err)
						errMu.Unlock()
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if len(sendErrs) > 0 {
		t.Fatalf("%d send errors, first: %v", len(sendErrs), sendErrs[0])
	}
	want := goroutines * perPeer
	for id, c := range peers {
		waitFor(t, fmt.Sprintf("peer %v to receive %d", id, want), 5*time.Second,
			func() bool { return c.count() == want })
	}
}

// TestTCPEvictionAndReconnect kills the remote endpoint and checks that the
// sender evicts (and closes) the dead connection, then transparently
// redials once the remote comes back on the same address.
func TestTCPEvictionAndReconnect(t *testing.T) {
	codec := Codec{Set: cstruct.SingleValueSet{}}
	addrs := map[msg.NodeID]string{1: "127.0.0.1:0", 2: "127.0.0.1:0"}
	c2 := &counter{}
	t2, err := listenTCP(2, addrs, codec, c2.recv)
	if err != nil {
		t.Fatal(err)
	}
	addrs[2] = t2.Addr()
	t1, err := listenTCP(1, addrs, codec, func(msg.NodeID, msg.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()
	addrs[1] = t1.Addr()

	if err := t1.Send(2, msg.Heartbeat{From: 1, Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "initial delivery", 3*time.Second, func() bool { return c2.count() == 1 })

	// Kill the remote. The sender's writer eventually hits a write error,
	// evicts the connection and closes it; subsequent Sends redial and fail
	// while nothing listens.
	t2.Close()
	waitFor(t, "send failure after remote death", 5*time.Second, func() bool {
		return t1.Send(2, msg.Heartbeat{From: 1, Epoch: 2}) != nil
	})

	// Resurrect the remote on the same address: sends must flow again.
	c2b := &counter{}
	t2b, err := listenTCP(2, addrs, codec, c2b.recv)
	if err != nil {
		t.Fatal(err)
	}
	defer t2b.Close()
	waitFor(t, "delivery after reconnect", 5*time.Second, func() bool {
		t1.Send(2, msg.Heartbeat{From: 1, Epoch: 3})
		return c2b.count() > 0
	})
}

// TestTCPLargeFrame pushes a multi-megabyte command through the codec and
// framing: header and payload must arrive intact through the batched write
// path, which writes them in writeChunk pieces.
func TestTCPLargeFrame(t *testing.T) {
	set := cstruct.NewHistorySet(cstruct.KeyConflict)
	codec := Codec{Set: set}
	addrs := map[msg.NodeID]string{1: "127.0.0.1:0", 2: "127.0.0.1:0"}
	c2 := &counter{}
	t2, err := listenTCP(2, addrs, codec, c2.recv)
	if err != nil {
		t.Fatal(err)
	}
	defer t2.Close()
	addrs[2] = t2.Addr()
	t1, err := listenTCP(1, addrs, codec, func(msg.NodeID, msg.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()
	addrs[1] = t1.Addr()

	payload := make([]byte, 4<<20)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	big := cstruct.Cmd{ID: 7, Key: "blob", Op: cstruct.OpWrite, Payload: payload}
	if err := t1.Send(2, msg.Propose{Cmd: big}); err != nil {
		t.Fatal(err)
	}
	// A small frame queued behind the large one may share its batch.
	if err := t1.Send(2, msg.Heartbeat{From: 1, Epoch: 9}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "both frames", 10*time.Second, func() bool { return c2.count() == 2 })
	got, ok := c2.got[0].(msg.Propose)
	if !ok {
		t.Fatalf("first message type %T", c2.got[0])
	}
	if got.Cmd.ID != 7 || len(got.Cmd.Payload) != len(payload) {
		t.Fatalf("large command mangled: id=%d len=%d", got.Cmd.ID, len(got.Cmd.Payload))
	}
	for i := 0; i < len(payload); i += 4096 {
		if got.Cmd.Payload[i] != payload[i] {
			t.Fatalf("payload corrupted at %d", i)
		}
	}
}

func TestTCPSendToUnknownNode(t *testing.T) {
	codec := Codec{Set: cstruct.SingleValueSet{}}
	tr, err := listenTCP(1, map[msg.NodeID]string{1: "127.0.0.1:0"}, codec,
		func(msg.NodeID, msg.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := tr.Send(99, msg.Heartbeat{From: 1}); err == nil {
		t.Errorf("sending to an unknown node must error")
	}
	// A local event has no wire form: it is refused, whoever it is addressed to.
	if err := tr.Send(1, msg.PeerDown{Node: 99}); err == nil {
		t.Errorf("msg.PeerDown must never cross the wire")
	}
}

// TestTCPIdleLinkNoticesPeerClose: an endpoint watches its outbound
// connections, so it learns that a peer died when the peer's socket closes —
// not when some later write fails. The link here is idle from the first frame
// on: the death is still reported within 100 ms, and the first frame sent
// after the peer is back on the same address arrives instead of going into
// the dead incarnation's socket.
func TestTCPIdleLinkNoticesPeerClose(t *testing.T) {
	codec := Codec{Set: cstruct.SingleValueSet{}}
	addrs := map[msg.NodeID]string{1: "127.0.0.1:0", 2: "127.0.0.1:0"}
	c2 := &counter{}
	t2, err := listenTCP(2, addrs, codec, c2.recv)
	if err != nil {
		t.Fatal(err)
	}
	addrs[2] = t2.Addr()
	t1, err := listenTCP(1, addrs, codec, func(msg.NodeID, msg.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()
	down := make(chan msg.NodeID, 8)
	t1.OnPeerDown(func(id msg.NodeID) { down <- id })

	if err := t1.Send(2, msg.Heartbeat{From: 1, Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "initial delivery", 3*time.Second, func() bool { return c2.count() == 1 })

	t2.Close()
	select {
	case id := <-down:
		if id != 2 {
			t.Fatalf("reported %v down, want n2", id)
		}
	case <-time.After(100 * time.Millisecond):
		t.Fatal("idle link did not report its peer's close within 100ms")
	}

	c2b := &counter{}
	t2b, err := listenTCP(2, addrs, codec, c2b.recv)
	if err != nil {
		t.Fatal(err)
	}
	defer t2b.Close()
	if err := t1.Send(2, msg.Heartbeat{From: 1, Epoch: 2}); err != nil {
		t.Fatalf("first send to the restarted peer: %v", err)
	}
	waitFor(t, "the first frame to reach the restarted peer", 3*time.Second,
		func() bool { return c2b.count() == 1 })
	select {
	case id := <-down:
		t.Fatalf("second report (%v) for one connection loss", id)
	default:
	}
}

// TestTCPDeadPeerReportedOnceWithoutBlocking: the unreachable-peer report is
// edge-triggered and never waits for its consumer. 2000 Sends to a peer that
// refuses connections are issued from inside the recv callback while the
// consumer refuses to make progress until the callback has returned — a
// report delivered synchronously from Send (into the mailbox of the node that
// is sending, say) would deadlock here — and together they raise one report.
func TestTCPDeadPeerReportedOnceWithoutBlocking(t *testing.T) {
	codec := Codec{Set: cstruct.SingleValueSet{}}
	// Node 2's address refuses connections: it was bound once and released.
	gone, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := map[msg.NodeID]string{1: "127.0.0.1:0", 2: gone.Addr().String(), 3: "127.0.0.1:0"}
	gone.Close()

	const sends = 2000
	sent := make(chan struct{})
	var self atomic.Pointer[TCP]
	t1, err := listenTCP(1, addrs, codec, func(msg.NodeID, msg.Message) {
		for i := 0; i < sends; i++ {
			if self.Load().Send(2, msg.Heartbeat{From: 1, Epoch: uint64(i)}) == nil {
				t.Error("send to a dead peer reported success")
			}
		}
		close(sent)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()
	self.Store(t1)
	addrs[1] = t1.Addr()
	var reports atomic.Int32
	t1.OnPeerDown(func(id msg.NodeID) {
		<-sent
		if id != 2 {
			t.Errorf("reported %v down, want n2", id)
		}
		reports.Add(1)
	})
	t3, err := listenTCP(3, addrs, codec, func(msg.NodeID, msg.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer t3.Close()
	if err := t3.Send(1, msg.Heartbeat{From: 3}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-sent:
	case <-time.After(20 * time.Second):
		t.Fatal("sends from inside the recv callback never completed")
	}
	// Every report was queued by a Send that has returned; the consumer holds
	// at most the first.
	if n := len(t1.down); n != 0 {
		t.Fatalf("%d further reports queued for one dead peer", n)
	}
	waitFor(t, "the report", 3*time.Second, func() bool { return reports.Load() == 1 })
}

// blob is a proposal carrying n payload bytes, tagged id.
func blob(id uint64, n int) msg.Propose {
	payload := make([]byte, n)
	for i := range payload {
		payload[i] = byte(i*31) ^ byte(id)
	}
	return msg.Propose{Cmd: cstruct.Cmd{ID: id, Key: "blob", Op: cstruct.OpWrite, Payload: payload}}
}

// TestTCPSendQueueBound: with a peer that accepts but never reads, 1 MB
// frames fill the socket buffers until the writer blocks inside a write with
// the queue taken; from then on exactly sendQueueDepth Sends are accepted and
// the next one reports the full queue.
func TestTCPSendQueueBound(t *testing.T) {
	codec := Codec{Set: cstruct.SingleValueSet{}}
	sink, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	held := make(chan net.Conn, 1)
	go func() {
		if c, err := sink.Accept(); err == nil {
			held <- c // never read
		}
	}()
	defer func() {
		select {
		case c := <-held:
			c.Close()
		default:
		}
	}()
	addrs := map[msg.NodeID]string{1: "127.0.0.1:0", 2: sink.Addr().String()}
	t1, err := listenTCP(1, addrs, codec, func(msg.NodeID, msg.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()

	big := blob(1, 1<<20)
	queued := func() int {
		t1.mu.Lock()
		p := t1.peers[2]
		t1.mu.Unlock()
		p.mu.Lock()
		defer p.mu.Unlock()
		return len(p.q)
	}
	for sent := uint64(1); ; sent++ {
		if sent > 256 {
			t.Fatal("256 MB went into a peer that never reads without blocking the writer")
		}
		if err := t1.Send(2, big); err != nil {
			t.Fatalf("send %d: %v", sent, err)
		}
		waitFor(t, "the writer to take the frame", 5*time.Second, func() bool { return queued() == 0 })
		// A writer that is not blocked finishes a 1 MB loopback write well
		// within this.
		time.Sleep(200 * time.Millisecond)
		if t1.Stats().FramesOut < sent {
			break // blocked inside the write of frame `sent`
		}
	}
	for i := 0; i < sendQueueDepth; i++ {
		if err := t1.Send(2, big); err != nil {
			t.Fatalf("send %d of %d behind the blocked writer: %v", i+1, sendQueueDepth, err)
		}
	}
	err = t1.Send(2, big)
	if err == nil || !strings.Contains(err.Error(), "send queue to n2 full") {
		t.Fatalf("send past %d queued: %v, want the send-queue-full error", sendQueueDepth, err)
	}
}

// TestTCPBatchArrivesInOrder writes one batch of well over writeChunk — small
// frames around one frame larger than both writeChunk and the receiver's read
// buffer — through writeBatch onto a connection, then the same messages
// through Send: every frame arrives intact and in order, and the writer's
// counters account for each.
func TestTCPBatchArrivesInOrder(t *testing.T) {
	codec := Codec{Set: cstruct.SingleValueSet{}}
	addrs := map[msg.NodeID]string{1: "127.0.0.1:0", 2: "127.0.0.1:0"}
	c2 := &counter{}
	t2, err := listenTCP(2, addrs, codec, c2.recv)
	if err != nil {
		t.Fatal(err)
	}
	defer t2.Close()
	addrs[2] = t2.Addr()
	t1, err := listenTCP(1, addrs, codec, func(msg.NodeID, msg.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()

	var batch []msg.Message
	for i := uint64(0); i < 600; i++ {
		size := 200
		if i == 300 {
			size = 3 * writeChunk
		}
		batch = append(batch, blob(i, size))
	}
	check := func(what string, got []msg.Message) {
		t.Helper()
		for i, m := range got {
			p, ok := m.(msg.Propose)
			want := batch[i].(msg.Propose)
			if !ok || !p.Cmd.Equal(want.Cmd) {
				t.Fatalf("%s: frame %d arrived as %T id %d, want id %d intact", what, i, m, p.Cmd.ID, want.Cmd.ID)
			}
		}
	}

	conn, err := net.Dial("tcp", t2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	f := getFrame()
	if err := t1.writeBatch(conn, f, batch); err != nil {
		t.Fatalf("writeBatch: %v", err)
	}
	waitFor(t, "the batch", 5*time.Second, func() bool { return c2.count() == len(batch) })
	check("one batch", c2.got)
	if st := t1.Stats(); st.FramesOut != uint64(len(batch)) || st.BytesOut != t2.Stats().BytesIn {
		t.Fatalf("writer counted %d frames / %d bytes, receiver decoded %d / %d",
			st.FramesOut, st.BytesOut, t2.Stats().FramesIn, t2.Stats().BytesIn)
	}

	c2.mu.Lock()
	c2.got = nil
	c2.mu.Unlock()
	for _, m := range batch {
		if err := t1.Send(2, m); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "the sends", 5*time.Second, func() bool { return c2.count() == len(batch) })
	check("through Send", c2.got)
}

// sizeWriter records the length of the longest Write it took.
type sizeWriter struct{ n, longest int }

func (w *sizeWriter) Write(b []byte) (int, error) {
	w.n += len(b)
	w.longest = max(w.longest, len(b))
	return len(b), nil
}

// TestTCPWriterKeepsAtMostWriteChunk: a burst of several hundred KB in small
// frames goes out in writes of at most writeChunk and leaves the writer a
// buffer it keeps for the next batch, no larger than writeChunk; a batch
// holding a frame larger than that goes out in the same pieces, and the
// buffer it grew is not kept.
func TestTCPWriterKeepsAtMostWriteChunk(t *testing.T) {
	t1 := &TCP{id: 1, codec: Codec{Set: cstruct.SingleValueSet{}}}
	f := new(frame) // not a pooled one: it may hold a reader's larger buffer
	for _, tc := range []struct {
		name  string
		batch []msg.Message
	}{
		{"small frames", func() (b []msg.Message) {
			for i := range uint64(2000) {
				b = append(b, blob(i, 200))
			}
			return b
		}()},
		{"one large frame among small", []msg.Message{blob(1, 100), blob(2, 5*writeChunk), blob(3, 100)}},
	} {
		var w sizeWriter
		if err := t1.writeBatch(&w, f, tc.batch); err != nil {
			t.Fatal(err)
		}
		if w.n < 300<<10 && tc.name == "small frames" {
			t.Fatalf("%s: burst of %d bytes, want several hundred KB", tc.name, w.n)
		}
		if w.longest > writeChunk {
			t.Errorf("%s: a write of %d bytes, want at most %d", tc.name, w.longest, writeChunk)
		}
		if cap(f.b) > writeChunk {
			t.Errorf("%s: the writer keeps a %d-byte buffer, want at most %d", tc.name, cap(f.b), writeChunk)
		}
		if tc.name == "small frames" && cap(f.b) == 0 {
			t.Errorf("%s: the buffer was dropped; small frames must not grow it past %d", tc.name, writeChunk)
		}
	}
}

// A received frame costs the reader no allocation beyond decoding it: 2,000
// frames of one 2b, fed to an endpoint's reader over net.Pipe, take no more
// mallocs each than Codec.Decode of the same frame (a header array declared
// per frame escapes, one allocation each).
func TestTCPReadAllocsPerFrame(t *testing.T) {
	const frames = 2000
	c := Codec{Set: cstruct.SingleValueSet{}}
	body, err := c.Encode(msg.P2b{Inst: 4, Rnd: ballot.Ballot{MCount: 1, ID: 3}, Acc: 202,
		Val: cstruct.NewSingleValue(cstruct.Cmd{ID: 9, Key: "k", Op: cstruct.OpWrite, Payload: []byte("p")})})
	if err != nil {
		t.Fatal(err)
	}
	decode := testing.AllocsPerRun(100, func() {
		if _, err := c.Decode(body); err != nil {
			t.Fatal(err)
		}
	})
	frame := binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(nil, 1), uint32(len(body)))
	frame = append(frame, body...)
	var stream []byte
	for range frames {
		stream = append(stream, frame...)
	}

	var got atomic.Int64
	warm, done := make(chan struct{}), make(chan struct{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTCPOnListener(2, ln, map[msg.NodeID]string{2: ln.Addr().String()}, c, func(msg.NodeID, msg.Message) {
		switch got.Add(1) {
		case 1:
			close(warm)
		case frames + 1:
			close(done)
		}
	})
	defer tr.Close()
	client, server := net.Pipe()
	defer client.Close()
	tr.wg.Add(1)
	go tr.readLoop(server)
	// One frame first: the reader's per-connection buffers are in place
	// before counting starts.
	if _, err := client.Write(frame); err != nil {
		t.Fatal(err)
	}
	<-warm
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := client.Write(stream); err != nil {
		t.Fatal(err)
	}
	<-done
	runtime.ReadMemStats(&after)
	if per := float64(after.Mallocs-before.Mallocs) / frames; per > decode+0.5 {
		t.Errorf("%.2f mallocs per received frame, want at most Decode's %v", per, decode)
	}
}
