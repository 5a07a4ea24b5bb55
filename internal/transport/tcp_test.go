package transport

import (
	"fmt"
	"net"
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
	t2, err := NewTCP(2, addrs, codec, func(f msg.NodeID, m msg.Message) {
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

	t1, err := NewTCP(1, addrs, codec, func(msg.NodeID, msg.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()
	addrs[1] = t1.Addr()

	h := set.NewHistory(cstruct.Cmd{ID: 1, Key: "x"})
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
		ep, err := NewTCP(id, addrs, codec, c.recv)
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		addrs[id] = ep.Addr()
		eps = append(eps, ep)
	}
	t1, err := NewTCP(1, addrs, codec, func(msg.NodeID, msg.Message) {})
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
	t2, err := NewTCP(2, addrs, codec, c2.recv)
	if err != nil {
		t.Fatal(err)
	}
	addrs[2] = t2.Addr()
	t1, err := NewTCP(1, addrs, codec, func(msg.NodeID, msg.Message) {})
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
	t2b, err := NewTCP(2, addrs, codec, c2b.recv)
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
// framing: header and payload must arrive intact through the buffered,
// coalesced write path.
func TestTCPLargeFrame(t *testing.T) {
	set := cstruct.NewHistorySet(cstruct.KeyConflict)
	codec := Codec{Set: set}
	addrs := map[msg.NodeID]string{1: "127.0.0.1:0", 2: "127.0.0.1:0"}
	c2 := &counter{}
	t2, err := NewTCP(2, addrs, codec, c2.recv)
	if err != nil {
		t.Fatal(err)
	}
	defer t2.Close()
	addrs[2] = t2.Addr()
	t1, err := NewTCP(1, addrs, codec, func(msg.NodeID, msg.Message) {})
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
	// A small frame queued behind the large one exercises coalescing.
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
	tr, err := NewTCP(1, map[msg.NodeID]string{1: "127.0.0.1:0"}, codec,
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
	t2, err := NewTCP(2, addrs, codec, c2.recv)
	if err != nil {
		t.Fatal(err)
	}
	addrs[2] = t2.Addr()
	t1, err := NewTCP(1, addrs, codec, func(msg.NodeID, msg.Message) {})
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
	t2b, err := NewTCP(2, addrs, codec, c2b.recv)
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
	t1, err := NewTCP(1, addrs, codec, func(msg.NodeID, msg.Message) {
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
	t3, err := NewTCP(3, addrs, codec, func(msg.NodeID, msg.Message) {})
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
