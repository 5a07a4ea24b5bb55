package transport

import (
	"fmt"
	"net"

	"mcpaxos/internal/msg"
)

// listenTCP starts a TCP endpoint for node id on a listener of its own:
// addrs maps every node to a host:port; addrs[id] is listened on.
func listenTCP(id msg.NodeID, addrs map[msg.NodeID]string, codec Codec, recv RecvFn) (*TCP, error) {
	ln, err := net.Listen("tcp", addrs[id])
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addrs[id], err)
	}
	return NewTCPOnListener(id, ln, addrs, codec, recv), nil
}

// Addr returns the bound listen address (useful with ":0" ports).
func (t *TCP) Addr() string { return t.ln.Addr().String() }
