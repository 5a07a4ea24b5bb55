package sim

// Accessors and helpers that only this package's tests use: no shipped code
// reads them.

import "mcpaxos/internal/msg"

// IsUp reports whether node id is currently up.
func (s *Sim) IsUp(id msg.NodeID) bool {
	n, ok := s.nodes[id]
	return ok && n.up
}
