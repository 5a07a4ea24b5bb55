package runtime

// Accessors and helpers that only this package's tests use: no shipped code
// reads them.

import "mcpaxos/internal/msg"

// ID returns the agent's node ID.
func (a *Agent) ID() msg.NodeID { return a.id }
