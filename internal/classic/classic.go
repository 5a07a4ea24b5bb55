// Package classic is the deployed protocol engine: multi-instance Paxos
// whose rounds are served by coordinator groups of size c = CoordsPerShard
// (Section 4.1 of the Multicoordinated Paxos paper, applied per shard).
// There is one round path, parameterised by c. Every member of a round's
// group forwards the shard's sequence-numbered proposal stream as 2a
// messages, acceptors accept an instance once a coordinator quorum
// (⌊c/2⌋+1) forwarded the same value, and learners learn from a quorum of
// matching 2b votes. Classic Paxos (Section 2.1) is the case c = 1: the one
// coordinator quorum is the round's owner alone, so an acceptor accepts on
// the first 2a.
//
// Phase 1 runs once per round and covers every instance of the shard, so in
// stable runs each command costs exactly three message delays at any c:
// propose → 2a → 2b.
//
// Layout: classic.go declares the deployment (Config) and the command
// vocabulary every role shares (CmdID, Noop); acceptor.go, learner.go and
// proposer.go are the other agents, and commit.go is the acceptor's one
// durable write per delivery burst; cluster.go hosts them all on the
// simulator. The Coordinator is one type split by concern:
// coordinator.go holds its state, message and timer dispatch and shard
// geometry; rounds.go runs phase 1, the stale-chase and repair (Sections
// 2.1.2, 4.3, 4.4); window.go forwards assigned instances as 2as within the
// pipeline window and converges divergent values; ingress.go is the
// deployment's server-side sequencer — stamping and batching client
// submissions, the stamper relay, and the fill and skip no-ops.
package classic

import (
	"fmt"
	"slices"

	"mcpaxos/internal/ballot"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/quorum"
)

// Config describes a Classic Paxos deployment.
type Config struct {
	// Coords lists the coordinator processes (potential leaders).
	Coords []msg.NodeID
	// Acceptors lists the acceptor processes.
	Acceptors []msg.NodeID
	// Learners lists the learner processes.
	Learners []msg.NodeID
	// Quorums is the acceptor quorum system; classic Paxos only uses its
	// classic (n−F) size.
	Quorums quorum.AcceptorSystem
	// Shards partitions the instance space Mencius-style: the leader of
	// shard k exclusively sequences instances ≡ k (mod Shards), so up to
	// Shards leaders run concurrently, each with its own pipeline window.
	// Acceptors keep one round per shard; learners are unaffected (learning
	// stays per-instance) and the SMR layer merges the shards back into one
	// total order by instance number (internal/smr.Merger). 0 or 1 means the
	// classic single-sequencer deployment.
	Shards int
	// CoordsPerShard is the paper's c: the number of coordinators serving
	// each round of a shard (RoundGroup). Acceptors accept an instance once a
	// coordinator quorum — ⌊c/2⌋+1 members, a quorum.CoordSystem per shard —
	// forwarded the same value for it, so ⌊c/2⌋ coordinator crashes per
	// shard mask without a round change, at unchanged latency and acceptor
	// quorum size. Conflicting 2a values within one round are the Section
	// 4.2 collision: acceptors promote the shard to the successor round and
	// the group re-establishes it. 0 or 1 means c = 1: the group is the
	// round's owner alone and its quorum is that single coordinator —
	// Classic Paxos, where a crashed owner costs a round change by whichever
	// standby takes the shard over.
	CoordsPerShard int
}

// NShards returns the number of instance-space shards (at least 1).
func (c Config) NShards() int {
	if c.Shards < 2 {
		return 1
	}
	return c.Shards
}

// ShardOf returns the shard owning instance inst.
func (c Config) ShardOf(inst uint64) int { return int(inst % uint64(c.NShards())) }

// ShardCoords returns the coordinators serving shard, by the deployment
// convention that coordinator i serves shard i mod NShards: the shard's
// primary plus its standbys. Proposers address the whole group so a shard
// keeps deciding when its primary fails and a standby takes over — the
// sharded counterpart of the unsharded broadcast-to-all-coordinators path.
// Unsharded configurations return every coordinator.
func (c Config) ShardCoords(shard int) []msg.NodeID {
	n := c.NShards()
	if n == 1 {
		return c.Coords
	}
	var out []msg.NodeID
	for i := shard; i < len(c.Coords); i += n {
		out = append(out, c.Coords[i])
	}
	return out
}

// NCoordsPerShard returns the coordinator group size c per shard (at least 1).
func (c Config) NCoordsPerShard() int {
	if c.CoordsPerShard < 2 {
		return 1
	}
	return c.CoordsPerShard
}

// RoundGroup returns the coordinators serving round r of shard — the one
// place a round's coordinator set is decided: the c members of
// ShardCoords(shard) starting at the position of r's owner, wrapping around
// (position 0 when r names no coordinator of the shard, as the zero round and
// an acceptor's recovery floor do). A shard deployed with exactly c
// coordinators is served by all of them in every round; at c = 1 the group
// is the round's owner alone, so a standby that starts a round takes the
// shard over.
func (c Config) RoundGroup(shard int, r ballot.Ballot) []msg.NodeID {
	all := c.ShardCoords(shard)
	n := c.NCoordsPerShard()
	if len(all) <= n {
		return all
	}
	start := max(slices.Index(all, msg.NodeID(r.ID)), 0)
	out := make([]msg.NodeID, n)
	for i := range out {
		out[i] = all[(start+i)%len(all)]
	}
	return out
}

// InRoundGroup reports whether id serves round r of shard: RoundGroup's
// membership, decided from positions in ShardCoords(shard) without building
// either slice, since an acceptor asks it of every 2a.
func (c Config) InRoundGroup(shard int, r ballot.Ballot, id msg.NodeID) bool {
	pos, size := c.shardPos(shard, id)
	if pos < 0 {
		return false
	}
	n := c.NCoordsPerShard()
	if size <= n {
		return true
	}
	start, _ := c.shardPos(shard, msg.NodeID(r.ID))
	return (pos-max(start, 0)+size)%size < n
}

// shardPos returns id's position in ShardCoords(shard) (-1 if absent) and
// that group's size.
func (c Config) shardPos(shard int, id msg.NodeID) (pos, size int) {
	n := c.NShards()
	if n == 1 {
		shard = 0
	}
	pos = -1
	for i := shard; i < len(c.Coords); i += n {
		if c.Coords[i] == id && pos < 0 {
			pos = size
		}
		size++
	}
	return pos, size
}

// CoordQuorumSize returns the 2a quorum a value needs from a round's group
// before an acceptor may accept it: ⌊c/2⌋+1, which is 1 at c = 1.
func (c Config) CoordQuorumSize() int {
	return quorum.MustCoordSystem(c.NCoordsPerShard()).Size()
}

// Validate checks the configuration, including that every shard deploys at
// least a full group of CoordsPerShard coordinators.
func (c Config) Validate() error {
	switch {
	case len(c.Coords) == 0:
		return fmt.Errorf("classic: no coordinators")
	case len(c.Acceptors) != c.Quorums.N():
		return fmt.Errorf("classic: %d acceptors but quorum system expects %d",
			len(c.Acceptors), c.Quorums.N())
	case len(c.Learners) == 0:
		return fmt.Errorf("classic: no learners")
	case c.NShards() > len(c.Coords):
		return fmt.Errorf("classic: %d shards need at least as many coordinators, have %d",
			c.NShards(), len(c.Coords))
	}
	for k := 0; k < c.NShards(); k++ {
		if got := len(c.ShardCoords(k)); got < c.NCoordsPerShard() {
			return fmt.Errorf("classic: shard %d has %d coordinators, group size %d requires more deployed coordinators",
				k, got, c.NCoordsPerShard())
		}
	}
	return nil
}

// The command vocabulary every role of a deployment shares: how a command ID
// names its issuer, and the no-op that fills a slot nobody claimed.

// ClientShift positions the issuing client's node ID inside a command ID,
// below batch.IDBase: id = client<<ClientShift | req, req being the client's
// own request counter. Node IDs stay below 1<<23, so the fields never meet.
const ClientShift = 40

// CmdID is the command ID client stamps on its req-th request.
func CmdID(client msg.NodeID, req uint64) uint64 { return uint64(client)<<ClientShift | req }

// SplitCmdID recovers the issuing client and request counter from a command
// ID. Client 0 means the ID was not stamped by a client — simulator command
// IDs never are: no reply is owed for it, and it names no ingress request.
func SplitCmdID(id uint64) (client msg.NodeID, req uint64) {
	return msg.NodeID(id >> ClientShift & (1<<23 - 1)), id & (1<<ClientShift - 1)
}

// noopKey is the fill no-op's key, reserved: no client may write it.
const noopKey = "\x00noop"

// Noop is the canonical no-op for instance inst, what a group stamps into a
// slot the merged order would otherwise stall on (msg.Fill: the Mencius
// skip, riding the group's ordinary crash-masked path). Every member derives
// the identical command, so two fills never collide; its ID is the instance,
// below the client bits, so no reply is owed for it.
func Noop(inst uint64) cstruct.Cmd {
	return cstruct.Cmd{ID: inst, Key: noopKey, Op: cstruct.OpWrite}
}

// IsNoop reports whether c is a fill no-op: it occupies its instance but
// never reaches a state machine, and any other value beats it (prefer).
func IsNoop(c cstruct.Cmd) bool { return c.Key == noopKey }

// single-value helpers shared by the single-value protocols.

// wrap lifts a command into a single-value c-struct.
func wrap(c cstruct.Cmd) cstruct.CStruct { return cstruct.NewSingleValue(c) }

// unwrap extracts the command of a single-value c-struct.
func unwrap(v cstruct.CStruct) (cstruct.Cmd, bool) {
	sv, ok := v.(cstruct.SingleValue)
	if !ok {
		return cstruct.Cmd{}, false
	}
	return sv.Value()
}
