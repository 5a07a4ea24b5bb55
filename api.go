package mcpaxos

import (
	"mcpaxos/internal/deploy"
)

// The embedding API: a live deployment of the batched, sharded,
// multicoordinated stack over real TCP is declared by a ClusterSpec and run
// by two embeddable types — Replica opens one process's share of the
// deployment's nodes, Client connects, load-balances and correlates
// replies. See the README's Embedding section for a quickstart.

// ClusterSpec declares a full deployment: every node's address, the shard
// residues, the coordinator groups, and the batched-path tuning knobs.
type ClusterSpec = deploy.ClusterSpec

// NodeSpec names one node: its ID and TCP listen address.
type NodeSpec = deploy.NodeSpec

// Replica runs one process's share of a deployment (coordinator group
// members, acceptors with their WALs, learner replicas with the SMR apply
// loop), each node behind its own TCP endpoint.
type Replica = deploy.Replica

// Client is the embeddable deployment client: round-robin shard routing,
// coordinator-group load balancing, retry with backoff across coordinator
// failures, and apply-result correlation. It sends each command on its own;
// batching happens at the ingress of the coordinator that stamps it.
type Client = deploy.Client

// Call is one in-flight client proposal; it resolves with the state
// machine's apply result.
type Call = deploy.Call

// ClientStats counts a client's retry and correlation activity.
type ClientStats = deploy.ClientStats

// LocalSpec builds a loopback deployment spec with ephemeral ports:
// shards×coordsPerShard coordinators, nAcceptors acceptors, nLearners
// learner replicas, nClients clients. Resolve the ports with
// ClusterSpec.ResolveEphemeral before opening.
func LocalSpec(shards, coordsPerShard, nAcceptors, nLearners, nClients int) ClusterSpec {
	return deploy.LocalSpec(shards, coordsPerShard, nAcceptors, nLearners, nClients)
}

// OpenReplica starts the given nodes of the spec in this process (all
// protocol nodes when no IDs are given).
func OpenReplica(spec ClusterSpec, ids ...uint32) (*Replica, error) {
	return deploy.Open(spec, ids...)
}

// DialClient connects the spec's client id to the deployment.
func DialClient(spec ClusterSpec, id uint32) (*Client, error) {
	return deploy.Dial(spec, id)
}
