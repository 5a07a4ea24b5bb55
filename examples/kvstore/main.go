// KVStore: a replicated key-value store on the embedding API, with the
// throughput levers turned on — batching at each shard's stamping
// coordinator (BatchMax), two shards sequencing concurrently, a coordinator
// group per shard, and durable acceptor WALs on disk. The same protocol
// state machines as the experiments, over real sockets. The program exits
// non-zero if the replicas diverge.
//
//	go run ./examples/kvstore
package main

import (
	"fmt"
	"os"
	"time"

	"mcpaxos"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "kvstore:", err)
		os.Exit(1)
	}
}

func run() error {
	walDir, err := os.MkdirTemp("", "mckv-wal-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(walDir)

	spec := mcpaxos.LocalSpec(2, 3, 3, 2, 1)
	spec.BatchMax = 8    // pack up to 8 writes per consensus instance, waiting at most BatchWait (2ms) for company
	spec.WALDir = walDir // acceptors persist votes on disk
	spec, err = spec.ResolveEphemeral()
	if err != nil {
		return err
	}

	rep, err := mcpaxos.OpenReplica(spec)
	if err != nil {
		return err
	}
	defer rep.Close()
	cli, err := mcpaxos.DialClient(spec, spec.Clients[0].ID)
	if err != nil {
		return err
	}
	defer cli.Close()

	const writes = 64
	start := time.Now()
	calls := make([]*mcpaxos.Call, 0, writes)
	for i := 0; i < writes; i++ {
		calls = append(calls, cli.Set(fmt.Sprintf("user-%d", i%8), fmt.Sprintf("profile-%d", i)))
	}
	if err := cli.Wait(calls, 15*time.Second); err != nil {
		return err
	}
	fmt.Printf("%d batched writes through 2 shards in %v\n", writes, time.Since(start).Round(time.Millisecond))

	for _, l := range spec.Learners {
		if err := rep.WaitApplied(l.ID, writes, 10*time.Second); err != nil {
			return err
		}
		n, _ := rep.Applied(l.ID)
		snap, _ := rep.Snapshot(l.ID)
		fmt.Printf("replica %d (%d ops): %s\n", l.ID, n, snap)
	}
	st := cli.Stats()
	fmt.Printf("client: %d proposed, %d retries, %d duplicate replies suppressed\n",
		st.Proposed, st.Retries, st.DupReplies)
	s0, _ := rep.Snapshot(spec.Learners[0].ID)
	s1, _ := rep.Snapshot(spec.Learners[1].ID)
	if s0 != s1 {
		return fmt.Errorf("replicas diverged ✗")
	}
	fmt.Println("replicas converged ✓ (votes on disk under", walDir+")")
	return nil
}
