// Failover: the availability argument of the paper (Sections 1 and 4.1),
// live over TCP. A command stream runs against a deployment whose shards
// are each served by a 3-coordinator group; mid-stream one coordinator per
// shard is killed — the stamping primaries, the members every submission
// goes to. The surviving quorums keep forwarding the same sequence-numbered
// stream, so the crash masks completely: every command still applies, with
// zero round changes. And it costs the caller no retry interval: the client's
// lost connections move it to the next member of each group, which takes the
// stamping over when it finds the primary unreachable. The program exits
// non-zero if the failover took a timer-driven retry or a round change.
//
//	go run ./examples/failover
package main

import (
	"fmt"
	"os"
	"time"

	"mcpaxos"
)

func main() {
	spec, err := mcpaxos.LocalSpec(2, 3, 3, 2, 1).ResolveEphemeral()
	if err != nil {
		panic(err)
	}
	// A client's first retry comes after twice this: long enough that a retry
	// counted below is a failover paid for by timer, not a slow first write.
	spec.RetryEvery = 250 * time.Millisecond
	rep, err := mcpaxos.OpenReplica(spec)
	if err != nil {
		panic(err)
	}
	defer rep.Close()
	cli, err := mcpaxos.DialClient(spec, spec.Clients[0].ID)
	if err != nil {
		panic(err)
	}
	defer cli.Close()

	const writes = 24
	half := writes / 2
	calls := make([]*mcpaxos.Call, 0, writes)
	for i := 0; i < half; i++ {
		calls = append(calls, cli.Set(fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)))
	}
	if err := cli.Wait(calls, 10*time.Second); err != nil {
		panic(err)
	}
	fmt.Printf("%d writes decided; killing one coordinator per shard (%d and %d) mid-stream...\n",
		half, spec.Coords[0].ID, spec.Coords[1].ID)
	rep.Kill(spec.Coords[0].ID)
	rep.Kill(spec.Coords[1].ID)

	killed := time.Now()
	for i := half; i < writes; i++ {
		calls = append(calls, cli.Set(fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)))
	}
	if err := cli.Wait(calls, 20*time.Second); err != nil {
		panic(err)
	}
	fmt.Printf("%d writes acked %v after the kills (one retry interval is %v)\n",
		writes-half, time.Since(killed).Round(100*time.Microsecond), 2*spec.RetryEvery)
	for _, l := range spec.Learners {
		if err := rep.WaitApplied(l.ID, writes, 10*time.Second); err != nil {
			panic(err)
		}
	}
	s0, _ := rep.Snapshot(spec.Learners[0].ID)
	s1, _ := rep.Snapshot(spec.Learners[1].ID)
	fmt.Printf("all %d writes applied on both replicas: %v\n", writes, s0 == s1)
	retries, rc := cli.Stats().Retries, rep.RoundChanges()
	fmt.Printf("client retries: %d, round changes: %d\n", retries, rc)
	if retries > 0 || rc > 0 {
		fmt.Println("the failover was paid for with a retry interval or a round change (unexpected)")
		os.Exit(1)
	}
	fmt.Println("zero retries, zero round changes — the coordinator groups masked both crashes ✓")
}
