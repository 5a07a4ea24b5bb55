package storage

import (
	"testing"

	"mcpaxos/internal/ballot"
)

// TestIncarnation walks the record through an acceptor's lives: one write at
// the first start, one per recovery, one per MCount the acceptor learns of
// from the rounds it joins, none otherwise — and every recovery starts above
// all of it.
func TestIncarnation(t *testing.T) {
	var d Disk
	step := func(what string, wantWrites uint64, do func()) {
		t.Helper()
		pre := d.Writes()
		do()
		if got := d.Writes() - pre; got != wantWrites {
			t.Errorf("%s: %d writes, want %d", what, got, wantWrites)
		}
	}
	var inc Incarnation
	var start ballot.Ballot

	step("first start", 1, func() { inc, start = LoadIncarnation(&d, ballot.Zero) })
	if !start.IsZero() {
		t.Errorf("first start at %v, want round Zero", start)
	}
	step("rounds of the first incarnation", 0, func() {
		inc.Observe(ballot.Ballot{MinCount: 1, ID: 100})
		inc.Observe(ballot.Ballot{MinCount: 9, ID: 101})
	})
	step("a peer's recovery lifts the rounds", 1, func() {
		inc.Observe(ballot.Ballot{MCount: 3, MinCount: 1, ID: 100})
		inc.Observe(ballot.Ballot{MCount: 3, MinCount: 2, ID: 100})
		inc.Observe(ballot.Ballot{MCount: 2, MinCount: 7, ID: 100})
	})
	step("recovery", 1, func() { inc, start = LoadIncarnation(&d, ballot.Ballot{MCount: 3, MinCount: 2, ID: 100}) })
	if want := (ballot.Ballot{MCount: 4}); start != want {
		t.Errorf("recovered at %v, want %v: above every round joined", start, want)
	}
	step("rounds at the recovered incarnation", 0, func() { inc.Observe(ballot.Ballot{MCount: 4, MinCount: 1, ID: 100}) })

	// A store written before the record followed the joined rounds: the
	// counter (4) is below a vote's round.
	step("recovery below a restored vote", 1, func() { _, start = LoadIncarnation(&d, ballot.Ballot{MCount: 6, MinCount: 1, ID: 100}) })
	if want := (ballot.Ballot{MCount: 7}); start != want {
		t.Errorf("recovered at %v, want %v: above the restored vote", start, want)
	}
}
