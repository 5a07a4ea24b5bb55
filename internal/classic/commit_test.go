package classic

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"mcpaxos/internal/ballot"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/storage"
)

// loggedDisk is a Disk that appends each write it has taken to a shared log,
// once the write has returned: "put <key>" or "putall <sorted keys>".
type loggedDisk struct {
	storage.Disk
	log *[]string
}

func (d *loggedDisk) Put(key string, v any) {
	d.Disk.Put(key, v)
	*d.log = append(*d.log, "put "+key)
}

func (d *loggedDisk) PutAll(recs map[string]any) {
	d.Disk.PutAll(recs)
	*d.log = append(*d.log, "putall "+strings.Join(slices.Sorted(maps.Keys(recs)), " "))
}

// loggedEnv is an acceptor's env that appends each send to the same log:
// "send <type> to <node>".
type loggedEnv struct {
	discardEnv
	log  *[]string
	sent []msg.Message
}

func (e *loggedEnv) ID() msg.NodeID { return 200 }

func (e *loggedEnv) Send(to msg.NodeID, m msg.Message) {
	*e.log = append(*e.log, fmt.Sprintf("send %T to %v", m, to))
	e.sent = append(e.sent, m)
}

// loggedAcceptor builds an acceptor of cfg over a logged disk and env whose
// log starts empty after the acceptor's first-start write.
func loggedAcceptor(cfg Config) (*Acceptor, *loggedDisk, *loggedEnv) {
	var log []string
	disk, env := &loggedDisk{log: &log}, &loggedEnv{log: &log}
	a := NewAcceptor(env, cfg, disk)
	log = nil
	return a, disk, env
}

// A burst of k 2as that each complete a coordinator quorum is one write — k
// votes plus the scan bound — and every 2b of the burst leaves after it.
func TestGroupCommitOneWritePerBurst(t *testing.T) {
	const k = 5
	cfg := NewCluster(ClusterOpts{NAcceptors: 3, F: 1, Seed: 1, CoordsPerShard: 3}).Cfg
	a, disk, _ := loggedAcceptor(cfg)
	r := ballot.Ballot{MinCount: 1, ID: uint32(cfg.Coords[0])}
	p2as := func(coord msg.NodeID) []msg.Message {
		var ms []msg.Message
		for inst := uint64(0); inst < k; inst++ {
			ms = append(ms, msg.P2a{Inst: inst, Rnd: r, Coord: coord, Val: wrap(cstruct.Cmd{ID: 10 + inst})})
		}
		return ms
	}
	deliver(a, cfg.Coords[0], p2as(cfg.Coords[0])...)
	if len(*disk.log) != 0 {
		t.Fatalf("a burst of partial tallies wrote or sent %v, want nothing", *disk.log)
	}
	deliver(a, cfg.Coords[1], p2as(cfg.Coords[1])...)

	want := []string{"putall maxinst vote/0 vote/1 vote/2 vote/3 vote/4"}
	for range k {
		want = append(want, fmt.Sprintf("send msg.P2b to %v", cfg.Learners[0]))
	}
	if !slices.Equal(*disk.log, want) {
		t.Fatalf("the burst of %d accepts did\n  %v\nwant\n  %v", k, *disk.log, want)
	}
	if hi, _ := disk.Get(storage.KeyMaxInst); hi != uint64(k-1) {
		t.Errorf("scan bound %v, want %d", hi, k-1)
	}
	for inst := uint64(0); inst < k; inst++ {
		if _, v, ok := a.Vote(inst); !ok || v.ID != 10+inst {
			t.Errorf("instance %d: vote %v/%v, want command %d", inst, v, ok, 10+inst)
		}
	}
}

// A 1a in the same burst as an accept promises with the vote in it: the 1b
// reports the vote, so it too leaves only after the burst's write.
func TestGroupCommitHolds1bBehindVote(t *testing.T) {
	cfg := NewCluster(ClusterOpts{NCoords: 2, NAcceptors: 3, F: 1, Seed: 1}).Cfg
	a, disk, env := loggedAcceptor(cfg)
	r := ballot.Ballot{MinCount: 1, ID: uint32(cfg.Coords[0])}
	r2 := ballot.Ballot{MinCount: 2, ID: uint32(cfg.Coords[1])}
	deliver(a, cfg.Coords[0],
		msg.P2a{Inst: 0, Rnd: r, Coord: cfg.Coords[0], Val: wrap(cstruct.Cmd{ID: 7})},
		msg.P1a{Rnd: r2, Coord: cfg.Coords[1]})

	want := []string{
		"putall maxinst vote/0",
		fmt.Sprintf("send msg.P2b to %v", cfg.Learners[0]),
		fmt.Sprintf("send msg.P1bMulti to %v", cfg.Coords[1]),
	}
	if !slices.Equal(*disk.log, want) {
		t.Fatalf("an accept and a 1a in one burst did\n  %v\nwant\n  %v", *disk.log, want)
	}
	p1b := env.sent[1].(msg.P1bMulti)
	if len(p1b.Votes) != 1 || p1b.Votes[0].Inst != 0 || !p1b.Votes[0].VRnd.Equal(r) {
		t.Errorf("the 1b reports %+v, want the burst's vote at %v", p1b.Votes, r)
	}
}

// A vote's disk key is "vote/<decimal instance>": WAL directories written by
// earlier builds replay by these exact bytes.
func TestVoteKeyLayout(t *testing.T) {
	for _, inst := range []uint64{0, 1, 9, 10, 4096, 1<<40 | 7, ^uint64(0)} {
		if got, want := voteKey(inst), fmt.Sprintf("vote/%d", inst); got != want {
			t.Errorf("voteKey(%d) = %q, want %q", inst, got, want)
		}
	}
}
