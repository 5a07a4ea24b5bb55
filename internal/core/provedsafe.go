package core

import (
	"fmt"
	"sort"

	"mcpaxos/internal/ballot"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/msg"
	"mcpaxos/internal/quorum"
)

// Report is one acceptor's phase 1b payload as seen by a coordinator: the
// acceptor's index in the configuration, the round it last accepted at, and
// the c-struct it accepted there (⊥ at round Zero for fresh acceptors).
type Report struct {
	AccIdx int
	VRnd   ballot.Ballot
	VVal   cstruct.CStruct
}

// ProvedSafeSized implements the cardinality-based procedure of Section
// 3.3.2: with size-based quorums, the interesting intersections are exactly
// the subsets of the k-acceptors of cardinality |Q| + |k-quorum| − n. This
// is the implementation agents run.
func ProvedSafeSized(set cstruct.Set, sys quorum.AcceptorSystem, scheme ballot.Scheme, reports []Report) ([]cstruct.CStruct, error) {
	if len(reports) == 0 {
		return nil, fmt.Errorf("core: ProvedSafe on empty quorum")
	}
	k := reports[0].VRnd
	for _, r := range reports[1:] {
		k = ballot.Max(k, r.VRnd)
	}
	var kaccIdx []int
	kvals := make(map[int]cstruct.CStruct)
	for _, r := range reports {
		if r.VRnd.Equal(k) {
			kaccIdx = append(kaccIdx, r.AccIdx)
			kvals[r.AccIdx] = r.VVal
		}
	}
	sort.Ints(kaccIdx)

	interSize := sys.MinInterSize(len(reports), scheme.IsFast(k))
	if interSize < 1 {
		interSize = 1
	}
	if len(kaccIdx) < interSize {
		// No k-quorum can lie entirely inside the k-acceptors: nothing was
		// or can be chosen at k beyond what lower rounds chose; any
		// reported value is pickable.
		out := make([]cstruct.CStruct, 0, len(kaccIdx))
		for _, i := range kaccIdx {
			out = append(out, kvals[i])
		}
		return out, nil
	}
	var gamma []cstruct.CStruct
	for _, sub := range quorum.Subsets(len(kaccIdx), interSize) {
		vals := make([]cstruct.CStruct, 0, interSize)
		for _, j := range sub {
			vals = append(vals, kvals[kaccIdx[j]])
		}
		gamma = append(gamma, set.GLB(vals...))
	}
	lub, ok := set.LUB(gamma...)
	if !ok {
		return nil, fmt.Errorf("core: Γ incompatible — fast quorum requirement violated")
	}
	return []cstruct.CStruct{lub}, nil
}

// PickValue deterministically selects one pickable c-struct: the longest,
// breaking ties by rendering. Any element of the ProvedSafe set is safe;
// preferring the longest loses no accepted commands.
func PickValue(cands []cstruct.CStruct) cstruct.CStruct {
	best := cands[0]
	for _, c := range cands[1:] {
		if c.Len() > best.Len() || (c.Len() == best.Len() && c.String() < best.String()) {
			best = c
		}
	}
	return best
}

// safeValue is Phase2Start's pick for the round a quorum of acceptors
// answered with p1bs: PickValue of ProvedSafe. ok is false on a broken quorum
// configuration, where no pick is safe.
func (c Config) safeValue(p1bs []msg.P1b) (v cstruct.CStruct, ok bool) {
	reports := make([]Report, 0, len(p1bs))
	for _, p := range p1bs {
		idx := c.accIndex(p.Acc)
		if idx < 0 {
			continue
		}
		vval := p.VVal
		if vval == nil {
			vval = c.Set.Bottom()
		}
		reports = append(reports, Report{AccIdx: idx, VRnd: p.VRnd, VVal: vval})
	}
	cands, err := ProvedSafeSized(c.Set, c.Quorums, c.Scheme, reports)
	if err != nil || len(cands) == 0 {
		return nil, false
	}
	return PickValue(cands), true
}
