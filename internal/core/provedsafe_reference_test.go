package core

import (
	"fmt"
	"sort"

	"mcpaxos/internal/ballot"
	"mcpaxos/internal/cstruct"
	"mcpaxos/internal/quorum"
)

// ProvedSafe implements Definition 1 of the paper by direct enumeration of
// k-quorums: given 1b reports from an i-quorum Q, it returns the set of
// c-structs pickable at round i. Exponential in the number of acceptors; it
// is the reference implementation, cross-checked against ProvedSafeSized.
//
// It returns an error when the quorum configuration is broken (Γ
// incompatible, impossible under Assumption 2).
func ProvedSafe(set cstruct.Set, sys quorum.AcceptorSystem, scheme ballot.Scheme, reports []Report) ([]cstruct.CStruct, error) {
	if len(reports) == 0 {
		return nil, fmt.Errorf("core: ProvedSafe on empty quorum")
	}
	k := reports[0].VRnd
	for _, r := range reports[1:] {
		k = ballot.Max(k, r.VRnd)
	}
	kacc := make(map[int]cstruct.CStruct)
	qidx := make(map[int]struct{}, len(reports))
	for _, r := range reports {
		qidx[r.AccIdx] = struct{}{}
		if r.VRnd.Equal(k) {
			kacc[r.AccIdx] = r.VVal
		}
	}

	var gamma []cstruct.CStruct
	for _, r := range quorum.Subsets(sys.N(), sys.Size(scheme.IsFast(k))) {
		inter := make([]int, 0, len(r))
		insideK := true
		for _, a := range r {
			if _, inQ := qidx[a]; !inQ {
				continue
			}
			if _, atK := kacc[a]; !atK {
				insideK = false
				break
			}
			inter = append(inter, a)
		}
		if !insideK || len(inter) == 0 {
			continue
		}
		vals := make([]cstruct.CStruct, 0, len(inter))
		for _, a := range inter {
			vals = append(vals, kacc[a])
		}
		gamma = append(gamma, set.GLB(vals...))
	}
	if len(gamma) == 0 {
		out := make([]cstruct.CStruct, 0, len(kacc))
		idxs := sortedKeys(kacc)
		for _, i := range idxs {
			out = append(out, kacc[i])
		}
		return out, nil
	}
	lub, ok := set.LUB(gamma...)
	if !ok {
		return nil, fmt.Errorf("core: Γ incompatible — fast quorum requirement violated")
	}
	return []cstruct.CStruct{lub}, nil
}

func sortedKeys(m map[int]cstruct.CStruct) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
