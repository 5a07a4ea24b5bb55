package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareFiles applies the end-to-end bounds to two result files and returns
// the exit code: 1 when any metric on any workload got worse by more than its
// bound, naming each, or when the two cannot be compared.
func compareFiles(oldPath, newPath string) int {
	var sets [2]resultSet
	for i, p := range []string{oldPath, newPath} {
		b, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(b, &sets[i])
		}
		if err != nil {
			fatalf("%s: %v", p, err)
		}
	}
	return compareSets(os.Stdout, sets[0], sets[1])
}

// compareSets holds every end-to-end metric of every workload of the old set
// against its bound: the new value may be worse than the old by at most that
// share of the old. fail_share is held to an absolute rise. The comparison
// also fails when the two sets were not measured the same way, when a gated
// workload of the old set is missing from the new one or has no end-to-end
// values on either side, and when the new set failed its correctness gate.
func compareSets(out io.Writer, old, new resultSet) int {
	newBy := map[string]workloadResult{}
	for _, w := range new.Workloads {
		newBy[w.Workload] = w
	}
	failures := 0
	flag := func(format string, args ...any) {
		failures++
		fmt.Fprintf(out, "FAIL "+format+"\n", args...)
	}
	fmt.Fprintf(out, "\ncompare %s -> %s\n", old.GitSHA, new.GitSHA)
	if old.how != new.how {
		flag("measured differently: %+v -> %+v", old.how, new.how)
	}
	if len(old.Workloads) == 0 {
		flag("the old set holds no workload")
	}
	for _, ow := range old.Workloads {
		// An ungated workload's rows are printed for the record; its spread
		// exceeds the bounds with no change at all, so it cannot fail them.
		w, _ := workloadByName(ow.Workload)
		nw, ok := newBy[ow.Workload]
		if !ok || ow.EndToEnd == nil || nw.EndToEnd == nil {
			if !w.Ungated {
				flag("%s: no end-to-end values on both sides", ow.Workload)
			}
			continue
		}
		if !nw.Correct {
			flag("%s: correctness gate failed", nw.Workload)
		}
		for _, m := range endToEnd {
			o, n := ow.EndToEnd[m.Name].Value, nw.EndToEnd[m.Name].Value
			if o <= 0 || n <= 0 {
				// Every repetition failed its set-up: nothing was measured.
				if !w.Ungated {
					flag("%s x %s: %.4f -> %.4f %s, no value to compare", m.Name, nw.Workload, o, n, m.Unit)
				}
				continue
			}
			worse := (n - o) / o
			if m.Better == higher {
				worse = -worse
			}
			fmt.Fprintf(out, "  %-15s %-14s %12.4f -> %12.4f %-6s %+6.1f%% worse (bound %.0f%%)\n",
				nw.Workload, m.Name, o, n, m.Unit, worse*100, m.Bound*100)
			if worse > m.Bound && !w.Ungated {
				flag("%s x %s: %.4f -> %.4f %s, %.1f%% worse, bound %.0f%%",
					m.Name, nw.Workload, o, n, m.Unit, worse*100, m.Bound*100)
			}
		}
		of, nf := perOp(float64(ow.Failed), ow.Attempted), perOp(float64(nw.Failed), nw.Attempted)
		if nf-of > failShareBound {
			flag("fail_share x %s: %.4f -> %.4f, bound +%.2f absolute", nw.Workload, of, nf, failShareBound)
		}
	}
	if failures > 0 {
		fmt.Fprintf(out, "%d failure(s)\n", failures)
		return 1
	}
	fmt.Fprintln(out, "no end-to-end metric worse than its bound")
	return 0
}
