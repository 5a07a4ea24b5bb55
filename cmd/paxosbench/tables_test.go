package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/tables from this build's output")

// goldenDir holds one file per simulator experiment: the exact bytes
// `paxosbench -exp <name>` prints at the flags goldenFlags gives it.
var goldenDir = filepath.Join("..", "..", "testdata", "tables")

// goldenFlags sizes each table so the whole set runs in seconds: E4 and E6
// at 64 commands, E12 and E13 at 128, E14 at 5 seeds; every other knob is
// the command line's default.
func goldenFlags(name string) (params, string) {
	p := params{seed: 1, trials: 20, seeds: 5, commands: 200}
	switch name {
	case "e4", "e6":
		p.commands = 64
		return p, "-commands 64"
	case "e12", "e13":
		p.commands = 128
		return p, "-commands 128"
	case "e14":
		return p, "-seeds 5"
	}
	return p, ""
}

// The paper's tables are golden files: every row of E1–E14 is deterministic,
// so a change to any of them shows up here as a diff to review, not as a
// sentence to trust. go test ./cmd/paxosbench -update regenerates them.
func TestGoldenTables(t *testing.T) {
	for _, tb := range tables {
		t.Run(tb.name, func(t *testing.T) {
			p, flags := goldenFlags(tb.name)
			cmdline := strings.TrimSpace("paxosbench -exp " + tb.name + " " + flags)
			var out bytes.Buffer
			if err := tb.run(&out, p); err != nil {
				t.Fatalf("%s: %v", cmdline, err)
			}
			path := filepath.Join(goldenDir, tb.name+".txt")
			if *update {
				if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if d := firstDiff(string(want), out.String()); d != "" {
				t.Errorf("%s differs from %s: %s\n(rerun with -update if the change is intended)", cmdline, path, d)
			}
		})
	}
}

// firstDiff describes the first line where got departs from want, or returns
// "" when they are identical.
func firstDiff(want, got string) string {
	if want == got {
		return ""
	}
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := range max(len(wl), len(gl)) {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d\n  want %q\n  got  %q", i+1, w, g)
		}
	}
	return "line endings differ"
}
