package mcpaxos

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
)

// TestBenchModuleCompiles vets bench/, the benchmark of record. It is its own
// module (replace mcpaxos => ..), so the root ./... never compiles it: without
// this test an API change that breaks it shows up only in the next benchmark
// run. The environment pins the local toolchain and forbids module downloads.
func TestBenchModuleCompiles(t *testing.T) {
	cmd := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), "vet", "./...")
	cmd.Dir = "bench"
	cmd.Env = append(os.Environ(), "GOFLAGS=", "GOWORK=off", "GOTOOLCHAIN=local", "GOPROXY=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in bench/: %v\n%s", err, out)
	}
}
