package reticle

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchmarkModuleVets type-checks the nested benchmark/ module, which
// `go test ./...` at the root does not see, against this tree. The
// benchmark is frozen and imports internal packages directly, so an
// internal API change that breaks it must fail here — in tier-1 — and not
// first in the pipeline's benchmark step. Vet only reads benchmark/: its
// outputs go to the Go build cache, and a read-only module mode keeps it
// from touching benchmark/go.mod.
func TestBenchmarkModuleVets(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles every package the benchmark imports")
	}
	cmd := exec.Command("go", "vet", "./...")
	cmd.Dir = "benchmark"
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=readonly", "GOPROXY=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("benchmark/ no longer compiles against this tree: %v\n%s", err, out)
	}
}
