package irgen

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/digest.golden")

// digest hashes the printed programs of seeds 0–63 under one vector
// setting; Instrs runs through the default (0) and 1–63.
func digest(vectors bool) string {
	h := sha256.New()
	for seed := int64(0); seed < 64; seed++ {
		f := Generate(rand.New(rand.NewSource(seed)), Config{Instrs: int(seed), WithVectors: vectors})
		fmt.Fprintf(h, "%s\n", f)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// The generator's output is part of other suites' recorded data (fuzz
// seeds, corpora, the benchmark's kernels): the same seed must print the
// same program across versions, not just across two runs of one build.
func TestGenerationDigest(t *testing.T) {
	got := fmt.Sprintf("scalar %s\nvectors %s\n", digest(false), digest(true))
	path := filepath.Join("testdata", "digest.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("irgen output moved:\ngot  %swant %s", got, want)
	}
}
