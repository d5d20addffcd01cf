package reticle_test

import (
	"os"
	"strings"
	"testing"

	"reticle"
	"reticle/internal/eval"
)

// TestExperimentsTablesCurrent regenerates every figure with the full
// baseline schedule — what `go run ./cmd/reticle-bench` prints — and
// fails when a table of deterministic cells (utilization, run time and
// its ratios) differs from the one checked in between the section's
// markers in EXPERIMENTS.md, so a published number can neither drift
// from the code nor be edited by hand. Compile-time tables are wall
// clock and only have to be there.
//
//	go test -run TestExperimentsTablesCurrent -update .
//
// measures every panel eval.Runs times and rewrites the sections.
func TestExperimentsTablesCurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full baseline annealing schedule")
	}
	runs := 1
	if *reticle.Update {
		runs = eval.Runs
	}
	secs, err := eval.Sections("all", "", eval.Config{}, runs)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	for _, s := range secs {
		begin := strings.Index(doc, s.Begin())
		if begin < 0 {
			t.Fatalf("EXPERIMENTS.md has no section %q", strings.TrimSpace(s.Begin()))
		}
		size := strings.Index(doc[begin:], eval.End)
		if size < 0 {
			t.Fatalf("section %q is not closed by %q", s.Args, strings.TrimSpace(eval.End))
		}
		end := begin + size + len(eval.End)
		if *reticle.Update {
			doc = doc[:begin] + s.String() + doc[end:]
			continue
		}
		block := doc[begin:end]
		if got, want := strings.Count(block, "\n|"), strings.Count(s.String(), "\n|"); got != want {
			t.Errorf("section %q has %d table lines, reticle-bench prints %d", s.Args, got, want)
		}
		for _, tb := range s.Tables {
			if !tb.Timed && !strings.Contains(block, tb.String()) {
				t.Errorf("section %q is stale (rerun with -update); reticle-bench now prints\n%s", s.Args, tb)
			}
		}
	}
	if *reticle.Update {
		if err := os.WriteFile("EXPERIMENTS.md", []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
