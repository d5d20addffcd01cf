package pipeline

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"reticle/internal/bench"
	"reticle/internal/ir"
	"reticle/internal/irgen"
)

// stageAllocBudget bounds allocs/op of each stage row (select, cascade,
// place, output) with the memo off, on a program parsed as the front door
// parses it. Each budget is what the row allocates today (in brackets)
// plus a headroom of 5 % or 8 allocations, whichever is larger; irgen16
// sums the rows over irgen seeds 0–15. Tier-1 fails when a change puts a
// per-instruction allocation back on the cold path: a second resolution
// of the names, a per-cluster map in placement, a clone per instruction.
var stageAllocBudget = map[string][4]float64{
	"ultrascale/tensordot5x36": {432, 63, 123, 25},    // [411 55 115 17]
	"ultrascale/tensoradd512":  {302, 10, 229, 25},    // [287 2 218 17]
	"ultrascale/fsm9":          {90, 10, 97, 54},      // [82 2 89 46]
	"ultrascale/irgen16":       {2117, 40, 1682, 563}, // [2016 32 1601 536]
	"agilex/tensordot5x36":     {434, 63, 122, 25},    // [413 55 114 17]
	"agilex/tensoradd512":      {302, 10, 229, 25},    // [287 2 218 17]
	"agilex/fsm9":              {90, 10, 97, 54},      // [82 2 89 46]
	"agilex/irgen16":           {2117, 40, 1682, 564}, // [2016 32 1601 537]
}

// TestStageAllocBudget runs each row of the stage table on its own,
// from the state the rows before it leave, and counts what one run
// allocates.
func TestStageAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	type kernel struct {
		name  string
		funcs []*ir.Func
	}
	var kernels []kernel
	for _, k := range []struct {
		name string
		f    func() (*ir.Func, error)
	}{
		{"tensordot5x36", func() (*ir.Func, error) { return bench.TensorDot(5, 36) }},
		{"tensoradd512", func() (*ir.Func, error) { return bench.TensorAdd(512) }},
		{"fsm9", func() (*ir.Func, error) { return bench.FSM(9) }},
	} {
		f, err := k.f()
		if err != nil {
			t.Fatal(err)
		}
		kernels = append(kernels, kernel{k.name, []*ir.Func{f}})
	}
	seeds := kernel{name: "irgen16"}
	for seed := int64(0); seed < 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		seeds.funcs = append(seeds.funcs, irgen.Generate(rng, irgen.Config{Instrs: 24, WithVectors: seed%2 == 0}))
	}
	kernels = append(kernels, seeds)

	for _, family := range []string{"ultrascale", "agilex"} {
		cfg := familyConfig(t, family)
		for _, k := range kernels {
			name := family + "/" + k.name
			var got [len(stageTable)]float64
			for _, f := range k.funcs {
				rows := stageAllocs(t, cfg, f)
				for i := range got {
					got[i] += rows[i]
				}
			}
			budget, ok := stageAllocBudget[name]
			if !ok {
				t.Errorf("%s: no budget; measured %v", name, got)
				continue
			}
			for i, row := range stageTable {
				if got[i] > budget[i] {
					t.Errorf("%s: %s row: %v allocations per run, budget %v", name, row.tag, got[i], budget[i])
				}
			}
			t.Logf("%s: %v", name, got)
		}
	}
}

// stageAllocs returns allocs/op of each row of the stage table on f. Each
// run starts from a fresh copy of the program the row reads, made outside
// the count: the cascade row rewrites the selected program in place.
func stageAllocs(t *testing.T, cfg *Config, f *ir.Func) [len(stageTable)]float64 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ctx := context.Background()
	// As the front door hands it over: parsed, with its checked table.
	f, checked, err := ir.ParseSymbols(f.String())
	if err != nil {
		t.Fatal(err)
	}
	c := &compilation{cfg: cfg, f: f, checked: &checked, art: &Artifact{IR: f}}
	var out [len(stageTable)]float64
	for i := range stageTable {
		row := &stageTable[i]
		if !runs(cfg, row.key) {
			continue
		}
		saved, savedArt := *c, *c.art
		run := func() {
			*c, *c.art = saved, savedArt
			if saved.asm.fn != nil {
				c.asm.fn = saved.asm.fn.Clone()
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for _, st := range row.steps {
				if err = st.run(ctx, c); err != nil {
					break
				}
			}
			runtime.ReadMemStats(&after)
			out[i] += float64(after.Mallocs - before.Mallocs)
		}
		run() // warm up
		const runs = 5
		out[i] = 0
		for range runs {
			run()
		}
		out[i] = math.Floor(out[i] / runs)
		if err != nil {
			t.Fatal(fmt.Errorf("%s row: %w", row.tag, err))
		}
	}
	return out
}
