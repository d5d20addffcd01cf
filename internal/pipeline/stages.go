// The pipeline as a table (DESIGN.md §15): stageTable lists the memo
// boundaries of Fig. 7 in order, each row saying only what is specific
// to its stage, and Compile is the one loop that walks it.
package pipeline

import (
	"context"
	"fmt"
	"time"

	"reticle/internal/asm"
	"reticle/internal/cascade"
	"reticle/internal/codegen"
	"reticle/internal/faults"
	"reticle/internal/ir"
	"reticle/internal/isel"
	"reticle/internal/place"
	"reticle/internal/rerr"
	"reticle/internal/tdl"
	"reticle/internal/timing"
)

// printed pairs an assembly program with its canonical text. The text a
// row stores is the text the next row's key hashes and the text the
// artifact carries to the wire, so each program is printed at most once
// per compile — and not at all when it came out of the memo as text.
type printed struct {
	fn   *asm.Func
	text string
}

func (p *printed) Text() string {
	if p.text == "" {
		p.text = p.fn.String()
	}
	return p.text
}

// parse installs text as *p, and its symbol table as *syms, if it is
// well-formed assembly that checks against the target.
func (p *printed) parse(text string, target *tdl.Target, syms *ir.Symbols) bool {
	fn, s, err := asm.ParseResolved(text, target)
	if err != nil {
		return false
	}
	*p, *syms = printed{fn, text}, s
	return true
}

// compilation is the per-call state the rows read and write: the
// selected (then layout-optimized) program, its placed form, their one
// value table, what the output row contributes, and the artifact under
// construction.
type compilation struct {
	cfg *Config
	f   *ir.Func
	// checked, when not nil, is the table ir.Check built for f.
	checked     *ir.Symbols
	asm, placed printed
	// syms is the symbol table of the check that closed selection, or of
	// the parse that adopted a row's payload. Layout optimization rewrites
	// only names and locations and placement only locations, so it is the
	// table of asm and of placed alike, and no later row resolves a name.
	syms ir.Symbols
	out  outputEntry
	art  *Artifact
}

// step is one pipeline stage inside a row: its boundary (context-check
// label + fault point), its work, and where its wall time lands.
type step struct {
	label string
	fault faults.Point
	run   func(ctx context.Context, c *compilation) error
	slot  func(*StageTimes) *time.Duration
}

// stage is one row: a memo boundary and the stages it covers. tag,
// input (the exact text the row consumes) and the rows of keyFields that
// name key (keys.go: the slice of the config the row's output depends on,
// and whether the row runs at all) form the memo key. adopt decodes and
// validates a payload and installs it as the row's result only if
// usable; false is a miss. payload encodes the result. A hit skips every
// step's run — it counts len(steps) skipped stages — but no boundary.
type stage struct {
	tag     string
	key     keySet
	input   func(*compilation) string
	adopt   func(c *compilation, payload []byte) bool
	payload func(c *compilation) ([]byte, error)
	steps   []step
}

var stageTable = [...]stage{{
	tag:   StageSelect,
	key:   keySelect,
	input: func(c *compilation) string { return c.f.String() },
	adopt: func(c *compilation, payload []byte) bool {
		return c.asm.parse(string(payload), c.cfg.Target, &c.syms)
	},
	payload: func(c *compilation) ([]byte, error) { return []byte(c.asm.Text()), nil },
	steps: []step{{
		label: "selection", fault: FaultSelect,
		slot: func(t *StageTimes) *time.Duration { return &t.Select },
		run: func(_ context.Context, c *compilation) error {
			af, syms, err := isel.SelectWithSymbols(c.f, c.checked, c.cfg.Lib, isel.Options{Greedy: c.cfg.Greedy})
			if err != nil {
				return rerr.Wrap(rerr.Permanent, "select_failed", "instruction selection failed", err)
			}
			c.asm, c.syms = printed{fn: af}, syms
			return nil
		},
	}},
}, {
	tag:   StageCascade,
	key:   keyCascade,
	input: func(c *compilation) string { return c.asm.Text() },
	adopt: func(c *compilation, payload []byte) bool {
		chains, text, ok := parseCascadeFrame(payload)
		if !ok || !c.asm.parse(text, c.cfg.Target, &c.syms) {
			return false
		}
		c.art.CascadeChains = chains
		return true
	},
	payload: func(c *compilation) ([]byte, error) {
		return cascadeFrame(c.art.CascadeChains, c.asm.Text()), nil
	},
	steps: []step{{
		label: "layout optimization", fault: FaultCascade,
		slot: func(t *StageTimes) *time.Duration { return &t.Cascade },
		run: func(_ context.Context, c *compilation) error {
			// Selection's program is this compile's own and nothing reads
			// it after this row (its text, if the memo needed it, is
			// already printed), so it is rewritten where it stands.
			st, err := cascade.ApplyWithSymbols(c.asm.fn, c.syms, c.cfg.Target, cascade.Options{
				Cascades: c.cfg.Cascades,
				AccPort:  "c",
				MaxChain: c.cfg.Device.Height,
			})
			if err != nil {
				return rerr.Wrap(rerr.Permanent, "cascade_failed", "layout optimization failed", err)
			}
			c.asm, c.art.CascadeChains = printed{fn: c.asm.fn}, st.Chains
			return nil
		},
	}},
}, {
	tag:   StagePlace,
	key:   keyPlace,
	input: func(c *compilation) string { return c.asm.Text() },
	// Whole-placement adoption: an exact key match means the problem
	// (assembly + device + every output-relevant option) is one already
	// solved, so the recorded layout is taken outright — no solver, no
	// hint lookup. place.Verify revalidates it against the current
	// input, so a stale or hand-corrupted entry degrades to a cold
	// solve, never to a wrong artifact.
	adopt: func(c *compilation, payload []byte) bool {
		var p printed
		var syms ir.Symbols
		if !p.parse(string(payload), c.cfg.Target, &syms) || place.Verify(c.asm.fn, p.fn, c.cfg.Device) != nil {
			return false
		}
		c.placed, c.syms, c.art.WarmStart = p, syms, "stage"
		return true
	},
	payload: func(c *compilation) ([]byte, error) { return []byte(c.placed.Text()), nil },
	steps: []step{{
		label: "placement", fault: FaultPlace, run: runPlace,
		slot: func(t *StageTimes) *time.Duration { return &t.Place },
	}},
}, {
	// Codegen and timing are both pure functions of the placed assembly
	// under (target, device), so they share one entry.
	tag:     StageOutput,
	key:     keyOutput,
	input:   func(c *compilation) string { return c.placed.Text() },
	adopt:   func(c *compilation, payload []byte) bool { return c.out.parse(payload) },
	payload: func(c *compilation) ([]byte, error) { return c.out.frame() },
	steps: []step{{
		label: "code generation", fault: FaultCodegen,
		slot: func(t *StageTimes) *time.Duration { return &t.Codegen },
		run: func(_ context.Context, c *compilation) error {
			v, stats, err := codegen.GenerateWithSymbols(c.placed.fn, c.syms, c.cfg.Target)
			if err != nil {
				return rerr.Wrap(rerr.Permanent, "codegen_failed", "code generation failed", err)
			}
			c.out.Verilog = v.String()
			c.out.LUTs, c.out.DSPs, c.out.FFs, c.out.Carries = stats.Luts, stats.Dsps, stats.FFs, stats.Carries
			return nil
		},
	}, {
		label: "timing analysis", fault: FaultTiming,
		slot: func(t *StageTimes) *time.Duration { return &t.Timing },
		run: func(_ context.Context, c *compilation) error {
			rep, err := new(timing.Analyzer).Analyze(c.placed.fn, c.syms, c.cfg.Target, c.cfg.Device, timing.DefaultOptions())
			if err != nil {
				return rerr.Wrap(rerr.Permanent, "timing_failed", "timing analysis failed", err)
			}
			c.out.CriticalNs, c.out.FMaxMHz, c.out.CriticalPath = rep.CriticalNs, rep.FMaxMHz, rep.Path
			return nil
		},
	}},
}}

// runPlace solves the placement. The cross-request hint cache lives
// here and nowhere else: look up recorded anchors under the structural
// key, let place adopt them on an exact signature match, and record a
// fresh solution afterwards. A place-memo hit never gets here, so it
// bypasses the hint cache entirely.
func runPlace(ctx context.Context, c *compilation) error {
	cfg, art := c.cfg, c.art
	opts := place.Options{Shrink: cfg.Shrink, MaxSteps: cfg.MaxSolverSteps, SolverTimeout: cfg.SolverTimeout}
	hintKey := ""
	if cfg.HintCache != nil {
		hintKey = HintKeyFor(cfg, c.f)
		opts.Hints = cfg.HintCache.Lookup(ctx, hintKey)
	}
	var res *place.Result
	var err error
	if cfg.TimingDriven {
		res, err = refinePlace(ctx, c.asm.fn, c.syms, cfg.Target, cfg.Device, opts)
	} else {
		res, err = place.PlaceContext(ctx, c.asm.fn, cfg.Device, opts)
	}
	if err != nil {
		// Placement errors arrive typed (capacity exhausted, unsat
		// permanent, deadline); keep the classification, add the stage.
		return fmt.Errorf("reticle: placement: %w", err)
	}
	c.placed = printed{fn: res.Fn}
	art.Place = PlaceStats{
		SolverSteps:   res.SolverSteps,
		ShrinkProbes:  res.ShrinkIters,
		ProbesSkipped: res.ProbesSkipped,
		HintHits:      res.HintHits,
		HintTried:     res.HintTried,
	}
	art.WarmStart = res.WarmStart
	art.Degraded, art.DegradedReason = res.Degraded, res.DegradedReason
	// Record only fresh cold solutions: a degraded placement carries no
	// anchors, and an adoption would re-store the entry it came from.
	switch {
	case res.WarmStart == "adopted":
		art.Place.HintCacheHits, art.Place.HintCacheStepsSaved = 1, res.Anchors.ColdSteps
	case cfg.HintCache != nil && res.Anchors != nil:
		cfg.HintCache.Record(ctx, hintKey, res.Anchors)
	}
	return nil
}

// Compile runs the full pipeline on one IR function. It never mutates f,
// cfg, or anything reachable from them; all scratch state is per-call.
func Compile(ctx context.Context, cfg *Config, f *ir.Func) (*Artifact, error) {
	return CompileChecked(ctx, cfg, f, nil)
}

// CompileChecked is Compile on a function that ir.Check passed, checked
// being the symbol table that check built (ir.ParseSymbols hands it back),
// so selection does not resolve f's names again; f must not have changed
// since. A nil checked is Compile.
func CompileChecked(ctx context.Context, cfg *Config, f *ir.Func, checked *ir.Symbols) (*Artifact, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if f == nil {
		return nil, fmt.Errorf("pipeline: nil function")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	art := &Artifact{IR: f}
	c := &compilation{cfg: cfg, f: f, checked: checked, art: art}
	sc := cfg.StageCache
	t0 := time.Now()
	mark := t0
	for i := range stageTable {
		row := &stageTable[i]
		if !runs(cfg, row.key) {
			continue
		}
		hit, key := false, ""
		for j, st := range row.steps {
			// The boundary fires before the memo is consulted and on a hit
			// too: faults fire in pipeline order on every path.
			if err := stageBoundary(ctx, st.label, st.fault); err != nil {
				return nil, err
			}
			if j == 0 && sc != nil {
				// A payload the row cannot adopt is a miss; the store
				// below then heals the entry.
				key = keyOf(cfg, row.key, row.tag, row.input(c))
				payload, ok := sc.Lookup(ctx, row.tag, key)
				hit = ok && row.adopt(c, payload)
			}
			if !hit {
				if err := st.run(ctx, c); err != nil {
					return nil, err
				}
			}
			// Once degraded, nothing more is stored: the layout depends on
			// wall-clock time, and memoizing it (or anything derived from
			// it) would pin one slow compile on every future key match.
			if j == len(row.steps)-1 && !hit && sc != nil && !art.Degraded {
				if payload, err := row.payload(c); err == nil {
					sc.Store(ctx, row.tag, key, payload)
				}
			}
			now := time.Now()
			*st.slot(&art.Stages), mark = now.Sub(mark), now
		}
		if hit {
			art.StagesSkipped += len(row.steps)
		}
	}
	art.CompileDur = mark.Sub(t0) - art.Stages.Timing
	art.Asm, art.AsmText = c.asm.fn, c.asm.Text()
	art.Placed, art.PlacedText = c.placed.fn, c.placed.Text()
	art.Verilog, art.CriticalPath = c.out.Verilog, c.out.CriticalPath
	art.LUTs, art.DSPs, art.FFs, art.Carries = c.out.LUTs, c.out.DSPs, c.out.FFs, c.out.Carries
	art.CriticalNs, art.FMaxMHz = c.out.CriticalNs, c.out.FMaxMHz
	return art, nil
}
