// Package pipeline is the shared core of the Reticle compilation
// pipeline (Fig. 7 of the paper): selection, layout optimization,
// placement, code generation, and timing analysis, behind one
// context-aware entry point.
//
// The package exists so that the public facade (package reticle) and the
// concurrent batch compiler (internal/batch) drive the exact same code.
// A Config is immutable once built: every field is read-only shared
// state (target description, device layout, compiled pattern library,
// cascade metadata), and Compile allocates all mutable scratch per call.
// Any number of goroutines may call Compile against one Config
// concurrently; the batch race and determinism suites lock this in.
package pipeline

import (
	"context"
	"fmt"
	"time"

	"reticle/internal/asm"
	"reticle/internal/cascade"
	"reticle/internal/device"
	"reticle/internal/faults"
	"reticle/internal/ir"
	"reticle/internal/isel"
	"reticle/internal/place"
	"reticle/internal/rerr"
	"reticle/internal/tdl"
)

// Fault points at every stage boundary. Armed through a context (chaos
// suites) or RETICLE_FAULTS (smoke tooling), each simulates the stage
// failing after its input was valid — the sweep asserts the error comes
// back typed, never as a panic or hang. See internal/faults.
var (
	FaultSelect  = faults.Register("pipeline/select", "instruction selection stage fails")
	FaultCascade = faults.Register("pipeline/cascade", "layout optimization stage fails")
	FaultPlace   = faults.Register("pipeline/place", "placement stage fails")
	FaultCodegen = faults.Register("pipeline/codegen", "code generation stage fails")
	FaultTiming  = faults.Register("pipeline/timing", "timing analysis stage fails")
)

// Config carries the shared, read-only state of one compilation target.
// Build it once, share it across any number of concurrent Compile calls.
type Config struct {
	// Target is the family description (never mutated after Parse/Build).
	Target *tdl.Target
	// Device is the part to place on.
	Device *device.Device
	// Lib is the compiled pattern library for Target. isel never writes
	// to it after NewLibrary returns.
	Lib *isel.Library
	// Cascades maps base opcodes to their §5.2 cascade variants; nil or
	// empty disables the layout optimization.
	Cascades map[string]cascade.Variants

	// NoCascade disables the §5.2 layout optimization.
	NoCascade bool
	// Shrink enables the §5.3 binary-search area compaction.
	Shrink bool
	// Greedy switches instruction selection to maximal munch.
	Greedy bool
	// TimingDriven enables post-placement timing refinement.
	TimingDriven bool

	// MaxSolverSteps bounds each placement solver invocation; 0 means
	// the csp default (2M steps). Exhausting it does not fail the
	// kernel: placement degrades to the greedy first-fit fallback and
	// the artifact is marked Degraded.
	MaxSolverSteps int
	// SolverTimeout is a soft per-placement time budget with the same
	// degradation semantics; 0 means none. In no key (keys.go).
	SolverTimeout time.Duration

	// HintCache, when set, is consulted before placement under the
	// structural key HintKeyFor(cfg, f) and fed the recorded anchors of
	// every successful non-degraded placement. An exact-signature hit is
	// adopted outright (zero solver steps); otherwise the compile runs
	// cold exactly as if the cache were nil. In no key (keys.go): the
	// cache can accelerate a compile but never change its output.
	HintCache HintCache

	// StageCache, when set, memoizes each row of the stage table
	// (stages.go, DESIGN.md §15) under a content-addressed per-stage key.
	// In no key, like HintCache: degraded results are never stored, so the
	// memo can accelerate a compile but never change its output.
	StageCache StageCache
}

// HintCache is the cross-request placement hint store the pipeline
// consults (see internal/hintcache for the implementation). Defined here
// as an interface because internal/cache imports pipeline for the
// artifact key — the concrete store must live downstream of this
// package. Implementations must be safe for concurrent use, and Lookup
// must degrade to nil (a cold solve) on any internal failure.
type HintCache interface {
	// Lookup returns the anchors recorded under key, or nil.
	Lookup(ctx context.Context, key string) *place.Anchors
	// Record stores the anchors of a successful non-degraded placement.
	Record(ctx context.Context, key string, a *place.Anchors)
}

// Validate reports whether the config is complete enough to compile.
func (cfg *Config) Validate() error {
	if cfg == nil {
		return fmt.Errorf("pipeline: nil config")
	}
	if cfg.Target == nil {
		return fmt.Errorf("pipeline: config has no target")
	}
	if cfg.Device == nil {
		return fmt.Errorf("pipeline: config has no device")
	}
	if cfg.Lib == nil {
		return fmt.Errorf("pipeline: config has no pattern library")
	}
	if cfg.Lib.Target != cfg.Target {
		return fmt.Errorf("pipeline: pattern library was compiled for target %s, config uses %s",
			cfg.Lib.Target.Name, cfg.Target.Name)
	}
	return nil
}

// StageTimes breaks a compilation into per-stage wall time.
type StageTimes struct {
	Select  time.Duration
	Cascade time.Duration
	Place   time.Duration
	Codegen time.Duration
	Timing  time.Duration
}

// Add accumulates another compilation's stage times, for batch totals.
func (s *StageTimes) Add(o StageTimes) {
	s.Select += o.Select
	s.Cascade += o.Cascade
	s.Place += o.Place
	s.Codegen += o.Codegen
	s.Timing += o.Timing
}

// PlaceStats carries the placement solver's work counters. They ride on
// every Artifact, sum across batches (batch.Stats) and the service's
// cumulative /stats — which puts them on the wire as they stand, under
// these tags — and land in the bench JSON: the same counters at every
// layer, so a solver regression is visible wherever you look.
type PlaceStats struct {
	// SolverSteps totals CSP search steps across all solver invocations.
	SolverSteps int `json:"solver_steps"`
	// ShrinkProbes counts shrink-pass probes that ran the solver.
	ShrinkProbes int `json:"shrink_probes"`
	// ProbesSkipped counts shrink probes answered by revalidating the
	// previous solution against the tightened bound — no solver run.
	ProbesSkipped int `json:"probes_skipped"`
	// HintHits / HintTried measure the warm start: across successful
	// probe solves, HintTried variables carried their previous anchor as
	// a hint and HintHits kept it.
	HintHits  int `json:"hint_hits"`
	HintTried int `json:"hint_tried"`
	// HintCacheHits counts compiles whose placement adopted a
	// cross-request hint-cache solution outright (zero solver steps);
	// HintCacheStepsSaved totals the cold solver steps those adoptions
	// avoided (the recording compile's step count). Full artifact-cache
	// hits skip the pipeline entirely and count in neither.
	HintCacheHits       int `json:"hint_cache_hits"`
	HintCacheStepsSaved int `json:"hint_cache_steps_saved"`
}

// Add accumulates another compilation's counters, for batch totals.
func (p *PlaceStats) Add(o PlaceStats) {
	p.SolverSteps += o.SolverSteps
	p.ShrinkProbes += o.ShrinkProbes
	p.ProbesSkipped += o.ProbesSkipped
	p.HintHits += o.HintHits
	p.HintTried += o.HintTried
	p.HintCacheHits += o.HintCacheHits
	p.HintCacheStepsSaved += o.HintCacheStepsSaved
}

// Artifact is a completed compilation.
type Artifact struct {
	// IR is the source program.
	IR *ir.Func
	// Asm is the selected, layout-optimized assembly program with
	// unresolved locations (family-specific).
	Asm *asm.Func
	// Placed is the device-specific program with resolved locations.
	Placed *asm.Func
	// AsmText and PlacedText are the canonical printed forms of Asm and
	// Placed. Compile prints each program once and threads the text
	// through stage keys, memo payloads, and the wire rendering, so
	// nothing downstream calls String on them again.
	AsmText, PlacedText string
	// Verilog is the structural Verilog module, rendered.
	Verilog string

	// Utilization.
	LUTs, DSPs, FFs, Carries int
	// Timing.
	CriticalNs float64
	FMaxMHz    float64
	// CriticalPath lists instruction destinations along the worst path.
	CriticalPath []string
	// CompileDur measures select + cascade + place + codegen: the whole
	// compile minus Stages.Timing.
	CompileDur time.Duration
	// Stages breaks the compilation into per-stage wall time (including
	// timing analysis, which CompileDur excludes for historical reasons).
	Stages StageTimes
	// CascadeChains counts chains rewritten by the layout optimizer.
	CascadeChains int
	// Place carries the placement solver counters.
	Place PlaceStats
	// WarmStart reports how placement was warm-started: "adopted"
	// (hint-cache solution taken outright, zero solver steps), "stage"
	// (whole placement adopted from the stage memo on an exact
	// stage-key match — no solver run, no hint lookup), or "" (cold
	// solve — including every compile with no cache wired).
	WarmStart string
	// StagesSkipped counts pipeline stages served from the stage memo
	// instead of recomputing (an output-stage hit counts both codegen
	// and timing). Zero for every compile without a StageCache wired.
	// Process-local accounting only — never on the wire, so memoized
	// and cold artifacts render identical deterministic payloads.
	StagesSkipped int

	// Degraded reports a budget-truncated placement: either placement
	// fell back to the greedy first-fit placer after the CSP solver
	// exhausted its step or time budget, or the soft time budget expired
	// mid-shrink and compaction stopped early. Both are valid (checked
	// by place.Verify) but unoptimized and wall-clock-dependent;
	// DegradedReason says which budget ran out. Degraded artifacts are
	// served, surfaced through batch stats and the service response,
	// and never cached.
	Degraded bool
	// DegradedReason is the degradation cause, empty when !Degraded.
	DegradedReason string
}

// stageBoundary gates one stage: an armed fault point or a dead context
// stops the compile with a stage-labelled typed error before the stage
// runs. Deadline expiry classifies resource-exhausted, caller
// cancellation transient (errors.Is still matches the context sentinel
// through the wrap). Cancellation is observed here and — since the
// solver polls the context mid-search — inside placement.
func stageBoundary(ctx context.Context, stage string, fp faults.Point) error {
	err := ctx.Err()
	// A context whose deadline has passed but whose timer has not fired
	// yet (scheduler lag) is already dead for our purposes: the
	// cross-tier budget is an absolute wall-clock instant, and work
	// started past it can only be thrown away upstream.
	if dl, ok := ctx.Deadline(); err == nil && ok && !time.Now().Before(dl) {
		err = context.DeadlineExceeded
	}
	if err == nil {
		return fp.Fire(ctx)
	}
	msg := "compile canceled during " + stage
	if err == context.DeadlineExceeded {
		msg = "compile deadline exceeded during " + stage
	}
	return rerr.Wrap(rerr.ClassOf(err), rerr.CodeOf(err), msg, err)
}
