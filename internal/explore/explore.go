package explore

import (
	"context"
	"fmt"
	"time"

	"reticle/internal/batch"
	"reticle/internal/faults"
	"reticle/internal/ir"
	"reticle/internal/pipeline"
)

// FaultVariant fires at the top of every per-variant compile attempt —
// the seam the chaos suite uses to fail individual variants while the
// sweep as a whole must still return a frontier over the survivors.
var FaultVariant = faults.Register("explore/variant", "explore sweep, before each per-variant compile attempt")

// CompileFunc compiles variant v, at lattice position i, under its
// per-variant config and reports (artifact, served-from-cache, error).
// The server supplies a closure that routes through its artifact cache
// hierarchy; the default is a plain pipeline compile.
type CompileFunc func(ctx context.Context, cfg *pipeline.Config, i int, v Variant) (*pipeline.Artifact, bool, error)

// Options configures one sweep.
type Options struct {
	// MaxVariants bounds the lattice (0 = DefaultMaxVariants; clamped
	// to HardMaxVariants).
	MaxVariants int
	// Jobs bounds concurrent variant compiles (batch.Options.Jobs).
	Jobs int
	// KernelTimeout bounds each variant's compile.
	KernelTimeout time.Duration
	// Compile overrides how one variant is compiled; nil means
	// pipeline.Compile.
	Compile CompileFunc
}

// Metrics is the deterministic score of one variant: the critical path
// and the primitive counts its compile recorded — codegen's own counts,
// the only area count there is. Every field is a pure function of the
// variant and config, so the same sweep always serializes identically.
// The service puts it on the wire as it stands.
type Metrics struct {
	CriticalNs float64 `json:"critical_ns"`
	FMaxMHz    float64 `json:"fmax_mhz"`
	Luts       int     `json:"luts"`
	Dsps       int     `json:"dsps"`
	FFs        int     `json:"ffs"`
	Carries    int     `json:"carries"`
}

// Objectives is the minimized dominance vector: latency first, then
// LUTs, carries, DSPs. FFs and FMax ride along as information only —
// FF count is fixed by the kernel's registers, and FMax is 1/critical.
func (m Metrics) Objectives() []float64 {
	return []float64{m.CriticalNs, float64(m.Luts), float64(m.Carries), float64(m.Dsps)}
}

// Score reads a variant's metrics off its artifact: a fresh compile and
// one rebuilt from a cache tier's wire form carry the same counts.
func Score(art *pipeline.Artifact) Metrics {
	return Metrics{
		CriticalNs: art.CriticalNs,
		FMaxMHz:    art.FMaxMHz,
		Luts:       art.LUTs,
		Dsps:       art.DSPs,
		FFs:        art.FFs,
		Carries:    art.Carries,
	}
}

// VariantResult is one variant's outcome.
type VariantResult struct {
	Variant
	// Index is the lattice position.
	Index int
	// Artifact is the compiled artifact (nil on failure).
	Artifact *pipeline.Artifact
	// Metrics is the deterministic score (zero on failure).
	Metrics Metrics
	// Degraded marks a budget-truncated placement; degraded variants
	// are reported but never enter the frontier (their layouts are
	// wall-clock-dependent).
	Degraded bool
	// CacheHit reports the variant was served from a cache tier.
	CacheHit bool
	// Err is the per-variant failure, if any.
	Err error
	// Attempts counts compile attempts (retries included).
	Attempts int
	// Dur is the wall time this variant spent in the pool.
	Dur time.Duration
}

// Ok reports whether the variant compiled.
func (r VariantResult) Ok() bool { return r.Err == nil }

// FrontierPoint is one non-dominated variant. A frontier is ordered
// canonically: objective vectors (critical_ns, luts, carries, dsps)
// ascending, ID as the tie-break.
type FrontierPoint struct {
	ID      string  `json:"id"`
	Metrics Metrics `json:"metrics"`
}

// Stats aggregates one sweep.
type Stats struct {
	Variants  int
	Succeeded int
	Failed    int
	Degraded  int
	CacheHits int
	Retried   int
	// StagesSkipped sums pipeline stages served from the stage memo
	// across the sweep's compiled variants: with a StageCache wired,
	// variants fork the pipeline at their first diverging stage, and
	// the shared prefix lands here. Variants served whole from an
	// artifact cache tier count in CacheHits, not here.
	StagesSkipped  int
	Wall           time.Duration
	VariantsPerSec float64
}

// Result is one sweep's outcome: every variant in lattice order plus
// the non-dominated frontier in canonical dominance order.
type Result struct {
	Variants []VariantResult
	Frontier []FrontierPoint
	// Partial marks a sweep where at least one variant failed; the
	// frontier covers the survivors only.
	Partial bool
	Stats   Stats
}

// Run sweeps one kernel: enumerate the lattice, compile every variant
// through the batch pool (timeouts, retries, panic isolation), score
// the survivors, and fold them into the Pareto frontier. Individual
// variant failures mark the result Partial; Run errors only when the
// sweep as a whole is invalid or nothing survived.
func Run(ctx context.Context, cfg *pipeline.Config, f *ir.Func, opts Options) (*Result, error) {
	sw, err := Begin(ctx, cfg, f, opts)
	if err != nil {
		return nil, err
	}
	return sw.Finish()
}

// Sweep is a sweep in flight: Run for callers that emit variants in
// lattice order while later ones are still compiling.
type Sweep struct {
	variants  []Variant
	cacheHits []bool // written by variant i's worker before its result is final
	run       *batch.Run
}

// Begin enumerates the lattice, starts every variant through the batch
// pool and returns at once; it errors when the sweep as a whole is
// invalid. Every Begin must be followed by Finish (batch.Begin's
// contract: cancel ctx first to give up early).
func Begin(ctx context.Context, cfg *pipeline.Config, f *ir.Func, opts Options) (*Sweep, error) {
	if cfg == nil {
		return nil, fmt.Errorf("explore: nil config")
	}
	variants, err := Enumerate(f, opts.MaxVariants)
	if err != nil {
		return nil, err
	}
	compile := opts.Compile
	if compile == nil {
		compile = func(ctx context.Context, vcfg *pipeline.Config, _ int, v Variant) (*pipeline.Artifact, bool, error) {
			art, err := pipeline.Compile(ctx, vcfg, v.Func)
			return art, false, err
		}
	}

	sw := &Sweep{variants: variants, cacheHits: make([]bool, len(variants))}
	jobs := make([]batch.Job, len(variants))
	for i, v := range variants {
		vcfg := cfg
		if v.NoCascade != cfg.NoCascade {
			cc := *cfg
			cc.NoCascade = v.NoCascade
			vcfg = &cc
		}
		jobs[i] = batch.Job{
			Name: v.ID,
			Func: v.Func,
			Compile: func(kctx context.Context) (*pipeline.Artifact, error) {
				if err := FaultVariant.Fire(kctx); err != nil {
					return nil, err
				}
				art, hit, err := compile(kctx, vcfg, i, v)
				if err != nil {
					return nil, err
				}
				sw.cacheHits[i] = hit
				return art, nil
			},
		}
	}
	sw.run, err = batch.Begin(ctx, cfg, jobs, batch.Options{
		Jobs:          opts.Jobs,
		KernelTimeout: opts.KernelTimeout,
	})
	if err != nil {
		return nil, err
	}
	return sw, nil
}

// Len is the number of variants in the sweep.
func (sw *Sweep) Len() int { return len(sw.variants) }

// Result blocks until variant i is final and returns it scored.
func (sw *Sweep) Result(i int) VariantResult { return sw.scored(sw.run.Result(i)) }

func (sw *Sweep) scored(br batch.Result) VariantResult {
	vr := VariantResult{
		Variant:  sw.variants[br.Index],
		Index:    br.Index,
		Artifact: br.Artifact,
		CacheHit: sw.cacheHits[br.Index],
		Err:      br.Err,
		Attempts: br.Attempts,
		Dur:      br.Dur,
	}
	if vr.Err == nil && vr.Artifact != nil {
		vr.Degraded, vr.Metrics = vr.Artifact.Degraded, Score(vr.Artifact)
	}
	return vr
}

// Finish waits for every variant and worker, then folds the survivors
// into the frontier. It errors when nothing survived.
func (sw *Sweep) Finish() (*Result, error) {
	results, bst := sw.run.Finish()
	res := &Result{Variants: make([]VariantResult, len(results))}
	arch := NewArchive()
	var firstErr error
	for i, br := range results {
		vr := sw.scored(br)
		res.Variants[i] = vr
		switch {
		case !vr.Ok():
			res.Partial = true
			res.Stats.Failed++
			if firstErr == nil {
				firstErr = vr.Err
			}
		default:
			res.Stats.Succeeded++
			if vr.CacheHit {
				res.Stats.CacheHits++
			} else if vr.Artifact != nil {
				res.Stats.StagesSkipped += vr.Artifact.StagesSkipped
			}
			if vr.Degraded {
				res.Stats.Degraded++
				continue
			}
			arch.Insert(Point{ID: vr.ID, Objectives: vr.Metrics.Objectives()})
		}
	}
	if res.Stats.Succeeded == 0 && firstErr != nil {
		// Nothing survived: surface the first failure instead of an
		// empty frontier (a kernel that cannot compile at all is a
		// request error, not a partial sweep).
		return nil, firstErr
	}
	// Never nil: a sweep whose survivors are all degraded has an empty
	// frontier, not a missing one.
	res.Frontier = []FrontierPoint{}
	for _, p := range arch.Frontier() {
		res.Frontier = append(res.Frontier, FrontierPoint{ID: p.ID, Metrics: res.metricsFor(p.ID)})
	}
	res.Stats.Variants = len(results)
	res.Stats.Retried = bst.Retried
	res.Stats.Wall = bst.Wall
	if secs := res.Stats.Wall.Seconds(); secs > 0 {
		res.Stats.VariantsPerSec = float64(res.Stats.Variants) / secs
	}
	return res, nil
}

// metricsFor returns the metrics of the named variant. IDs are unique
// within a sweep by construction.
func (r *Result) metricsFor(id string) Metrics {
	for i := range r.Variants {
		if r.Variants[i].ID == id {
			return r.Variants[i].Metrics
		}
	}
	return Metrics{}
}
