// Package reticle is the public API of this Reticle implementation: a
// low-level language and compiler for programming modern FPGAs (Vega et
// al., PLDI 2021).
//
// The pipeline mirrors Fig. 7 of the paper. A portable intermediate
// program is lowered by tree-covering instruction selection onto a
// family-specific assembly language, layout-optimized (DSP cascading),
// placed on a concrete device by a constraint solver, and emitted as
// structural Verilog with layout annotations:
//
//	c, _ := reticle.NewCompiler()
//	art, _ := c.CompileString(`
//	def muladd(a:i8, b:i8, c:i8) -> (y:i8) {
//	    t0:i8 = mul(a, b) @??;
//	    y:i8 = add(t0, c) @??;
//	}`)
//	fmt.Print(art.Verilog)
//
// The package also exposes the reference interpreter (Algorithm 1), the
// behavioral-Verilog baseline backends, and the baseline toolchain
// simulator used by the evaluation harness.
package reticle

import (
	"context"
	"time"

	"reticle/internal/asm"
	"reticle/internal/batch"
	"reticle/internal/behav"
	"reticle/internal/cache"
	"reticle/internal/cascade"
	"reticle/internal/device"
	"reticle/internal/explore"
	"reticle/internal/interp"
	"reticle/internal/ir"
	"reticle/internal/isel"
	"reticle/internal/passes"
	"reticle/internal/pipeline"
	"reticle/internal/rerr"
	"reticle/internal/server"
	"reticle/internal/shard"
	"reticle/internal/target/agilex"
	"reticle/internal/target/ultrascale"
	"reticle/internal/tdl"
	"reticle/internal/vivado"
)

// Core language types, re-exported for API stability.
type (
	// Func is an intermediate-language function (Fig. 5a).
	Func = ir.Func
	// Instr is one IR instruction.
	Instr = ir.Instr
	// Type is a value type: bool, iN, or iN<lanes>.
	Type = ir.Type
	// Value is a bit-accurate runtime value.
	Value = ir.Value
	// Builder constructs IR functions programmatically.
	Builder = ir.Builder
	// AsmFunc is an assembly-language function (Fig. 5b).
	AsmFunc = asm.Func
	// TargetDesc is a target description (Fig. 9).
	TargetDesc = tdl.Target
	// Device is a concrete FPGA part layout.
	Device = device.Device
	// Trace is an interpreter input or output trace.
	Trace = interp.Trace
	// Step is one clock cycle of trace values.
	Step = interp.Step
)

// ParseIR parses one intermediate-language function.
func ParseIR(src string) (*Func, error) { return ir.Parse(src) }

// ParseIRType parses a type in source syntax ("bool", "i8", "i8<4>").
func ParseIRType(src string) (Type, error) { return ir.ParseType(src) }

// ScalarValue builds a scalar (or bool) value of the given type.
func ScalarValue(t Type, v int64) Value { return ir.ScalarValue(t, v) }

// BoolValue builds a bool value.
func BoolValue(b bool) Value { return ir.BoolValue(b) }

// VectorValue builds a vector value from per-lane values.
func VectorValue(t Type, lanes ...int64) Value { return ir.VectorValue(t, lanes...) }

// ParseAsm parses one assembly-language function.
func ParseAsm(src string) (*AsmFunc, error) { return asm.Parse(src) }

// ParseTDL parses a target description.
func ParseTDL(name, src string) (*TargetDesc, error) { return tdl.Parse(name, src) }

// NewBuilder starts building an IR function programmatically.
func NewBuilder(name string) *Builder { return ir.NewBuilder(name) }

// UltraScale returns the bundled UltraScale-like target description.
func UltraScale() *TargetDesc { return ultrascale.Target() }

// XCZU3EG returns the bundled evaluation device (360 DSPs, ~71k LUTs).
func XCZU3EG() *Device { return ultrascale.Device() }

// Agilex returns the bundled Agilex-like target description, the second
// family proving §4.2 portability.
func Agilex() *TargetDesc { return agilex.Target() }

// AGF014 returns the bundled Agilex-like part (400 DSPs, 96k ALMs).
func AGF014() *Device { return agilex.Device() }

// Interpret evaluates a function over an input trace (Algorithm 1).
func Interpret(f *Func, trace Trace) (Trace, error) { return interp.Run(f, trace) }

// Options configures a Compiler.
type Options struct {
	// Target is the family description; nil means the UltraScale-like
	// bundled target.
	Target *TargetDesc
	// Device is the part to place on; nil means the xczu3eg-like part.
	Device *Device
	// NoCascade disables the §5.2 layout optimization.
	NoCascade bool
	// Shrink enables the §5.3 binary-search area compaction.
	Shrink bool
	// Greedy switches instruction selection to maximal munch (ablation).
	Greedy bool
	// TimingDriven enables post-placement timing refinement, the layout
	// exploration the paper lists as future work (§1).
	TimingDriven bool
	// MaxSolverSteps bounds the placement CSP search; 0 means the solver
	// default. When the budget runs out the compiler degrades to a greedy
	// first-fit placement (valid, satcheck-verified) and marks the
	// artifact Degraded instead of failing.
	MaxSolverSteps int
	// SolverTimeout is a soft wall-clock budget for the placement solve;
	// past it the compiler degrades like MaxSolverSteps exhaustion.
	// 0 means no time budget. Excluded from cache fingerprints — degraded
	// artifacts are never cached, so the timeout cannot alias keys.
	SolverTimeout time.Duration
}

// Compiler runs the full Reticle pipeline against one target and device.
// After NewCompilerWith returns, every field the compiler holds is
// read-only shared state: Compile, CompileContext, and CompileBatch may
// be called from any number of goroutines concurrently.
type Compiler struct {
	opts Options
	cfg  pipeline.Config
}

// NewCompiler returns a compiler for the bundled UltraScale-like target
// and device.
func NewCompiler() (*Compiler, error) { return NewCompilerWith(Options{}) }

// NewCompilerWith returns a compiler with explicit options.
func NewCompilerWith(opts Options) (*Compiler, error) {
	if opts.Target == nil {
		opts.Target = ultrascale.Target()
	}
	if opts.Device == nil {
		opts.Device = ultrascale.Device()
	}
	lib, err := isel.NewLibrary(opts.Target)
	if err != nil {
		return nil, err
	}
	cascades := map[string]cascade.Variants{}
	// Cascade metadata ships with each bundled family; custom targets can
	// skip the pass or extend this map.
	switch opts.Target {
	case ultrascale.Target():
		cascades = ultrascale.Cascades()
	case agilex.Target():
		cascades = agilex.Cascades()
	}
	return &Compiler{
		opts: opts,
		cfg: pipeline.Config{
			Target:         opts.Target,
			Device:         opts.Device,
			Lib:            lib,
			Cascades:       cascades,
			NoCascade:      opts.NoCascade,
			Shrink:         opts.Shrink,
			Greedy:         opts.Greedy,
			TimingDriven:   opts.TimingDriven,
			MaxSolverSteps: opts.MaxSolverSteps,
			SolverTimeout:  opts.SolverTimeout,
		},
	}, nil
}

// Target returns the compiler's target description.
func (c *Compiler) Target() *TargetDesc { return c.opts.Target }

// Device returns the compiler's device.
func (c *Compiler) Device() *Device { return c.opts.Device }

// Artifact is a completed compilation. It includes per-stage wall times
// (Stages) next to the aggregate CompileDur.
type Artifact = pipeline.Artifact

// StageTimes breaks a compilation (or a batch of them) into per-stage
// wall time.
type StageTimes = pipeline.StageTimes

// CompileString compiles IR source text through the full pipeline.
func (c *Compiler) CompileString(src string) (*Artifact, error) {
	f, err := ir.Parse(src)
	if err != nil {
		return nil, err
	}
	return c.Compile(f)
}

// Compile runs selection, layout optimization, placement, code generation,
// and timing analysis on an IR function.
func (c *Compiler) Compile(f *Func) (*Artifact, error) {
	return c.CompileContext(context.Background(), f)
}

// CompileContext is Compile under a context: cancellation and deadlines
// are observed at pipeline stage boundaries.
func (c *Compiler) CompileContext(ctx context.Context, f *Func) (*Artifact, error) {
	return pipeline.Compile(ctx, &c.cfg, f)
}

// Typed error taxonomy, re-exported from internal/rerr. Every pipeline,
// batch, and service failure is classified for errors.Is:
//
//	if errors.Is(err, reticle.ErrTransient) { retry() }
type (
	// ErrorClass is the retry semantics of a failure (transient /
	// permanent / resource-exhausted).
	ErrorClass = rerr.Class
	// CompileError is a classified failure with a stable machine-readable
	// Code and a client-safe Msg, reachable via errors.As.
	CompileError = rerr.Error
)

// Error classes.
const (
	// ClassUnknown marks unclassified errors (treated as permanent).
	ClassUnknown = rerr.Unknown
	// ClassTransient failures may succeed on retry.
	ClassTransient = rerr.Transient
	// ClassPermanent failures will not succeed on retry.
	ClassPermanent = rerr.Permanent
	// ClassExhausted failures ran out of a budget or resource.
	ClassExhausted = rerr.Exhausted
)

// Class sentinels for errors.Is, matching any error of that class.
var (
	// ErrTransient matches transient failures.
	ErrTransient = rerr.ErrTransient
	// ErrPermanent matches permanent failures.
	ErrPermanent = rerr.ErrPermanent
	// ErrExhausted matches budget/resource exhaustion.
	ErrExhausted = rerr.ErrExhausted
)

// ErrorClassOf reports the classification of err (ClassUnknown for
// unclassified errors; context deadline expiry is ClassExhausted,
// cancellation ClassTransient).
func ErrorClassOf(err error) ErrorClass { return rerr.ClassOf(err) }

// Batch compilation types, re-exported from internal/batch.
type (
	// BatchJob is one kernel in a CompileBatch call.
	BatchJob = batch.Job
	// BatchOptions bounds worker concurrency and per-kernel timeouts.
	BatchOptions = batch.Options
	// BatchResult is one kernel's outcome, at its submission index.
	BatchResult = batch.Result
	// BatchStats aggregates a batch run (kernels/sec, per-stage time).
	BatchStats = batch.Stats
)

// CompileBatch compiles many kernels concurrently against this compiler's
// shared target, device, and pattern library. At most opts.Jobs worker
// goroutines run at once; each kernel may be cancelled or timed out via
// ctx and opts.KernelTimeout. Results arrive in submission order with
// per-kernel errors — one failing kernel never fails the batch — and the
// output for each kernel is byte-identical to serial Compile.
func (c *Compiler) CompileBatch(ctx context.Context, fs []*Func, opts BatchOptions) ([]BatchResult, BatchStats, error) {
	jobs := make([]BatchJob, len(fs))
	for i, f := range fs {
		jobs[i] = BatchJob{Func: f}
	}
	return batch.Compile(ctx, &c.cfg, jobs, opts)
}

// CompileBatchJobs is CompileBatch with explicit per-kernel labels.
func (c *Compiler) CompileBatchJobs(ctx context.Context, jobs []BatchJob, opts BatchOptions) ([]BatchResult, BatchStats, error) {
	return batch.Compile(ctx, &c.cfg, jobs, opts)
}

// CompileBatch compiles many kernels concurrently with a default
// (UltraScale-like) compiler. See Compiler.CompileBatch.
func CompileBatch(ctx context.Context, fs []*Func, opts BatchOptions) ([]BatchResult, BatchStats, error) {
	c, err := NewCompiler()
	if err != nil {
		return nil, BatchStats{}, err
	}
	return c.CompileBatch(ctx, fs, opts)
}

// Artifact caching and the compile service, re-exported from
// internal/{cache,server}.
type (
	// CompileCache is a bounded in-memory LRU of compiled artifacts,
	// keyed by content (canonical IR hash + config fingerprint), with
	// singleflight de-duplication of concurrent identical compiles.
	CompileCache = cache.Cache[*pipeline.Artifact]
	// CacheStats snapshots a CompileCache's counters.
	CacheStats = cache.Stats
	// Server is the long-running HTTP compile service (POST /compile,
	// POST /batch, POST /explore, POST /scrub, GET /healthz, GET /stats).
	Server = server.Server
	// ServerOptions configures a Server (cache size, default deadline,
	// default family, admission bound, disk tier).
	ServerOptions = server.Options
)

// NewCompileCache returns an artifact cache bounded to maxEntries
// (<=0 means the default, cache.DefaultEntries).
func NewCompileCache(maxEntries int) *CompileCache {
	return cache.New[*pipeline.Artifact](maxEntries)
}

// CanonicalHash returns the alpha-normalized content hash of a kernel,
// the IR half of the artifact cache key.
func CanonicalHash(f *Func) string { return ir.CanonicalHash(f) }

// CompileCached compiles f through ca: a resident artifact is returned
// immediately (hit=true), concurrent identical calls share one compile,
// and a miss runs the full pipeline and populates the cache. The same
// cache may be shared by compilers with different targets or options —
// keys include the config fingerprint, so artifacts never cross
// configs.
func (c *Compiler) CompileCached(ctx context.Context, ca *CompileCache, f *Func) (*Artifact, bool, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	key := cache.KeyFor(&c.cfg, f)
	// Degraded (fallback-placed or shrink-truncated) artifacts are served
	// to the caller that paid for them but never published to the cache:
	// the next compile gets a fresh shot at the full solver. The keep
	// predicate keeps them out of the LRU atomically, with no
	// publish-then-remove window for concurrent callers to hit.
	return ca.GetOrComputeKeep(ctx, key, func() (*Artifact, error) {
		return pipeline.Compile(ctx, &c.cfg, f)
	}, func(a *Artifact) bool { return a == nil || !a.Degraded })
}

// Design-space exploration, re-exported from internal/explore.
type (
	// ExploreOptions configures one Explore sweep (lattice bound,
	// worker bound, per-variant timeout and retry budget).
	ExploreOptions = explore.Options
	// ExploreResult is one sweep's outcome: every variant in lattice
	// order plus the non-dominated frontier in canonical order.
	ExploreResult = explore.Result
	// ExploreVariant is one candidate configuration of a kernel.
	ExploreVariant = explore.Variant
	// ExploreVariantResult is one variant's compiled, scored outcome.
	ExploreVariantResult = explore.VariantResult
	// ExploreMetrics is a variant's deterministic score: critical path
	// plus the area codegen counted (LUTs, carries, FFs, DSPs).
	ExploreMetrics = explore.Metrics
	// FrontierPoint is one non-dominated variant.
	FrontierPoint = explore.FrontierPoint
)

// EnumerateVariants builds the bounded, deterministic variant lattice
// for one kernel (0 means explore.DefaultMaxVariants).
func EnumerateVariants(f *Func, maxVariants int) ([]ExploreVariant, error) {
	return explore.Enumerate(f, maxVariants)
}

// Explore sweeps f's variant lattice — binding flips, cascade toggles,
// vector splits — compiling every variant under this compiler's config
// and scoring each on critical path and area. The result
// carries every variant plus the Pareto frontier; individual variant
// failures mark it Partial.
func (c *Compiler) Explore(ctx context.Context, f *Func, opts ExploreOptions) (*ExploreResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return explore.Run(ctx, &c.cfg, f, opts)
}

// NewServer builds the HTTP compile service over both bundled families
// ("ultrascale" is the default family, "agilex" the second) with the
// artifact cache in front. Serve it on a listener with Server.Serve
// and drain it with Server.Shutdown; it also implements http.Handler
// for embedding. cmd/reticle-serve is the standalone daemon.
func NewServer(opts ServerOptions) (*Server, error) {
	configs, err := familyConfigs()
	if err != nil {
		return nil, err
	}
	if opts.DefaultFamily == "" {
		opts.DefaultFamily = "ultrascale"
	}
	return server.New(opts, configs)
}

// familyConfigs builds one pipeline config per bundled family, keyed by
// the family name a request carries.
func familyConfigs() (map[string]*pipeline.Config, error) {
	us, err := NewCompilerWith(Options{})
	if err != nil {
		return nil, err
	}
	ag, err := NewCompilerWith(Options{Target: agilex.Target(), Device: agilex.Device()})
	if err != nil {
		return nil, err
	}
	return map[string]*pipeline.Config{"ultrascale": &us.cfg, "agilex": &ag.cfg}, nil
}

// The distributed compile tier, re-exported from internal/shard.
type (
	// ShardRouter is the distributed tier's front end: it
	// consistent-hashes each kernel's text key (pipeline.TextKeyFor: the
	// IR text under the family config's fingerprint, never parsed) across
	// N reticle-serve backends, so the same text always lands on the same
	// backend, while alpha-renamed or re-spaced copies of a kernel may land
	// on different ones. It health-checks the backends, re-hashes requests
	// off dead peers, and fronts the tier with an optional persistent disk
	// cache keyed the same way. It is a Server's edge — the same endpoints,
	// front door and handlers — over a resolver that routes.
	// cmd/reticle-shard is the standalone daemon.
	ShardRouter = shard.Router
	// ShardOptions configures a ShardRouter (backend URLs, proxy
	// timeout, health-check interval, hedging, disk cache).
	ShardOptions = shard.Options
)

// NewShardRouter builds the shard router over the same two bundled
// family configs as NewServer, so the router's front door resolves
// families and refuses requests as every backend's does.
func NewShardRouter(opts ShardOptions) (*ShardRouter, error) {
	configs, err := familyConfigs()
	if err != nil {
		return nil, err
	}
	if opts.DefaultFamily == "" {
		opts.DefaultFamily = "ultrascale"
	}
	return shard.New(opts, configs)
}

// BehavioralVerilog renders the §7 baseline translations: standard
// behavioral Verilog (hint=false) or directive-laden Verilog (hint=true).
func BehavioralVerilog(f *Func, hint bool) (string, error) {
	flavor := behav.Base
	if hint {
		flavor = behav.Hint
	}
	m, err := behav.Translate(f, flavor)
	if err != nil {
		return "", err
	}
	return m.String(), nil
}

// BaselineResult is a baseline-toolchain compile (see package vivado).
type BaselineResult = vivado.Result

// BaselineCompile runs the simulated traditional toolchain on the same
// program, as the §7 baselines do.
func BaselineCompile(f *Func, dev *Device, hint bool) (*BaselineResult, error) {
	if dev == nil {
		dev = ultrascale.Device()
	}
	return vivado.Compile(f, dev, vivado.Options{Hint: hint})
}

// ExpandAsm inlines an assembly program's TDL semantics back into IR, the
// reference meaning used for translation validation.
func ExpandAsm(f *AsmFunc, target *TargetDesc) (*Func, error) {
	return asm.Expand(f, target)
}

// Front-end passes (§8 of the paper), re-exported from internal/passes.

// Vectorize combines independent scalar instructions into vector
// instructions (§8.2, Fig. 16). It returns the rewritten function and the
// number of vector groups formed.
func Vectorize(f *Func, lanes int) (*Func, int, error) {
	out, st, err := passes.Vectorize(f, passes.VectorizeOptions{Lanes: lanes})
	return out, st.Groups, err
}

// Pipeline registers every pure compute result (§8.1, Fig. 14b),
// maximizing clock rate at the cost of latency. enable may name a bool
// value; empty inserts a constant-true enable.
func Pipeline(f *Func, enable string) (*Func, int, error) {
	return passes.Pipeline(f, passes.PipelineOptions{Enable: enable})
}

// BindPolicy chooses resources for compute instructions (§8.2, Fig. 17).
type BindPolicy = passes.BindPolicy

// Binding policies.
var (
	PreferDsp BindPolicy = passes.PreferDsp
	PreferLut BindPolicy = passes.PreferLut
	Unbind    BindPolicy = passes.Unbind
)

// Bind rewrites resource annotations under a policy.
func Bind(f *Func, policy BindPolicy) (*Func, error) { return passes.Bind(f, policy) }

// Optimize runs common-subexpression elimination and dead code elimination
// to a fixpoint — the standard front-end cleanup before compiling.
func Optimize(f *Func) (*Func, error) { return passes.Optimize(f) }

// DCE removes instructions that cannot reach an output; it returns the
// cleaned function and the number of instructions removed.
func DCE(f *Func) (*Func, int, error) { return passes.DCE(f) }

// CSE merges pure instructions computing identical values.
func CSE(f *Func) (*Func, int, error) { return passes.CSE(f) }

// Fold performs constant folding and strength reduction; multiplications
// by powers of two become free wire shifts (§4.1).
func Fold(f *Func) (*Func, int, error) { return passes.Fold(f) }

// InterpretAsm evaluates an assembly program over an input trace by
// expanding its TDL semantics back to IR first — co-simulation of compiled
// code against the reference interpreter.
func InterpretAsm(f *AsmFunc, target *TargetDesc, trace Trace) (Trace, error) {
	irf, err := asm.Expand(f, target)
	if err != nil {
		return nil, err
	}
	return interp.Run(irf, trace)
}
