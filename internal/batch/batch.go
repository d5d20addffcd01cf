// Package batch compiles many IR kernels concurrently against one shared
// pipeline.Config — the compile-at-scale subsystem backing the ROADMAP's
// heavy-traffic north star and the shape design-space-exploration sweeps
// need (many configurations, one target).
//
// The contract:
//
//   - shared state (target, device, pattern library, cascade metadata) is
//     read-only; every kernel gets private scratch (see internal/pipeline);
//   - worker goroutines are bounded by Options.Jobs;
//   - each kernel can be cancelled or timed out via context.Context;
//   - results are structured per kernel — one bad kernel (type error,
//     capacity overflow, timeout, even a panic) never fails the batch;
//   - results come back indexed by submission order, so a batch run is
//     byte-for-byte deterministic whenever serial compilation is.
package batch

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"reticle/internal/faults"
	"reticle/internal/ir"
	"reticle/internal/pipeline"
	"reticle/internal/rerr"
)

// FaultWorker fires inside the worker pool at the top of every per-kernel
// compile attempt — the seam where transient infrastructure failures
// (and their retries) land in the chaos suite.
var FaultWorker = faults.Register("batch/worker", "batch worker, before each per-kernel compile attempt")

// Job is one kernel to compile.
type Job struct {
	// Name labels the result; empty defaults to Func.Name.
	Name string
	// Func is the kernel. A nil Func yields a per-kernel error unless
	// Compile is set.
	Func *ir.Func
	// Compile, when non-nil, replaces the pipeline invocation for this
	// job: the pool still applies the per-kernel timeout, fires the
	// batch/worker fault point, converts panics to per-kernel errors,
	// and retries transient failures — but the work itself is the
	// caller's (the explore tier uses this to route each variant
	// through the server's cache hierarchy). A successful Compile
	// should return a non-nil artifact; stats tolerate nil.
	Compile func(ctx context.Context) (*pipeline.Artifact, error)
}

// Options configures a batch run.
type Options struct {
	// Jobs bounds concurrent worker goroutines; 0 means GOMAXPROCS,
	// negative is rejected (ErrInvalidJobs).
	Jobs int
	// KernelTimeout bounds each kernel's compile; 0 means no timeout,
	// negative is rejected (ErrInvalidTimeout). Timeouts are observed at
	// pipeline stage boundaries.
	KernelTimeout time.Duration
}

// DefaultRetries bounds per-kernel retry attempts for transient failures
// (rerr.Transient only — permanent and resource-exhausted errors are
// never retried, and nothing is retried once the batch context is done).
// Each retry backs off with capped exponential delay plus deterministic
// jitter.
const DefaultRetries = 2

// Typed option-validation errors, so callers (e.g. the HTTP compile
// service) can map bad requests to 400s with errors.Is instead of
// string-matching.
var (
	// ErrInvalidJobs reports a negative Options.Jobs.
	ErrInvalidJobs = errors.New("batch: Options.Jobs must be >= 0")
	// ErrInvalidTimeout reports a negative Options.KernelTimeout.
	ErrInvalidTimeout = errors.New("batch: Options.KernelTimeout must be >= 0")
)

// Validate checks the options. Zero values are valid defaults (Jobs 0 =
// GOMAXPROCS, KernelTimeout 0 = no timeout); negatives, which previously
// slid through as implicit defaults, are explicit typed errors.
func (o Options) Validate() error {
	if o.Jobs < 0 {
		return fmt.Errorf("%w (got %d)", ErrInvalidJobs, o.Jobs)
	}
	if o.KernelTimeout < 0 {
		return fmt.Errorf("%w (got %s)", ErrInvalidTimeout, o.KernelTimeout)
	}
	return nil
}

// Result is the outcome of one kernel, at the submission index.
type Result struct {
	// Index is the kernel's position in the submitted batch.
	Index int
	// Name is the job label (or the function name).
	Name string
	// Artifact is the completed compilation; nil when Err is set.
	Artifact *pipeline.Artifact
	// Err is the per-kernel failure, if any.
	Err error
	// Dur is this kernel's wall time inside its worker.
	Dur time.Duration
	// Attempts counts compile attempts (1 = no retry was needed). Zero
	// for kernels the cancelled dispatch loop never handed to a worker.
	Attempts int
}

// Ok reports whether the kernel compiled successfully.
func (r Result) Ok() bool { return r.Err == nil }

// Stats aggregates a batch run.
type Stats struct {
	// Kernels is the batch size; Succeeded + Failed == Kernels.
	Kernels, Succeeded, Failed int
	// Degraded counts successful kernels whose artifact carries the
	// placement-fallback marker (pipeline.Artifact.Degraded).
	Degraded int
	// Retried counts extra compile attempts spent recovering from
	// transient failures across the batch.
	Retried int
	// Wall is the end-to-end batch wall time.
	Wall time.Duration
	// KernelsPerSec is Kernels divided by Wall.
	KernelsPerSec float64
	// Stages sums per-stage wall time across successful kernels. With
	// Jobs > 1 the sum exceeds Wall — that surplus is the parallel
	// speedup.
	Stages pipeline.StageTimes
	// Place sums placement solver counters across successful kernels.
	Place pipeline.PlaceStats
	// StagesSkipped sums pipeline stages served from the stage memo
	// across successful kernels (pipeline.Artifact.StagesSkipped);
	// cross-kernel sharing inside one batch shows up here.
	StagesSkipped int
}

// Compile runs every job through the shared config with at most
// Options.Jobs concurrent workers. The returned slice has one Result per
// job, in submission order. The error is non-nil only for an unusable
// config or invalid options (see Options.Validate); per-kernel failures
// (including a cancelled context) are reported in the results.
func Compile(ctx context.Context, cfg *pipeline.Config, jobs []Job, opts Options) ([]Result, Stats, error) {
	run, err := Begin(ctx, cfg, jobs, opts)
	if err != nil {
		return nil, Stats{}, err
	}
	results, st := run.Finish()
	return results, st, nil
}

// Run is a batch in flight: Compile for callers that emit results in
// submission order while later kernels are still compiling.
type Run struct {
	fan *Fan[Result]
	t0  time.Time
}

// Begin validates like Compile, starts the workers and returns at once.
// Every Begin must be followed by Finish; a caller giving up early
// cancels ctx first, which resolves each kernel no worker has taken with
// the typed context error while finished results stay intact.
func Begin(ctx context.Context, cfg *pipeline.Config, jobs []Job, opts Options) (*Run, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	workers := opts.Jobs
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Run{t0: time.Now(), fan: FanOut(ctx, len(jobs), workers,
		func(i int) Result { return compileOne(ctx, cfg, jobs[i], i, opts.KernelTimeout) },
		func(i int, cause error) Result {
			return Result{Index: i, Name: jobs[i].label(), Err: rerr.Wrap(rerr.ClassOf(cause), rerr.CodeOf(cause),
				"batch canceled before kernel started", cause)}
		})}, nil
}

// Result blocks until kernel i is final and returns its outcome.
func (r *Run) Result(i int) Result { return r.fan.Wait(i) }

// Finish waits for every kernel and every worker, then returns the
// results in submission order with the aggregate.
func (r *Run) Finish() ([]Result, Stats) {
	results := r.fan.Drain()
	st := Stats{Kernels: len(results)}
	if len(results) > 0 { // an empty batch ran nothing: zero wall, as an all-hit /batch reports
		st.Wall = time.Since(r.t0)
	}
	for _, res := range results {
		if res.Attempts > 1 {
			st.Retried += res.Attempts - 1
		}
		if res.Ok() {
			st.Succeeded++
			if res.Artifact != nil {
				st.Stages.Add(res.Artifact.Stages)
				st.Place.Add(res.Artifact.Place)
				st.StagesSkipped += res.Artifact.StagesSkipped
				if res.Artifact.Degraded {
					st.Degraded++
				}
			}
		} else {
			st.Failed++
		}
	}
	if secs := st.Wall.Seconds(); secs > 0 {
		st.KernelsPerSec = float64(st.Kernels) / secs
	}
	return results, st
}

// label is the job's result name: its own, or the function's.
func (j Job) label() string {
	if j.Name == "" && j.Func != nil {
		return j.Func.Name
	}
	return j.Name
}

// onKernel, when non-nil, brackets each kernel compile. Tests use it to
// observe worker concurrency; it must be set before Compile is called.
var onKernel func(index int, done bool)

// compileOne compiles a single kernel, converting panics to per-kernel
// errors so a pathological input cannot take down the whole batch, and
// retrying transient failures with capped exponential backoff.
func compileOne(ctx context.Context, cfg *pipeline.Config, job Job, index int, timeout time.Duration) (res Result) {
	res = Result{Index: index, Name: job.label()}
	t0 := time.Now()
	defer func() {
		if r := recover(); r != nil {
			res.Artifact = nil
			res.Err = rerr.Wrap(rerr.Permanent, "internal_panic",
				"internal panic during compile",
				fmt.Errorf("batch: kernel %d (%s): panic: %v", index, res.Name, r))
		}
		res.Dur = time.Since(t0)
	}()
	if onKernel != nil {
		defer onKernel(index, true)
		onKernel(index, false)
	}
	if job.Func == nil && job.Compile == nil {
		res.Attempts = 1
		res.Err = rerr.Wrap(rerr.Permanent, "invalid_kernel", "invalid kernel",
			fmt.Errorf("batch: kernel %d: nil function", index))
		return res
	}
	for attempt := 0; ; attempt++ {
		res.Attempts = attempt + 1
		res.Artifact, res.Err = compileAttempt(ctx, cfg, job, timeout)
		if res.Err == nil {
			return res
		}
		// Retry only genuinely transient failures, and only while the
		// batch itself is still alive — a cancelled batch must not be
		// kept warm by its own retry loop.
		if attempt >= DefaultRetries || rerr.ClassOf(res.Err) != rerr.Transient || ctx.Err() != nil {
			return res
		}
		delay := retryDelay(index, attempt)
		// A retry only makes sense while the deadline budget can still
		// cover the backoff plus some compute: sleeping into (or past) the
		// deadline burns a worker slot to produce a guaranteed timeout.
		if dl, ok := ctx.Deadline(); ok && time.Until(dl) < delay+minRetryBudget {
			return res
		}
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return res
		}
	}
}

// compileAttempt is one fault-observing compile under the per-kernel
// timeout.
func compileAttempt(ctx context.Context, cfg *pipeline.Config, job Job, timeout time.Duration) (*pipeline.Artifact, error) {
	kctx := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		kctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	if err := FaultWorker.Fire(kctx); err != nil {
		return nil, err
	}
	if job.Compile != nil {
		return job.Compile(kctx)
	}
	return pipeline.Compile(kctx, cfg, job.Func)
}

// retryDelay is the capped exponential backoff before retry `attempt`,
// with deterministic per-kernel jitter (a hash of index and attempt) so
// colliding retries spread out without making batch runs flaky.
func retryDelay(index, attempt int) time.Duration {
	base := baseRetryDelay << uint(attempt)
	if base > maxRetryDelay {
		base = maxRetryDelay
	}
	h := uint64(index)*0x9E3779B97F4A7C15 + uint64(attempt)*0xBF58476D1CE4E5B9
	h ^= h >> 31
	jitter := time.Duration(h % uint64(base/2+1))
	return base + jitter
}

const (
	baseRetryDelay = 2 * time.Millisecond
	maxRetryDelay  = 50 * time.Millisecond
	// minRetryBudget is the deadline headroom a retry must still have
	// after its backoff sleep; with less, the attempt is abandoned.
	minRetryBudget = 2 * time.Millisecond
)
