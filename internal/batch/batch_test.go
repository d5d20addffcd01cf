package batch

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"reticle/internal/bench"
	"reticle/internal/ir"
	"reticle/internal/isel"
	"reticle/internal/pipeline"
	"reticle/internal/target/ultrascale"
)

// testConfig builds the shared read-only config the batch compiles
// against: the bundled UltraScale-like family with cascade metadata.
func testConfig(t testing.TB) *pipeline.Config {
	t.Helper()
	lib, err := isel.NewLibrary(ultrascale.Target())
	if err != nil {
		t.Fatal(err)
	}
	cascades := ultrascale.Cascades()
	return &pipeline.Config{
		Target:   ultrascale.Target(),
		Device:   ultrascale.Device(),
		Lib:      lib,
		Cascades: cascades,
	}
}

// goodKernel builds a small valid kernel whose name embeds i, so every
// job in a batch is distinct.
func goodKernel(t testing.TB, i int) *ir.Func {
	t.Helper()
	src := fmt.Sprintf(`
def k%d(a:i8, b:i8, c:i8) -> (y:i8) {
    t0:i8 = mul(a, b) @??;
    y:i8 = add(t0, c) @??;
}`, i)
	f, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// badTypeKernel builds a kernel at a width no pattern in the bundled
// target covers, so selection fails.
func badTypeKernel(t testing.TB) *ir.Func {
	t.Helper()
	f, err := ir.Parse(`
def bad(a:i3, b:i3) -> (y:i3) {
    y:i3 = add(a, b) @??;
}`)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// overflowKernel builds a kernel whose DSP demand exceeds the bundled
// device's 360 slices, so placement's capacity pre-check fails.
func overflowKernel(t testing.TB) *ir.Func {
	t.Helper()
	f, err := bench.TensorDot(40, 10) // 400 fused multiply-adds
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestCompileBatchAllGood(t *testing.T) {
	cfg := testConfig(t)
	const n = 12
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Func: goodKernel(t, i)}
	}
	results, st, err := Compile(context.Background(), cfg, jobs, Options{Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != n {
		t.Fatalf("got %d results, want %d", len(results), n)
	}
	for i, r := range results {
		if r.Index != i {
			t.Errorf("result %d carries index %d", i, r.Index)
		}
		if !r.Ok() {
			t.Errorf("kernel %d failed: %v", i, r.Err)
			continue
		}
		if want := fmt.Sprintf("k%d", i); r.Name != want {
			t.Errorf("kernel %d named %q, want %q", i, r.Name, want)
		}
		if r.Artifact == nil || r.Artifact.Verilog == "" {
			t.Errorf("kernel %d has no artifact", i)
		}
	}
	if st.Kernels != n || st.Succeeded != n || st.Failed != 0 {
		t.Errorf("stats = %+v, want %d/%d/0", st, n, n)
	}
	if st.KernelsPerSec <= 0 {
		t.Errorf("kernels/sec not computed: %+v", st)
	}
	if st.Stages.Select <= 0 || st.Stages.Place <= 0 {
		t.Errorf("per-stage times not aggregated: %+v", st.Stages)
	}
}

// TestCompileBatchMixedErrors locks in the headline error contract: a
// type-error kernel, a capacity-overflow kernel, and a nil kernel produce
// per-kernel errors without failing the batch or the healthy kernels.
func TestCompileBatchMixedErrors(t *testing.T) {
	cfg := testConfig(t)
	jobs := []Job{
		{Func: goodKernel(t, 0)},
		{Func: badTypeKernel(t)},
		{Func: goodKernel(t, 2)},
		{Name: "hole", Func: nil},
		{Func: overflowKernel(t)},
		{Func: goodKernel(t, 5)},
	}
	results, st, err := Compile(context.Background(), cfg, jobs, Options{Jobs: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 2, 5} {
		if !results[i].Ok() {
			t.Errorf("healthy kernel %d failed: %v", i, results[i].Err)
		}
	}
	if results[1].Ok() || !strings.Contains(results[1].Err.Error(), "selection") {
		t.Errorf("type-error kernel: got %v, want a selection error", results[1].Err)
	}
	if results[3].Ok() || !strings.Contains(results[3].Err.Error(), "nil function") {
		t.Errorf("nil kernel: got %v, want nil-function error", results[3].Err)
	}
	if results[4].Ok() || !strings.Contains(results[4].Err.Error(), "capacity") {
		t.Errorf("overflow kernel: got %v, want a capacity error", results[4].Err)
	}
	if st.Succeeded != 3 || st.Failed != 3 {
		t.Errorf("stats = %+v, want 3 succeeded / 3 failed", st)
	}
	for _, r := range results {
		if !r.Ok() && r.Artifact != nil {
			t.Errorf("kernel %d: failed result carries an artifact", r.Index)
		}
	}
}

// TestCompileBatchCancelledUpfront: a context cancelled before the batch
// starts yields a per-kernel context error for every kernel — the batch
// still returns normally.
func TestCompileBatchCancelledUpfront(t *testing.T) {
	cfg := testConfig(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = Job{Func: goodKernel(t, i)}
	}
	results, st, err := Compile(ctx, cfg, jobs, Options{Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("kernel %d: err = %v, want context.Canceled", r.Index, r.Err)
		}
	}
	if st.Failed != len(jobs) {
		t.Errorf("stats = %+v, want all failed", st)
	}
}

// TestCompileBatchCancelMidBatch cancels while workers are busy. The
// batch must return (no deadlock), and every kernel must end in exactly
// one of the two legal states: compiled artifact or error.
func TestCompileBatchCancelMidBatch(t *testing.T) {
	cfg := testConfig(t)
	const n = 24
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Func: goodKernel(t, i)}
	}
	ctx, cancel := context.WithCancel(context.Background())
	var fired atomic.Bool
	prev := onKernel
	onKernel = func(index int, done bool) {
		// Cancel as soon as the first kernel finishes: the rest of the
		// batch observes a dead context mid-flight.
		if done && fired.CompareAndSwap(false, true) {
			cancel()
		}
	}
	defer func() { onKernel = prev; cancel() }()

	done := make(chan struct{})
	var results []Result
	var st Stats
	var err error
	go func() {
		defer close(done)
		results, st, err = Compile(ctx, cfg, jobs, Options{Jobs: 2})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("batch deadlocked after mid-batch cancellation")
	}
	if err != nil {
		t.Fatal(err)
	}
	cancelled := 0
	for _, r := range results {
		switch {
		case r.Ok():
			if r.Artifact == nil {
				t.Errorf("kernel %d: ok without artifact", r.Index)
			}
		case errors.Is(r.Err, context.Canceled):
			cancelled++
		default:
			t.Errorf("kernel %d: unexpected error %v", r.Index, r.Err)
		}
	}
	if cancelled == 0 {
		t.Error("cancellation fired but no kernel reported context.Canceled")
	}
	if st.Succeeded+st.Failed != n {
		t.Errorf("stats don't cover the batch: %+v", st)
	}
}

// TestCompileBatchKernelTimeout: an absurdly small per-kernel deadline
// fails each kernel with DeadlineExceeded, independently of the batch
// context.
func TestCompileBatchKernelTimeout(t *testing.T) {
	cfg := testConfig(t)
	jobs := []Job{{Func: goodKernel(t, 0)}, {Func: goodKernel(t, 1)}}
	results, _, err := Compile(context.Background(), cfg, jobs,
		Options{Jobs: 2, KernelTimeout: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !errors.Is(r.Err, context.DeadlineExceeded) {
			t.Errorf("kernel %d: err = %v, want DeadlineExceeded", r.Index, r.Err)
		}
	}
}

// TestCompileBatchBoundedWorkers proves Options.Jobs is a hard ceiling on
// concurrent kernel compiles.
func TestCompileBatchBoundedWorkers(t *testing.T) {
	cfg := testConfig(t)
	const n, bound = 16, 3
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Func: goodKernel(t, i)}
	}
	var cur, peak atomic.Int32
	prev := onKernel
	onKernel = func(index int, done bool) {
		if done {
			cur.Add(-1)
			return
		}
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
	}
	defer func() { onKernel = prev }()
	if _, _, err := Compile(context.Background(), cfg, jobs, Options{Jobs: bound}); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > bound {
		t.Errorf("observed %d concurrent kernels, bound is %d", p, bound)
	}
}

// TestCompileBatchPanicIsolated: a panicking kernel becomes a per-kernel
// error; its siblings still compile. The nil-config panic path inside
// pipeline is hard to reach, so the test panics from the observation
// hook, which runs on the worker goroutine inside compileOne's recover
// scope.
func TestCompileBatchPanicIsolated(t *testing.T) {
	cfg := testConfig(t)
	jobs := []Job{{Func: goodKernel(t, 0)}, {Func: goodKernel(t, 1)}, {Func: goodKernel(t, 2)}}
	prev := onKernel
	onKernel = func(index int, done bool) {
		if !done && index == 1 {
			panic("boom")
		}
	}
	defer func() { onKernel = prev }()
	results, st, err := Compile(context.Background(), cfg, jobs, Options{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if results[1].Ok() || !strings.Contains(results[1].Err.Error(), "panic") {
		t.Errorf("panicking kernel: got %v, want panic error", results[1].Err)
	}
	for _, i := range []int{0, 2} {
		if !results[i].Ok() {
			t.Errorf("sibling kernel %d failed: %v", i, results[i].Err)
		}
	}
	if st.Succeeded != 2 || st.Failed != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestCompileBatchEmptyAndInvalidConfig covers the degenerate inputs.
func TestCompileBatchEmptyAndInvalidConfig(t *testing.T) {
	cfg := testConfig(t)
	results, st, err := Compile(context.Background(), cfg, nil, Options{})
	if err != nil || len(results) != 0 || st.Kernels != 0 {
		t.Errorf("empty batch: results=%v stats=%+v err=%v", results, st, err)
	}
	if _, _, err := Compile(context.Background(), nil, nil, Options{}); err == nil {
		t.Error("nil config accepted")
	}
	if _, _, err := Compile(context.Background(), &pipeline.Config{}, nil, Options{}); err == nil {
		t.Error("incomplete config accepted")
	}
}

// TestCompileBatchDeterministicAcrossJobs: the same batch at different
// worker counts yields byte-identical Verilog per kernel.
func TestCompileBatchDeterministicAcrossJobs(t *testing.T) {
	cfg := testConfig(t)
	const n = 10
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Func: goodKernel(t, i)}
	}
	var base []string
	for _, workers := range []int{1, 4, 8} {
		results, _, err := Compile(context.Background(), cfg, jobs, Options{Jobs: workers})
		if err != nil {
			t.Fatal(err)
		}
		vs := make([]string, n)
		for i, r := range results {
			if !r.Ok() {
				t.Fatalf("jobs=%d kernel %d: %v", workers, i, r.Err)
			}
			vs[i] = r.Artifact.Verilog
		}
		if base == nil {
			base = vs
			continue
		}
		for i := range vs {
			if vs[i] != base[i] {
				t.Errorf("jobs=%d kernel %d: Verilog differs from jobs=1", workers, i)
			}
		}
	}
}

// TestCompileBatchSharedConfigConcurrentBatches runs several whole
// batches against one config at once — the shared-library claim at the
// batch layer. Run with -race.
func TestCompileBatchSharedConfigConcurrentBatches(t *testing.T) {
	cfg := testConfig(t)
	const batches = 4
	all := make([][]Job, batches)
	for b := range all {
		all[b] = make([]Job, 6)
		for i := range all[b] {
			all[b][i] = Job{Func: goodKernel(t, b*100+i)}
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, batches)
	for b := 0; b < batches; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			results, _, err := Compile(context.Background(), cfg, all[b], Options{Jobs: 3})
			if err != nil {
				errs <- err
				return
			}
			for _, r := range results {
				if !r.Ok() {
					errs <- fmt.Errorf("batch %d kernel %d: %w", b, r.Index, r.Err)
					return
				}
			}
		}(b)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestOptionsValidate pins the option-validation contract: zero values
// are valid defaults, negatives are typed errors callers can match with
// errors.Is, and Compile enforces Validate before spawning workers.
// Regression: negative Jobs/KernelTimeout previously slid through as
// implicit defaults instead of being rejected.
func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		want error // nil means valid
	}{
		{"zero-defaults", Options{}, nil},
		{"explicit-jobs", Options{Jobs: 4}, nil},
		{"explicit-timeout", Options{KernelTimeout: time.Second}, nil},
		{"negative-jobs", Options{Jobs: -1}, ErrInvalidJobs},
		{"very-negative-jobs", Options{Jobs: -1 << 30}, ErrInvalidJobs},
		{"negative-timeout", Options{KernelTimeout: -time.Nanosecond}, ErrInvalidTimeout},
		{"both-negative", Options{Jobs: -2, KernelTimeout: -time.Hour}, ErrInvalidJobs},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.opts.Validate()
			if tc.want == nil {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("Validate() = %v, want errors.Is(err, %v)", err, tc.want)
			}
		})
	}
}

// TestCompileRejectsInvalidOptions: Compile surfaces Validate errors as
// batch-level failures (no results, no partial work), preserving the
// typed error for errors.Is.
func TestCompileRejectsInvalidOptions(t *testing.T) {
	cfg := testConfig(t)
	jobs := []Job{{Func: goodKernel(t, 0)}}

	results, st, err := Compile(context.Background(), cfg, jobs, Options{Jobs: -1})
	if !errors.Is(err, ErrInvalidJobs) {
		t.Fatalf("Jobs=-1: err = %v, want ErrInvalidJobs", err)
	}
	if results != nil || st.Kernels != 0 {
		t.Errorf("Jobs=-1 ran work anyway: results=%v stats=%+v", results, st)
	}

	_, _, err = Compile(context.Background(), cfg, jobs, Options{KernelTimeout: -time.Second})
	if !errors.Is(err, ErrInvalidTimeout) {
		t.Fatalf("KernelTimeout<0: err = %v, want ErrInvalidTimeout", err)
	}
}
