package batch

import (
	"context"
	"errors"
	"sync"
	"testing"

	"reticle/internal/faults"
	"reticle/internal/rerr"
)

// armWorker returns a context whose fault plan makes FaultWorker fail
// `times` attempts with the given class (times < 0 = every attempt).
func armWorker(class rerr.Class, times int) context.Context {
	plan := faults.NewPlan(map[faults.Point]faults.Injection{
		FaultWorker: {Class: class, Times: times},
	})
	return faults.WithPlan(context.Background(), plan)
}

// TestTransientRetried: one injected transient failure is absorbed by
// the retry loop — the kernel succeeds on attempt two and the batch
// stats account for the extra attempt.
func TestTransientRetried(t *testing.T) {
	ctx := armWorker(rerr.Transient, 1)
	jobs := []Job{{Func: goodKernel(t, 0)}}
	results, stats, err := Compile(ctx, testConfig(t), jobs, Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := results[0]
	if !r.Ok() {
		t.Fatalf("kernel failed despite retry budget: %v", r.Err)
	}
	if r.Attempts != 2 {
		t.Errorf("Attempts = %d, want 2", r.Attempts)
	}
	if stats.Retried != 1 {
		t.Errorf("stats.Retried = %d, want 1", stats.Retried)
	}
	if stats.Succeeded != 1 {
		t.Errorf("stats.Succeeded = %d, want 1", stats.Succeeded)
	}
}

// TestPermanentNotRetried: a permanent failure burns no retry budget.
func TestPermanentNotRetried(t *testing.T) {
	ctx := armWorker(rerr.Permanent, -1)
	jobs := []Job{{Func: goodKernel(t, 0)}}
	results, stats, err := Compile(ctx, testConfig(t), jobs, Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := results[0]
	if r.Ok() {
		t.Fatal("kernel unexpectedly succeeded under a permanent fault")
	}
	if !errors.Is(r.Err, rerr.ErrPermanent) {
		t.Errorf("err = %v, want rerr.ErrPermanent", r.Err)
	}
	if r.Attempts != 1 {
		t.Errorf("Attempts = %d, want 1 (permanent errors must not retry)", r.Attempts)
	}
	if stats.Retried != 0 {
		t.Errorf("stats.Retried = %d, want 0", stats.Retried)
	}
}

// TestExhaustedNotRetried: resource exhaustion (quota, capacity) is not
// a retry candidate either — retrying would hammer an already-starved
// resource.
func TestExhaustedNotRetried(t *testing.T) {
	ctx := armWorker(rerr.Exhausted, -1)
	results, _, err := Compile(ctx, testConfig(t), []Job{{Func: goodKernel(t, 0)}}, Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Attempts != 1 {
		t.Errorf("Attempts = %d, want 1", results[0].Attempts)
	}
	if !errors.Is(results[0].Err, rerr.ErrExhausted) {
		t.Errorf("err = %v, want rerr.ErrExhausted", results[0].Err)
	}
}

// TestRetryBudgetExhausted: a fault that stays transient forever runs
// the full default budget (initial attempt + DefaultRetries) and then
// surfaces the typed transient error.
func TestRetryBudgetExhausted(t *testing.T) {
	ctx := armWorker(rerr.Transient, -1)
	results, stats, err := Compile(ctx, testConfig(t), []Job{{Func: goodKernel(t, 0)}}, Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := results[0]
	if r.Ok() {
		t.Fatal("kernel unexpectedly succeeded under a persistent fault")
	}
	if want := DefaultRetries + 1; r.Attempts != want {
		t.Errorf("Attempts = %d, want %d", r.Attempts, want)
	}
	if !errors.Is(r.Err, rerr.ErrTransient) {
		t.Errorf("err = %v, want rerr.ErrTransient", r.Err)
	}
	if stats.Retried != DefaultRetries {
		t.Errorf("stats.Retried = %d, want %d", stats.Retried, DefaultRetries)
	}
}

// TestCancelFlushesCompleted is the regression test for the
// cancel-flush contract: when the batch context dies mid-run, Results
// for kernels that already finished are returned intact, and every
// kernel the dispatcher never handed out carries a typed canceled
// error — none are lost and none are silently zero.
func TestCancelFlushesCompleted(t *testing.T) {
	const n = 4
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Cancel the batch when kernel 1 enters its worker; kernel 0 has
	// already completed (Jobs: 1 serializes the feed), and kernels 2..3
	// are still queued. gate blocks kernel 1 until the dispatcher has
	// observed the cancellation and flushed the tail.
	var once sync.Once
	gate := make(chan struct{})
	onKernel = func(index int, done bool) {
		if index == 1 && !done {
			once.Do(func() {
				cancel()
				<-gate
			})
		}
	}
	defer func() { onKernel = nil }()

	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Func: goodKernel(t, i)}
	}
	resc := make(chan []Result, 1)
	errc := make(chan error, 1)
	go func() {
		results, _, err := Compile(ctx, testConfig(t), jobs, Options{Jobs: 1})
		errc <- err
		resc <- results
	}()
	close(gate)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	results := <-resc

	if !results[0].Ok() {
		t.Fatalf("completed kernel 0 was not flushed: %v", results[0].Err)
	}
	if results[0].Artifact == nil {
		t.Fatal("kernel 0 flushed without its artifact")
	}
	for i := 2; i < n; i++ {
		r := results[i]
		if r.Ok() {
			t.Errorf("kernel %d reported success after batch cancel", i)
			continue
		}
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("kernel %d err = %v, want context.Canceled in the chain", i, r.Err)
		}
		if rerr.ClassOf(r.Err) != rerr.Transient {
			t.Errorf("kernel %d class = %v, want Transient", i, rerr.ClassOf(r.Err))
		}
		if r.Name == "" {
			t.Errorf("kernel %d flushed without its name", i)
		}
	}
}
