package place

import (
	"context"
	"errors"
	"strings"
	"testing"

	"reticle/internal/asm"
	"reticle/internal/faults"
	"reticle/internal/rerr"
)

// sixDsp is a satisfiable program whose solve needs more than one step,
// so MaxSteps: 1 deterministically exhausts the budget.
const sixDsp = `
def f(a:i8, b:i8, c:i8) -> (y:i8) {
    t0:i8 = muladd(a, b, c) @dsp(??, ??);
    t1:i8 = muladd(t0, a, b) @dsp(??, ??);
    t2:i8 = muladd(t1, a, b) @dsp(??, ??);
    t3:i8 = muladd(t2, a, b) @dsp(??, ??);
    t4:i8 = muladd(t3, a, b) @dsp(??, ??);
    y:i8 = muladd(t4, a, b) @dsp(??, ??);
}
`

// TestStepBudgetDegrades: exhausting MaxSteps engages the greedy
// fallback — a valid, fully resolved, Degraded-marked placement instead
// of an error.
func TestStepBudgetDegrades(t *testing.T) {
	f, err := asm.Parse(sixDsp)
	if err != nil {
		t.Fatal(err)
	}
	dev := dev4(t)
	res, err := PlaceContext(context.Background(), f, dev, Options{MaxSteps: 1})
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	if !res.Degraded {
		t.Fatal("result not marked Degraded after step-budget exhaustion")
	}
	if !strings.Contains(res.DegradedReason, "step budget") {
		t.Errorf("DegradedReason = %q, want step-budget mention", res.DegradedReason)
	}
	if !res.Fn.Resolved() {
		t.Fatalf("fallback left unresolved locations:\n%s", res.Fn)
	}
	if err := Verify(f, res.Fn, dev); err != nil {
		t.Errorf("fallback placement fails satcheck: %v", err)
	}
}

// TestFallbackHonorsPins: the greedy fallback must respect literal
// location pins, proven through the satcheck oracle.
func TestFallbackHonorsPins(t *testing.T) {
	f, err := asm.Parse(`
def f(a:i8, b:i8, c:i8) -> (y:i8) {
    t0:i8 = muladd(a, b, c) @dsp(1, 3);
    t1:i8 = muladd(t0, a, b) @dsp(??, ??);
    t2:i8 = muladd(t1, a, b) @dsp(??, ??);
    y:i8 = muladd(t2, a, b) @dsp(??, ??);
}
`)
	if err != nil {
		t.Fatal(err)
	}
	dev := dev4(t)
	res, perr := PlaceContext(context.Background(), f, dev, Options{MaxSteps: 1})
	if perr != nil {
		t.Fatalf("Place: %v", perr)
	}
	if !res.Degraded {
		t.Fatal("expected a degraded placement")
	}
	if got := slots(res.Fn)["t0"]; got.X != 1 || got.Y != 3 {
		t.Errorf("pinned t0 placed at (%d, %d), want (1, 3)", got.X, got.Y)
	}
	if err := Verify(f, res.Fn, dev); err != nil {
		t.Errorf("satcheck: %v", err)
	}
}

// TestCanceledContextFails: a dead context fails the placement with the
// context's typed classification instead of degrading — the caller is
// gone, so a fallback answer has no one to serve.
func TestCanceledContextFails(t *testing.T) {
	f, err := asm.Parse(sixDsp)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = PlaceContext(ctx, f, dev4(t), Options{MaxSteps: 1})
	if err == nil {
		t.Fatal("expected an error under a canceled context")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled in the chain", err)
	}
	if rerr.ClassOf(err) != rerr.Transient {
		t.Errorf("class = %v, want Transient", rerr.ClassOf(err))
	}
}

// TestShrinkInterruptDegrades: a soft time budget expiring mid-shrink
// (simulated by the place/shrink-interrupt fault point) keeps the valid
// base placement but marks it Degraded — a time-truncated compaction is
// not reproducible, so it must never look like a cacheable artifact.
func TestShrinkInterruptDegrades(t *testing.T) {
	f, err := asm.Parse(sixDsp)
	if err != nil {
		t.Fatal(err)
	}
	dev := dev4(t)
	plan := faults.NewPlan(map[faults.Point]faults.Injection{
		FaultShrinkInterrupt: {Class: rerr.Exhausted, Times: 1},
	})
	ctx := faults.WithPlan(context.Background(), plan)
	res, perr := PlaceContext(ctx, f, dev, Options{Shrink: true})
	if perr != nil {
		t.Fatalf("PlaceContext: %v", perr)
	}
	if !res.Degraded {
		t.Fatal("shrink interruption did not mark the placement Degraded")
	}
	if !strings.Contains(res.DegradedReason, "shrink") {
		t.Errorf("DegradedReason = %q, want shrink mention", res.DegradedReason)
	}
	if !res.Fn.Resolved() {
		t.Fatalf("interrupted shrink left unresolved locations:\n%s", res.Fn)
	}
	if err := Verify(f, res.Fn, dev); err != nil {
		t.Errorf("interrupted-shrink placement fails satcheck: %v", err)
	}
}

// TestFaultPointDegrades: arming place/solver-budget forces the fallback
// without any real budget pressure — the injection seam the chaos sweep
// leans on.
func TestFaultPointDegrades(t *testing.T) {
	f, err := asm.Parse(sixDsp)
	if err != nil {
		t.Fatal(err)
	}
	dev := dev4(t)
	plan := faults.NewPlan(map[faults.Point]faults.Injection{
		FaultSolverBudget: {Class: rerr.Exhausted, Times: 1},
	})
	ctx := faults.WithPlan(context.Background(), plan)
	res, perr := PlaceContext(ctx, f, dev, Options{})
	if perr != nil {
		t.Fatalf("PlaceContext: %v", perr)
	}
	if !res.Degraded {
		t.Fatal("fault injection did not degrade the placement")
	}
	if err := Verify(f, res.Fn, dev); err != nil {
		t.Errorf("satcheck: %v", err)
	}
}
