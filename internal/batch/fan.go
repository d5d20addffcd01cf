package batch

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"reticle/internal/rerr"
)

// Fan is an ordered fan-out: n slots filled by at most min(workers, n)
// goroutines, each slot final exactly once. It is the one concurrency
// pattern under Compile, the explore sweep and both tiers' streaming
// handlers (DESIGN.md §7, "Ordered fan-out").
type Fan[R any] struct {
	slots   []R
	final   []chan struct{} // final[i] is closed once slots[i] is final
	workers sync.WaitGroup
}

// FanOut starts work(i) for every i in [0,n) and returns at once. A slot
// becomes final with work's value — or, when ctx ended before a worker
// took it or its work panicked, with skipped(i, cause): cause is ctx's
// error, or a typed internal_panic. Nothing else ever writes a slot, so
// callers need no once, no back-fill and no goroutine of their own.
func FanOut[R any](ctx context.Context, n, workers int, work func(i int) R, skipped func(i int, cause error) R) *Fan[R] {
	f := &Fan[R]{slots: make([]R, n), final: make([]chan struct{}, n)}
	for i := range f.final {
		f.final[i] = make(chan struct{})
	}
	// Workers claim indices from a shared counter, so each index has one
	// owner and no dispatcher is needed; a client-supplied workers of 1e9
	// still starts n goroutines at most.
	var next atomic.Int64
	for w := min(max(workers, 1), n); w > 0; w-- {
		f.workers.Add(1)
		go func() {
			defer f.workers.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				f.fill(ctx, i, work, skipped)
			}
		}()
	}
	return f
}

func (f *Fan[R]) fill(ctx context.Context, i int, work func(int) R, skipped func(int, error) R) {
	defer close(f.final[i])
	defer func() {
		if p := recover(); p != nil {
			f.slots[i] = skipped(i, rerr.Wrap(rerr.Permanent, "internal_panic",
				"internal panic in a fan-out worker", fmt.Errorf("panic: %v", p)))
		}
	}()
	if err := ctx.Err(); err != nil {
		f.slots[i] = skipped(i, err)
		return
	}
	f.slots[i] = work(i)
}

// Wait blocks until slot i is final and returns it; safe from any number
// of goroutines.
func (f *Fan[R]) Wait(i int) R {
	<-f.final[i]
	return f.slots[i]
}

// Drain returns every slot once all are final and no worker is running.
// A caller that stops early cancels ctx and then drains, so no goroutine
// outlives it.
func (f *Fan[R]) Drain() []R {
	f.workers.Wait()
	return f.slots
}
