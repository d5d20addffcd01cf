package batch

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"reticle/internal/rerr"
)

// slot is a fan-out result that says how it became final.
type slot struct {
	i     int
	cause error // nil: work ran
}

// tally counts how often each index was finalised, by either path.
type tally []atomic.Int32

func (c tally) work(i int) slot { c[i].Add(1); return slot{i: i} }

func (c tally) skipped(i int, cause error) slot { c[i].Add(1); return slot{i: i, cause: cause} }

func (c tally) exactlyOnce(t *testing.T, label string) {
	t.Helper()
	for i := range c {
		if n := c[i].Load(); n != 1 {
			t.Errorf("%s: slot %d finalised %d times, want exactly once", label, i, n)
		}
	}
}

// TestFanCancelAtEveryPosition: with the context cancelled after exactly
// k slots have run, for every k in 0..n, each slot is finalised exactly
// once — the first k by work, the rest by skipped with the context's own
// error — and Wait and Drain agree.
func TestFanCancelAtEveryPosition(t *testing.T) {
	const n = 9
	for k := 0; k <= n; k++ {
		ctx, cancel := context.WithCancel(context.Background())
		c := make(tally, n)
		if k == 0 {
			cancel()
		}
		// One worker, so "after k slots" is a position, not a race.
		f := FanOut(ctx, n, 1, func(i int) slot {
			if i == k-1 {
				cancel()
			}
			return c.work(i)
		}, c.skipped)
		for i := 0; i < n; i++ {
			s := f.Wait(i)
			if s.i != i {
				t.Fatalf("k=%d: Wait(%d) returned slot %d", k, i, s.i)
			}
			if ran := s.cause == nil; ran != (i < k) {
				t.Errorf("k=%d: slot %d ran=%v, want %v", k, i, ran, i < k)
			}
			if s.cause != nil && !errors.Is(s.cause, context.Canceled) {
				t.Errorf("k=%d: slot %d skipped with %v, want context.Canceled", k, i, s.cause)
			}
		}
		if got := f.Drain(); len(got) != n || got[n-1] != f.Wait(n-1) {
			t.Errorf("k=%d: Drain returned %d slots, want the %d Wait saw", k, len(got), n)
		}
		c.exactlyOnce(t, "one worker")
		cancel()
	}

	// Several workers: where the cancellation lands is a race, finality is not.
	for k := 0; k < n; k++ {
		ctx, cancel := context.WithCancel(context.Background())
		c := make(tally, n)
		f := FanOut(ctx, n, 3, func(i int) slot {
			if i == k {
				cancel()
			}
			return c.work(i)
		}, c.skipped)
		f.Drain()
		c.exactlyOnce(t, "three workers")
		cancel()
	}
}

// TestFanBoundedWorkers: whatever the caller asks for — one worker, one
// per slot, or the {"jobs":1e9} a client can put in a /batch body — at
// most min(workers, n) goroutines exist and at most that many slots are
// in work at once.
func TestFanBoundedWorkers(t *testing.T) {
	const n = 6
	for _, workers := range []int{1, n, 1e9} {
		want := min(workers, n)
		base := runtime.NumGoroutine()
		var inWork, peak atomic.Int32
		started := make(chan struct{}, n) // one send per slot
		gate := make(chan struct{})
		f := FanOut(context.Background(), n, workers, func(i int) slot {
			now := inWork.Add(1)
			for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
			}
			started <- struct{}{}
			<-gate
			inWork.Add(-1)
			return slot{i: i}
		}, func(i int, cause error) slot { return slot{i: i, cause: cause} })
		for w := 0; w < want; w++ {
			<-started // every worker FanOut started is now blocked inside work
		}
		if got := runtime.NumGoroutine() - base; got > want {
			t.Errorf("workers=%d: %d goroutines running, want at most %d", workers, got, want)
		}
		close(gate)
		for i, s := range f.Drain() {
			if s.i != i || s.cause != nil {
				t.Errorf("workers=%d: slot %d = %+v, want it run", workers, i, s)
			}
		}
		if p := int(peak.Load()); p != want {
			t.Errorf("workers=%d: %d slots in work at once, want %d", workers, p, want)
		}
	}
	if f := FanOut(context.Background(), 0, 4, func(int) slot { return slot{} }, nil); len(f.Drain()) != 0 {
		t.Error("an empty fan-out has slots")
	}
}

// TestFanPanicFinalisesSlot: a panicking work function finalises its own
// slot through skipped, with the typed internal_panic cause, and every
// other slot still runs.
func TestFanPanicFinalisesSlot(t *testing.T) {
	const n, bad = 8, 3
	c := make(tally, n)
	f := FanOut(context.Background(), n, 2, func(i int) slot {
		if i == bad {
			panic("boom")
		}
		return c.work(i)
	}, c.skipped)
	for i, s := range f.Drain() {
		switch {
		case i != bad && s.cause != nil:
			t.Errorf("slot %d skipped with %v, want it run", i, s.cause)
		case i == bad && (rerr.CodeOf(s.cause) != "internal_panic" || rerr.ClassOf(s.cause) != rerr.Permanent):
			t.Errorf("panicked slot cause = %v, want the typed permanent internal_panic", s.cause)
		}
	}
	c.exactlyOnce(t, "panic")
}

// TestFanWaitFromManyGoroutines: any number of goroutines may wait on any
// slot, before or after it is final, and all see the same value.
func TestFanWaitFromManyGoroutines(t *testing.T) {
	const n, waiters = 16, 8
	gate := make(chan struct{})
	f := FanOut(context.Background(), n, 4, func(i int) slot {
		<-gate
		return slot{i: i}
	}, func(i int, cause error) slot { return slot{i: i, cause: cause} })
	var wg sync.WaitGroup
	for w := 0; w < waiters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := n - 1; i >= 0; i-- {
				if s := f.Wait(i); s.i != i || s.cause != nil {
					t.Errorf("Wait(%d) = %+v", i, s)
				}
			}
		}()
	}
	close(gate)
	wg.Wait()
	f.Drain()
}
