package shard

import (
	"sync"
	"testing"
	"time"
)

// testClock is the injected deterministic clock: every transition in these
// tests is driven by explicit Advance calls, never by wall time.
type testClock struct {
	mu  sync.Mutex
	now time.Time
}

func newTestClock() *testClock { return &testClock{now: time.Unix(1000, 0)} }

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func newTestBreaker(c *testClock) *breaker {
	b := newBreaker()
	b.now = c.Now
	return b
}

// tripped returns a breaker the clock c drives that has just opened.
func tripped(t *testing.T, c *testClock) *breaker {
	t.Helper()
	b := newTestBreaker(c)
	for i := 0; i < breakerMinSamples; i++ {
		b.record(false)
	}
	if b.stats().State != breakerOpen {
		t.Fatal("setup: breaker did not trip")
	}
	return b
}

func TestBreakerStaysClosedUnderSuccess(t *testing.T) {
	c := newTestClock()
	b := newTestBreaker(c)
	for i := 0; i < 100; i++ {
		if !allowed(b) {
			t.Fatalf("closed breaker refused request %d", i)
		}
		b.record(true)
	}
	if st := b.stats(); st.State != breakerClosed || st.Trips != 0 {
		t.Fatalf("after all-success: %+v, want closed and never tripped", st)
	}
}

func TestBreakerMinSamplesGate(t *testing.T) {
	c := newTestClock()
	b := newTestBreaker(c)
	// Three straight failures: 100% failure rate but below the minimum
	// sample count, so the breaker must not trip on a cold,
	// barely-observed backend.
	for i := 0; i < 3; i++ {
		b.record(false)
	}
	if got := b.stats().State; got != breakerClosed {
		t.Fatalf("tripped at 3 samples: state %v", got)
	}
	// The fourth failure reaches the minimum at 100% failure: trip.
	b.record(false)
	if got := b.stats().State; got != breakerOpen {
		t.Fatalf("state %v after 4/4 failures, want open", got)
	}
}

func TestBreakerTripsOnFailureRate(t *testing.T) {
	c := newTestClock()
	b := newTestBreaker(c)
	// Alternate success/failure: exactly 50% failures, which trips the
	// breaker once the window holds 4 samples.
	b.record(true)
	b.record(false)
	b.record(true)
	if got := b.stats().State; got != breakerClosed {
		t.Fatalf("tripped at 3 samples: state %v", got)
	}
	b.record(false) // 2/4 = 0.5 >= 0.5: trip
	if st := b.stats(); st.State != breakerOpen || st.Trips != 1 {
		t.Fatalf("at 50%% failure rate: %+v, want open with 1 trip", st)
	}
	if allowed(b) {
		t.Fatal("open breaker allowed a request before cooldown")
	}
}

func TestBreakerHalfOpenRecovery(t *testing.T) {
	c := newTestClock()
	b := tripped(t, c)

	// The cooldown is exactly 5s: refused a nanosecond before.
	c.Advance(5*time.Second - time.Nanosecond)
	if allowed(b) {
		t.Fatal("allowed before cooldown elapsed")
	}
	// At 5s: exactly one probe is granted; the next caller is refused
	// while the probe is in flight.
	c.Advance(time.Nanosecond)
	if ok, probe := b.allow(); !ok || !probe {
		t.Fatalf("allow = %v, %v at the end of the cooldown, want a probe grant", ok, probe)
	}
	if got := b.stats().State; got != breakerHalfOpen {
		t.Fatalf("state %v after probe grant, want half-open", got)
	}
	if allowed(b) {
		t.Fatal("second concurrent probe granted")
	}
	// Probe succeeds: closed, recovery counted, window fresh.
	b.record(true)
	if st := b.stats(); st.State != breakerClosed || st.Recoveries != 1 || b.filled != 0 {
		t.Fatalf("after recovery: %+v with %d samples, want closed, 1 recovery, none", st, b.filled)
	}
	if !allowed(b) {
		t.Fatal("recovered breaker refused traffic")
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	c := newTestClock()
	b := tripped(t, c)
	c.Advance(5 * time.Second)
	if !allowed(b) {
		t.Fatal("probe not granted")
	}
	b.record(false)
	if st := b.stats(); st.State != breakerOpen || st.Trips != 2 {
		t.Fatalf("after failed probe: %+v, want open with 2 trips", st)
	}
	// The new cooldown starts from the failed probe, not the old trip.
	c.Advance(5*time.Second - time.Nanosecond)
	if allowed(b) {
		t.Fatal("allowed before the re-opened cooldown elapsed")
	}
	c.Advance(time.Nanosecond)
	if !allowed(b) {
		t.Fatal("second probe not granted after re-opened cooldown")
	}
}

func TestBreakerProbeTimeoutReleasesSlot(t *testing.T) {
	c := newTestClock()
	b := tripped(t, c)
	c.Advance(5 * time.Second)
	if !allowed(b) {
		t.Fatal("probe not granted")
	}
	// The probe's outcome never arrives (cancelled hedge loser). The
	// slot must re-arm after exactly 10s so the backend is not stuck
	// half-open forever.
	c.Advance(10*time.Second - time.Nanosecond)
	if allowed(b) {
		t.Fatal("second probe granted before the probe timeout")
	}
	c.Advance(time.Nanosecond)
	if ok, probe := b.allow(); !ok || !probe {
		t.Fatalf("allow = %v, %v at the probe timeout, want a probe grant", ok, probe)
	}
}

func TestBreakerStaleRecordIgnoredWhileOpen(t *testing.T) {
	c := newTestClock()
	b := tripped(t, c)
	// A slow in-flight request from before the trip reports success:
	// it must not close the breaker from the open state.
	b.record(true)
	if got := b.stats().State; got != breakerOpen {
		t.Fatalf("stale success closed an open breaker: %v", got)
	}
}

func TestBreakerWindowRolls(t *testing.T) {
	c := newTestClock()
	b := newTestBreaker(c)
	// Fill the 16-slot window with successes, then add failures: the
	// failure rate is computed over the rolling window, so 8 failures
	// after 16 successes is 8/16 = 0.5 → trip (the oldest successes
	// rolled out keep it at exactly the threshold).
	for i := 0; i < 16; i++ {
		b.record(true)
	}
	for i := 0; i < 7; i++ {
		b.record(false)
	}
	if got := b.stats().State; got != breakerClosed {
		t.Fatalf("tripped at 7/16 failures: %v", got)
	}
	b.record(false)
	if got := b.stats().State; got != breakerOpen {
		t.Fatalf("state %v at 8/16 windowed failures, want open", got)
	}
}

func TestBreakerConcurrentUse(t *testing.T) {
	c := newTestClock()
	b := newTestBreaker(c)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if allowed(b) {
					b.record(i%3 != 0)
				}
				if i%50 == 0 {
					c.Advance(time.Second)
				}
			}
		}(g)
	}
	wg.Wait()
	// No assertion beyond "no race, no panic, the window is coherent".
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.filled > breakerWindow {
		t.Fatalf("window overflow: %d samples", b.filled)
	}
}

// allowed is allow without the probe flag.
func allowed(b *breaker) bool {
	ok, _ := b.allow()
	return ok
}
