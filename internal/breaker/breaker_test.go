package breaker

import (
	"sync"
	"testing"
	"time"
)

// clock is the injected deterministic clock: every transition in these
// tests is driven by explicit Advance calls, never by wall time.
type clock struct {
	mu  sync.Mutex
	now time.Time
}

func newClock() *clock { return &clock{now: time.Unix(1000, 0)} }

func (c *clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *clock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func newTestBreaker(c *clock) *Breaker {
	return New(Options{
		Window:      8,
		MinSamples:  4,
		FailureRate: 0.5,
		OpenFor:     5 * time.Second,
		Now:         c.Now,
	})
}

func TestBreakerStaysClosedUnderSuccess(t *testing.T) {
	c := newClock()
	b := newTestBreaker(c)
	for i := 0; i < 100; i++ {
		if !allow(b) {
			t.Fatalf("closed breaker refused request %d", i)
		}
		b.Record(true)
	}
	if got := b.State(); got != Closed {
		t.Fatalf("state %v after all-success, want Closed", got)
	}
	if st := b.Stats(); st.Trips != 0 {
		t.Fatalf("tripped %d times under pure success", st.Trips)
	}
}

func TestBreakerMinSamplesGate(t *testing.T) {
	c := newClock()
	b := newTestBreaker(c)
	// Three straight failures: 100% failure rate but below MinSamples,
	// so the breaker must not trip on a cold, barely-observed backend.
	for i := 0; i < 3; i++ {
		b.Record(false)
	}
	if got := b.State(); got != Closed {
		t.Fatalf("tripped below MinSamples: state %v", got)
	}
	// The fourth failure reaches MinSamples at 100% failure: trip.
	b.Record(false)
	if got := b.State(); got != Open {
		t.Fatalf("state %v after 4/4 failures, want Open", got)
	}
}

func TestBreakerTripsOnFailureRate(t *testing.T) {
	c := newClock()
	b := newTestBreaker(c)
	// Alternate success/failure: exactly 50% failures. With threshold
	// 0.5 the breaker trips once the window holds MinSamples.
	b.Record(true)
	b.Record(false)
	b.Record(true)
	b.Record(false) // 2/4 = 0.5 >= 0.5: trip
	if got := b.State(); got != Open {
		t.Fatalf("state %v at 50%% failure rate, want Open", got)
	}
	if st := b.Stats(); st.Trips != 1 {
		t.Fatalf("trips = %d, want 1", st.Trips)
	}
	if allow(b) {
		t.Fatal("open breaker allowed a request before cooldown")
	}
}

func TestBreakerHalfOpenRecovery(t *testing.T) {
	c := newClock()
	b := newTestBreaker(c)
	for i := 0; i < 4; i++ {
		b.Record(false)
	}
	if b.State() != Open {
		t.Fatal("setup: breaker did not trip")
	}

	// Before cooldown: refused.
	c.Advance(4 * time.Second)
	if allow(b) {
		t.Fatal("allowed before cooldown elapsed")
	}
	// After cooldown: exactly one probe is granted; the next caller is
	// refused while the probe is in flight.
	c.Advance(2 * time.Second)
	if !allow(b) {
		t.Fatal("probe not granted after cooldown")
	}
	if b.State() != HalfOpen {
		t.Fatalf("state %v after probe grant, want HalfOpen", b.State())
	}
	if allow(b) {
		t.Fatal("second concurrent probe granted")
	}
	// Probe succeeds: closed, recovery counted, window fresh.
	b.Record(true)
	if b.State() != Closed {
		t.Fatalf("state %v after probe success, want Closed", b.State())
	}
	st := b.Stats()
	if st.Recoveries != 1 || st.WindowSize != 0 {
		t.Fatalf("after recovery: %+v", st)
	}
	if !allow(b) {
		t.Fatal("recovered breaker refused traffic")
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	c := newClock()
	b := newTestBreaker(c)
	for i := 0; i < 4; i++ {
		b.Record(false)
	}
	c.Advance(6 * time.Second)
	if !allow(b) {
		t.Fatal("probe not granted")
	}
	b.Record(false)
	if b.State() != Open {
		t.Fatalf("state %v after failed probe, want Open", b.State())
	}
	if st := b.Stats(); st.Trips != 2 {
		t.Fatalf("trips = %d after re-open, want 2", st.Trips)
	}
	// The new cooldown starts from the failed probe, not the old trip.
	c.Advance(4 * time.Second)
	if allow(b) {
		t.Fatal("allowed before the re-opened cooldown elapsed")
	}
	c.Advance(2 * time.Second)
	if !allow(b) {
		t.Fatal("second probe not granted after re-opened cooldown")
	}
}

func TestBreakerProbeTimeoutReleasesSlot(t *testing.T) {
	c := newClock()
	b := New(Options{
		Window: 8, MinSamples: 4, FailureRate: 0.5,
		OpenFor: 5 * time.Second, ProbeTimeout: 10 * time.Second,
		Now: c.Now,
	})
	for i := 0; i < 4; i++ {
		b.Record(false)
	}
	c.Advance(6 * time.Second)
	if !allow(b) {
		t.Fatal("probe not granted")
	}
	// The probe's outcome never arrives (cancelled hedge loser). The
	// slot must re-arm after ProbeTimeout so the backend is not stuck
	// half-open forever.
	c.Advance(9 * time.Second)
	if allow(b) {
		t.Fatal("second probe granted before ProbeTimeout")
	}
	c.Advance(2 * time.Second)
	if !allow(b) {
		t.Fatal("probe slot never re-armed after ProbeTimeout")
	}
}

func TestBreakerStaleRecordIgnoredWhileOpen(t *testing.T) {
	c := newClock()
	b := newTestBreaker(c)
	for i := 0; i < 4; i++ {
		b.Record(false)
	}
	// A slow in-flight request from before the trip reports success:
	// it must not close the breaker from the open state.
	b.Record(true)
	if b.State() != Open {
		t.Fatalf("stale success closed an open breaker: %v", b.State())
	}
}

func TestBreakerWindowRolls(t *testing.T) {
	c := newClock()
	b := newTestBreaker(c)
	// Fill the 8-slot window with successes, then add failures: the
	// failure rate is computed over the rolling window, so 4 failures
	// after 8 successes is 4/8 = 0.5 → trip (the oldest successes
	// rolled out keep it at exactly the threshold).
	for i := 0; i < 8; i++ {
		b.Record(true)
	}
	for i := 0; i < 3; i++ {
		b.Record(false)
	}
	if b.State() != Closed {
		t.Fatalf("tripped at 3/8 failures: %v", b.State())
	}
	b.Record(false)
	if b.State() != Open {
		t.Fatalf("state %v at 4/8 windowed failures, want Open", b.State())
	}
}

func TestBreakerDefaults(t *testing.T) {
	b := New(Options{})
	if !allow(b) {
		t.Fatal("default breaker starts refused")
	}
	if b.opts.Window != DefaultWindow || b.opts.MinSamples != DefaultMinSamples ||
		b.opts.OpenFor != DefaultOpenFor || b.opts.ProbeTimeout != DefaultProbeTimeout {
		t.Fatalf("defaults not applied: %+v", b.opts)
	}
}

func TestBreakerConcurrentUse(t *testing.T) {
	c := newClock()
	b := newTestBreaker(c)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if allow(b) {
					b.Record(i%3 != 0)
				}
				if i%50 == 0 {
					c.Advance(time.Second)
				}
			}
		}(g)
	}
	wg.Wait()
	// No assertion beyond "no race, no panic, stats are coherent".
	st := b.Stats()
	if st.WindowSize > 8 {
		t.Fatalf("window overflow: %+v", st)
	}
}

// allow is AllowDetail without the probe flag.
func allow(b *Breaker) bool {
	ok, _ := b.AllowDetail()
	return ok
}
