// Package breaker is a per-backend circuit breaker for the distributed
// compile tier: it watches the outcome stream of proxy attempts against
// one backend and, when the recent failure rate crosses a threshold,
// stops routing to that backend for a cooldown instead of letting every
// request pay the backend's timeout.
//
// State machine (DESIGN.md §14):
//
//	closed ──(failure rate ≥ threshold over the window)──▶ open
//	open ──(cooldown elapsed; next AllowDetail grants one probe)──▶ half-open
//	half-open ──(probe succeeds)──▶ closed
//	half-open ──(probe fails)──▶ open
//
// The breaker is advisory: AllowDetail says "don't bother", it never blocks.
// The shard router's backend picker consults it next to the liveness
// marks, and falls back to ignoring it entirely when every backend is
// denied — availability beats breaker hygiene on total-trip.
//
// Time is injected (Options.Now), so the state machine is fully
// deterministic under test: no sleeps, no flaky cooldown races.
package breaker

import (
	"sync"
	"time"
)

// State is the breaker's position in the trip cycle.
type State int

const (
	// Closed: traffic flows, outcomes are scored against the window.
	Closed State = iota
	// Open: traffic is refused until the cooldown elapses.
	Open
	// HalfOpen: one probe at a time is allowed through to test recovery.
	HalfOpen
)

// String renders the state as its stable wire name (used by /healthz
// and /stats on the shard router).
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// Defaults applied by New when Options leaves a field zero.
const (
	// DefaultWindow is the rolling outcome window size.
	DefaultWindow = 16
	// DefaultMinSamples is the minimum outcomes in the window before the
	// failure rate can trip the breaker — one unlucky first request must
	// not blacklist a backend.
	DefaultMinSamples = 4
	// DefaultFailureRate is the trip threshold over the window.
	DefaultFailureRate = 0.5
	// DefaultOpenFor is the cooldown before an open breaker half-opens.
	DefaultOpenFor = 5 * time.Second
	// DefaultProbeTimeout bounds how long a granted half-open probe can
	// stay unanswered before another probe is allowed; it is the
	// self-heal for probes whose outcome never comes back (a hedged
	// loser cancelled mid-flight, a crashed client).
	DefaultProbeTimeout = 10 * time.Second
)

// Options configures a Breaker. The zero value means all defaults.
type Options struct {
	// Window is the rolling outcome window size; <=0 means DefaultWindow.
	Window int
	// MinSamples is the minimum window occupancy before the failure rate
	// is consulted; <=0 means DefaultMinSamples.
	MinSamples int
	// FailureRate in (0,1] trips the breaker when the windowed failure
	// fraction reaches it; <=0 means DefaultFailureRate.
	FailureRate float64
	// OpenFor is the open-state cooldown; <=0 means DefaultOpenFor.
	OpenFor time.Duration
	// ProbeTimeout re-arms the half-open probe slot when a granted probe
	// never reports an outcome; <=0 means DefaultProbeTimeout.
	ProbeTimeout time.Duration
	// Now overrides the clock, making the state machine deterministic
	// under test; nil means time.Now.
	Now func() time.Time
}

// Stats is a point-in-time snapshot of one breaker.
type Stats struct {
	// State is the current position in the trip cycle.
	State State
	// Trips counts closed→open transitions (including half-open probes
	// that failed and re-opened).
	Trips uint64
	// Recoveries counts half-open→closed transitions.
	Recoveries uint64
	// WindowFailures / WindowSize describe the current rolling window.
	WindowFailures, WindowSize int
}

// Breaker is one backend's circuit breaker. All methods are safe for
// concurrent use.
type Breaker struct {
	opts Options

	mu       sync.Mutex
	state    State
	window   []bool // true = failure; ring buffer
	next     int    // next write position
	filled   int    // occupancy until the ring wraps once
	openedAt time.Time
	probeAt  time.Time // last half-open probe grant
	trips    uint64
	recover  uint64
}

// New builds a breaker, applying defaults for zero options.
func New(opts Options) *Breaker {
	if opts.Window <= 0 {
		opts.Window = DefaultWindow
	}
	if opts.MinSamples <= 0 {
		opts.MinSamples = DefaultMinSamples
	}
	if opts.FailureRate <= 0 {
		opts.FailureRate = DefaultFailureRate
	}
	if opts.OpenFor <= 0 {
		opts.OpenFor = DefaultOpenFor
	}
	if opts.ProbeTimeout <= 0 {
		opts.ProbeTimeout = DefaultProbeTimeout
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	return &Breaker{
		opts:   opts,
		window: make([]bool, opts.Window),
	}
}

// AllowDetail reports whether a request should be sent to this backend
// now, and whether the grant is a half-open probe. Closed always allows.
// Open refuses until the cooldown elapses, at which point the breaker
// half-opens and this call grants the probe. Half-open allows one probe
// at a time; a probe whose outcome never arrives (see
// Options.ProbeTimeout) releases the slot. Callers that fault-inject or
// specially account probe traffic (the shard router's
// shard/breaker-probe point) need to know which grants carry the
// breaker's recovery decision.
func (b *Breaker) AllowDetail() (ok, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.opts.Now()
	switch b.state {
	case Closed:
		return true, false
	case Open:
		if now.Sub(b.openedAt) < b.opts.OpenFor {
			return false, false
		}
		b.state = HalfOpen
		b.probeAt = now
		return true, true
	default: // HalfOpen
		if now.Sub(b.probeAt) < b.opts.ProbeTimeout {
			return false, false
		}
		b.probeAt = now
		return true, true
	}
}

// Record scores one request outcome. In the closed state it feeds the
// rolling window and may trip the breaker; in half-open it closes the
// breaker on success and re-opens it on failure; in the open state it
// is ignored (a stale outcome from before the trip teaches nothing).
func (b *Breaker) Record(success bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Open:
		return
	case HalfOpen:
		if success {
			b.state = Closed
			b.recover++
			b.resetWindowLocked()
		} else {
			b.state = Open
			b.openedAt = b.opts.Now()
			b.trips++
		}
		return
	}
	// Closed: feed the window.
	b.window[b.next] = !success
	b.next = (b.next + 1) % len(b.window)
	if b.filled < len(b.window) {
		b.filled++
	}
	if b.filled < b.opts.MinSamples {
		return
	}
	failures := 0
	for i := 0; i < b.filled; i++ {
		if b.window[i] {
			failures++
		}
	}
	if float64(failures) >= b.opts.FailureRate*float64(b.filled) {
		b.state = Open
		b.openedAt = b.opts.Now()
		b.trips++
		b.resetWindowLocked()
	}
}

// resetWindowLocked clears the rolling window (on trip and on
// recovery, so each closed era is scored on its own outcomes).
func (b *Breaker) resetWindowLocked() {
	for i := range b.window {
		b.window[i] = false
	}
	b.next, b.filled = 0, 0
}

// State returns the current state, advancing open→half-open is NOT done
// here — only AllowDetail transitions, so observers never mutate.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Stats snapshots the breaker.
func (b *Breaker) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	failures := 0
	for i := 0; i < b.filled; i++ {
		if b.window[i] {
			failures++
		}
	}
	return Stats{
		State:          b.state,
		Trips:          b.trips,
		Recoveries:     b.recover,
		WindowFailures: failures,
		WindowSize:     b.filled,
	}
}
