package shard

import (
	"sync"
	"time"
)

// A per-backend circuit breaker: it watches the outcome stream of proxy
// attempts against one backend and, when the recent failure rate crosses
// a threshold, stops routing to that backend for a cooldown instead of
// letting every request pay the backend's timeout.
//
// State machine (DESIGN.md §14):
//
//	closed ──(failure rate ≥ threshold over the window)──▶ open
//	open ──(cooldown elapsed; next allow grants one probe)──▶ half-open
//	half-open ──(probe succeeds)──▶ closed
//	half-open ──(probe fails)──▶ open
//
// The breaker is advisory: allow says "don't bother", it never blocks.
// The proxy walk consults it next to the liveness marks, and falls back
// to ignoring it entirely when every backend is denied — availability
// beats breaker hygiene on total-trip.

// The breaker's thresholds.
const (
	// breakerWindow is the rolling outcome window size.
	breakerWindow = 16
	// breakerMinSamples is the minimum outcomes in the window before the
	// failure rate can trip the breaker — one unlucky first request must
	// not blacklist a backend.
	breakerMinSamples = 4
	// breakerFailureRate is the trip threshold over the window.
	breakerFailureRate = 0.5
	// breakerOpenFor is the cooldown before an open breaker half-opens.
	breakerOpenFor = 5 * time.Second
	// breakerProbeTimeout bounds how long a granted half-open probe can
	// stay unanswered before another probe is allowed; it is the
	// self-heal for probes whose outcome never comes back (a hedged
	// loser cancelled mid-flight, a crashed client).
	breakerProbeTimeout = 10 * time.Second
)

// breakerState is the breaker's position in the trip cycle.
type breakerState int

const (
	// breakerClosed: traffic flows, outcomes are scored against the window.
	breakerClosed breakerState = iota
	// breakerOpen: traffic is refused until the cooldown elapses.
	breakerOpen
	// breakerHalfOpen: one probe at a time is allowed through to test
	// recovery.
	breakerHalfOpen
)

// String renders the state as its stable wire name (/healthz and /stats).
func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// breakerStats is a point-in-time snapshot of one breaker.
type breakerStats struct {
	// State is the current position in the trip cycle.
	State breakerState
	// Trips counts closed→open transitions (including half-open probes
	// that failed and re-opened).
	Trips uint64
	// Recoveries counts half-open→closed transitions.
	Recoveries uint64
}

// breaker is one backend's circuit breaker. All methods are safe for
// concurrent use.
type breaker struct {
	now func() time.Time // time.Now; tests step a fake clock instead

	mu       sync.Mutex
	state    breakerState
	window   [breakerWindow]bool // true = failure; ring buffer
	next     int                 // next write position
	filled   int                 // occupancy until the ring wraps once
	openedAt time.Time
	probeAt  time.Time // last half-open probe grant
	trips    uint64
	recover  uint64
}

func newBreaker() *breaker { return &breaker{now: time.Now} }

// allow reports whether a request should be sent to this backend now, and
// whether the grant is a half-open probe. Closed always allows. Open
// refuses until the cooldown elapses, at which point the breaker
// half-opens and this call grants the probe. Half-open allows one probe
// at a time; a probe whose outcome never arrives (see
// breakerProbeTimeout) releases the slot. The proxy walk needs to know
// which grants carry the breaker's recovery decision: the
// shard/breaker-probe fault point fires on those.
func (b *breaker) allow() (ok, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	switch b.state {
	case breakerClosed:
		return true, false
	case breakerOpen:
		if now.Sub(b.openedAt) < breakerOpenFor {
			return false, false
		}
		b.state = breakerHalfOpen
		b.probeAt = now
		return true, true
	default: // breakerHalfOpen
		if now.Sub(b.probeAt) < breakerProbeTimeout {
			return false, false
		}
		b.probeAt = now
		return true, true
	}
}

// record scores one request outcome. In the closed state it feeds the
// rolling window and may trip the breaker; in half-open it closes the
// breaker on success and re-opens it on failure; in the open state it
// is ignored (a stale outcome from before the trip teaches nothing).
func (b *breaker) record(success bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerOpen:
		return
	case breakerHalfOpen:
		if success {
			b.state = breakerClosed
			b.recover++
			b.resetWindowLocked()
		} else {
			b.state = breakerOpen
			b.openedAt = b.now()
			b.trips++
		}
		return
	}
	// Closed: feed the window.
	b.window[b.next] = !success
	b.next = (b.next + 1) % breakerWindow
	if b.filled < breakerWindow {
		b.filled++
	}
	if b.filled < breakerMinSamples {
		return
	}
	failures := 0
	for _, failed := range b.window[:b.filled] {
		if failed {
			failures++
		}
	}
	if float64(failures) >= breakerFailureRate*float64(b.filled) {
		b.state = breakerOpen
		b.openedAt = b.now()
		b.trips++
		b.resetWindowLocked()
	}
}

// resetWindowLocked clears the rolling window (on trip and on
// recovery, so each closed era is scored on its own outcomes).
func (b *breaker) resetWindowLocked() {
	b.window = [breakerWindow]bool{}
	b.next, b.filled = 0, 0
}

// stats snapshots the breaker. Only allow transitions, so observers
// never mutate: an open breaker whose cooldown has elapsed still reads
// open until the next allow.
func (b *breaker) stats() breakerStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return breakerStats{State: b.state, Trips: b.trips, Recoveries: b.recover}
}
