package shard

import "time"

// The breaker's thresholds, for tests that drive a router across them.
const (
	BreakerMinSamples = breakerMinSamples
	BreakerOpenFor    = breakerOpenFor
)

// SetBreakerClock makes every backend breaker of rt read now instead of
// the wall clock, so a test steps cooldowns by decree instead of by
// sleeping. Call it before rt serves a request.
func SetBreakerClock(rt *Router, now func() time.Time) {
	for _, b := range rt.backends {
		b.br.now = now
	}
}
