package shard_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"reticle"
	"reticle/internal/faults"
	"reticle/internal/rerr"
	"reticle/internal/server"
	"reticle/internal/shard"
)

// stub is a scriptable fake backend: its handler can be swapped live,
// so one test drives a backend through healthy / shedding / erroring /
// wedged phases without restarting anything.
type stub struct {
	srv     *httptest.Server
	hits    atomic.Int64
	handler atomic.Pointer[http.HandlerFunc]
}

func newStub(t testing.TB, h http.HandlerFunc) *stub {
	s := &stub{}
	s.handler.Store(&h)
	s.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// The router's health probes and /stats aggregation poll backends
		// with GETs; answer those immediately and uncounted so a wedged
		// stub never stalls a stats call and hit counts only see proxied
		// compile traffic. A stub is always healthy to a probe: whatever
		// its compiles do, it is up.
		if r.Method == http.MethodGet {
			if r.URL.Path == "/healthz" {
				w.WriteHeader(http.StatusOK)
				return
			}
			writeStubError(w, http.StatusNotFound, "stub")
			return
		}
		s.hits.Add(1)
		(*s.handler.Load())(w, r)
	}))
	t.Cleanup(s.srv.Close)
	return s
}

func (s *stub) set(h http.HandlerFunc) { s.handler.Store(&h) }

// cannedOK answers /compile with a valid wire body whose key carries a
// marker, so tests can tell which backend's answer won a race.
func cannedOK(marker string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"name":"k","family":"ultrascale","cache":"miss","key":%q,"artifact":{"schema":"stub"}}`, marker)
	}
}

// refuse503 answers like a draining backend: a refusal the router must
// re-hash and score against the breaker, never relay.
func refuse503(w http.ResponseWriter, r *http.Request) {
	io.Copy(io.Discard, r.Body)
	writeStubError(w, http.StatusServiceUnavailable, "draining")
}

// wedged holds the request open until the router gives up on it (or 30
// seconds, far beyond any test bound) — the pathological slow backend
// of the tail-tolerance acceptance scenario.
func wedged(w http.ResponseWriter, r *http.Request) {
	// Drain the body first: with unread body bytes the server never
	// starts its client-disconnect watcher, so a cancelled attempt would
	// hold the connection for the full stall.
	io.Copy(io.Discard, r.Body)
	select {
	case <-r.Context().Done():
	case <-time.After(30 * time.Second):
		writeStubError(w, http.StatusServiceUnavailable, "woke up")
	}
}

func writeStubError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	fmt.Fprintf(w, `{"error":%q,"error_code":"stub"}`, msg)
}

// fakeClock is an injectable breaker clock, so open→half-open cooldowns
// elapse by decree instead of by sleeping.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1700000000, 0)} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// primaryOf finds which of two stubs is the ring's first choice for
// maccSrc by compiling once while both are healthy and seeing who got
// the request. Returns (primary, secondary).
func primaryOf(t *testing.T, rt *reticle.ShardRouter, a, b *stub) (*stub, *stub) {
	t.Helper()
	a.set(cannedOK("probe-a"))
	b.set(cannedOK("probe-b"))
	if code := post(t, rt, "/compile", server.CompileRequest{IR: maccSrc}, nil); code != http.StatusOK {
		t.Fatalf("probe compile: status %d", code)
	}
	if a.hits.Load() > 0 {
		return a, b
	}
	return b, a
}

// routerStats fetches the router's own counter block from /stats.
func routerStats(t testing.TB, rt http.Handler) (out struct {
	Router struct {
		Proxied       int64 `json:"proxied"`
		Rehashes      int64 `json:"rehashes"`
		Outages       int64 `json:"outages"`
		ProxyCalls    int64 `json:"proxy_calls"`
		Hedges        int64 `json:"hedges"`
		HedgeWins     int64 `json:"hedge_wins"`
		ShedForwarded int64 `json:"shed_forwarded"`
	} `json:"router"`
	Backends []struct {
		URL     string `json:"url"`
		Alive   bool   `json:"alive"`
		Breaker *struct {
			State      string `json:"state"`
			Trips      uint64 `json:"trips"`
			Recoveries uint64 `json:"recoveries"`
		} `json:"breaker"`
	} `json:"backends"`
}) {
	t.Helper()
	if code := get(t, rt, "/stats", &out); code != http.StatusOK {
		t.Fatalf("/stats: %d", code)
	}
	return out
}

// breakerStateOf returns the /healthz breaker state for the backend at
// the given base URL.
func breakerStateOf(t testing.TB, rt http.Handler, url string) string {
	t.Helper()
	state, _ := healthOf(t, rt, url)
	return state
}

// healthOf reads one backend's breaker state and liveness mark off the
// router's /healthz.
func healthOf(t testing.TB, rt http.Handler, url string) (breaker string, alive bool) {
	t.Helper()
	var hr struct {
		Backends []struct {
			URL     string `json:"url"`
			Alive   bool   `json:"alive"`
			Breaker string `json:"breaker"`
		} `json:"backends"`
	}
	if code := get(t, rt, "/healthz", &hr); code != http.StatusOK {
		t.Fatalf("/healthz: %d", code)
	}
	for _, b := range hr.Backends {
		if b.URL == url {
			return b.Breaker, b.Alive
		}
	}
	t.Fatalf("backend %s not in /healthz", url)
	return "", false
}

// TestHedgeWinsOverSlowPrimary: with hedging configured and the primary
// wedged, the speculative attempt on the next ring backend answers and
// its response — not a timeout, not a 5xx — reaches the client fast.
func TestHedgeWinsOverSlowPrimary(t *testing.T) {
	a := newStub(t, cannedOK("a"))
	b := newStub(t, cannedOK("b"))
	rt := newRouter(t, reticle.ShardOptions{
		Backends:     []string{a.srv.URL, b.srv.URL},
		HedgeAfter:   20 * time.Millisecond,
		ProxyTimeout: 5 * time.Second,
	})
	primary, secondary := primaryOf(t, rt, a, b)
	primary.set(wedged)
	secondary.set(cannedOK("hedge-winner"))

	start := time.Now()
	var resp rawCompileWire
	if code := post(t, rt, "/compile", server.CompileRequest{IR: maccSrc}, &resp); code != http.StatusOK {
		t.Fatalf("hedged compile: status %d", code)
	}
	if resp.Key != "hedge-winner" {
		t.Fatalf("winner key %q, want the hedge target's answer", resp.Key)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("hedged compile took %s — the wedged primary was waited out", el)
	}
	st := routerStats(t, rt)
	if st.Router.Hedges < 1 || st.Router.HedgeWins < 1 {
		t.Fatalf("hedge counters %+v, want at least one hedge and one win", st.Router)
	}
}

// rawCompileWire mirrors the /compile response with raw artifact bytes.
type rawCompileWire struct {
	Name     string          `json:"name"`
	Cache    string          `json:"cache"`
	Key      string          `json:"key"`
	Artifact json.RawMessage `json:"artifact"`
}

// TestHedgeBudget: hedging is capped near 10% of proxy calls, so a ring
// where every primary is slow cannot be made to double its own load.
func TestHedgeBudget(t *testing.T) {
	slowOK := func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
			return
		case <-time.After(40 * time.Millisecond):
		}
		cannedOK("slow")(w, r)
	}
	a := newStub(t, slowOK)
	b := newStub(t, slowOK)
	rt := newRouter(t, reticle.ShardOptions{
		Backends:     []string{a.srv.URL, b.srv.URL},
		HedgeAfter:   5 * time.Millisecond,
		ProxyTimeout: 5 * time.Second,
	})
	const n = 30
	for i := 0; i < n; i++ {
		if code := post(t, rt, "/compile", server.CompileRequest{IR: chainSrc(fmt.Sprintf("hb%d", i), i+1)}, nil); code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, code)
		}
	}
	st := routerStats(t, rt)
	if st.Router.Hedges < 1 {
		t.Fatal("no hedge fired at all against uniformly slow primaries")
	}
	if max := st.Router.ProxyCalls/10 + 1; st.Router.Hedges > max {
		t.Fatalf("%d hedges over %d proxy calls exceeds the budget (max %d)",
			st.Router.Hedges, st.Router.ProxyCalls, max)
	}
}

// TestBreakerFlap is the breaker-flap chaos scenario: one backend
// alternates healthy → erroring → healthy while a peer stays steady.
// The breaker must trip while it errors (zero client-visible failures —
// the walk re-hashes), hold traffic off the sick backend, then recover
// it through a half-open probe once it heals — visible as trip and
// recovery counters and /healthz state transitions.
func TestBreakerFlap(t *testing.T) {
	clock := newFakeClock()
	a := newStub(t, nil)
	b := newStub(t, nil)
	rt := newRouter(t, reticle.ShardOptions{Backends: []string{a.srv.URL, b.srv.URL}})
	shard.SetBreakerClock(rt, clock.now)
	primary, secondary := primaryOf(t, rt, a, b)
	secondary.set(cannedOK("steady"))

	// Phase 1: the primary starts refusing. Clients keep getting 200s
	// off the steady peer while the primary's breaker accumulates
	// failures and trips.
	primary.set(refuse503)
	for i := 0; i < 4; i++ {
		var resp rawCompileWire
		if code := post(t, rt, "/compile", server.CompileRequest{IR: maccSrc}, &resp); code != http.StatusOK {
			t.Fatalf("flap round %d: status %d", i, code)
		}
		if resp.Key != "steady" {
			t.Fatalf("flap round %d served by %q, want the steady peer", i, resp.Key)
		}
	}
	if state := breakerStateOf(t, rt, primary.srv.URL); state != "open" {
		t.Fatalf("primary breaker %q after sustained refusals, want open", state)
	}

	// Phase 2: with the breaker open, the primary is not even consulted.
	quiet := primary.hits.Load()
	for i := 0; i < 3; i++ {
		if code := post(t, rt, "/compile", server.CompileRequest{IR: maccSrc}, nil); code != http.StatusOK {
			t.Fatalf("open-breaker round %d: status %d", i, code)
		}
	}
	if got := primary.hits.Load(); got != quiet {
		t.Fatalf("open breaker leaked %d requests to the sick backend", got-quiet)
	}

	// Phase 3: the backend heals and the cooldown elapses; the next
	// request is the half-open probe, it succeeds, and the breaker
	// closes — a recovery, not a config change.
	primary.set(cannedOK("healed"))
	clock.advance(shard.BreakerOpenFor)
	var resp rawCompileWire
	if code := post(t, rt, "/compile", server.CompileRequest{IR: maccSrc}, &resp); code != http.StatusOK {
		t.Fatalf("probe round: status %d", code)
	}
	if resp.Key != "healed" {
		t.Fatalf("probe round served by %q, want the healed primary", resp.Key)
	}
	if state := breakerStateOf(t, rt, primary.srv.URL); state != "closed" {
		t.Fatalf("primary breaker %q after a successful probe, want closed", state)
	}
	st := routerStats(t, rt)
	var trips, recoveries uint64
	for _, bs := range st.Backends {
		if bs.URL == primary.srv.URL && bs.Breaker != nil {
			trips, recoveries = bs.Breaker.Trips, bs.Breaker.Recoveries
		}
	}
	if trips < 1 || recoveries < 1 {
		t.Fatalf("breaker counters trips=%d recoveries=%d, want both >= 1", trips, recoveries)
	}
}

// TestBreakerProbeFaultReopens drives the shard/breaker-probe fault
// point: an armed fault fails the half-open probe, so the breaker
// re-opens — and the client still gets a 200 off the healthy peer.
func TestBreakerProbeFaultReopens(t *testing.T) {
	clock := newFakeClock()
	a := newStub(t, nil)
	b := newStub(t, nil)
	rt := newRouter(t, reticle.ShardOptions{Backends: []string{a.srv.URL, b.srv.URL}})
	shard.SetBreakerClock(rt, clock.now)
	primary, secondary := primaryOf(t, rt, a, b)
	secondary.set(cannedOK("steady"))
	primary.set(refuse503)
	for i := 0; i < 3; i++ {
		if code := post(t, rt, "/compile", server.CompileRequest{IR: maccSrc}, nil); code != http.StatusOK {
			t.Fatalf("trip round %d: status %d", i, code)
		}
	}
	if state := breakerStateOf(t, rt, primary.srv.URL); state != "open" {
		t.Fatalf("primary breaker %q, want open", state)
	}

	primary.set(cannedOK("healed"))
	clock.advance(shard.BreakerOpenFor)
	plan := faults.NewPlan(map[faults.Point]faults.Injection{
		"shard/breaker-probe": {Class: rerr.Transient, Times: 1},
	})
	w := chaosPost(t, rt, "/compile", server.CompileRequest{IR: maccSrc}, plan)
	if w.Code != http.StatusOK {
		t.Fatalf("probe-fault request: status %d: %s", w.Code, w.Body.String())
	}
	if state := breakerStateOf(t, rt, primary.srv.URL); state != "open" {
		t.Fatalf("primary breaker %q after a failed probe, want open again", state)
	}
}

// TestHedgeFaultDegradesToPrimary drives the shard/hedge fault point:
// an armed fault kills the speculative attempt, and the request falls
// back to the primary's (slower) answer — hedging can only ever degrade
// to not-hedging, never fail a request that would otherwise succeed.
func TestHedgeFaultDegradesToPrimary(t *testing.T) {
	slowOK := func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
			return
		case <-time.After(60 * time.Millisecond):
		}
		cannedOK("slow-primary")(w, r)
	}
	a := newStub(t, cannedOK("x"))
	b := newStub(t, cannedOK("x"))
	rt := newRouter(t, reticle.ShardOptions{
		Backends:     []string{a.srv.URL, b.srv.URL},
		HedgeAfter:   10 * time.Millisecond,
		ProxyTimeout: 5 * time.Second,
	})
	primary, secondary := primaryOf(t, rt, a, b)
	primary.set(slowOK)
	secondary.set(cannedOK("hedge"))

	plan := faults.NewPlan(map[faults.Point]faults.Injection{
		"shard/hedge": {Class: rerr.Transient, Times: 1},
	})
	w := chaosPost(t, rt, "/compile", server.CompileRequest{IR: maccSrc}, plan)
	if w.Code != http.StatusOK {
		t.Fatalf("hedge-fault request: status %d: %s", w.Code, w.Body.String())
	}
	var resp rawCompileWire
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Key != "slow-primary" {
		t.Fatalf("winner %q, want the primary after the hedge died", resp.Key)
	}
	st := routerStats(t, rt)
	if st.Router.Hedges < 1 || st.Router.HedgeWins != 0 {
		t.Fatalf("hedge counters %+v, want a fired hedge and zero wins", st.Router)
	}
}

// TestShedForwarded: a backend 429 is the admission controller's
// authoritative answer — the router relays it with its Retry-After
// instead of re-hashing the shed onto the next (equally loaded) peer,
// and counts it as shed_forwarded.
func TestShedForwarded(t *testing.T) {
	shed := func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Retry-After", "7")
		writeStubError(w, http.StatusTooManyRequests, "at capacity")
	}
	for path, body := range relayed(0) {
		a := newStub(t, shed)
		b := newStub(t, shed)
		rt := newRouter(t, reticle.ShardOptions{Backends: []string{a.srv.URL, b.srv.URL}})

		req := httptest.NewRequest("POST", path, bytes.NewReader(mustJSON(t, body)))
		w := httptest.NewRecorder()
		rt.ServeHTTP(w, req)
		if w.Code != http.StatusTooManyRequests {
			t.Fatalf("%s shed: status %d, want 429: %s", path, w.Code, w.Body.String())
		}
		if ra := w.Header().Get("Retry-After"); ra != "7" {
			t.Fatalf("%s shed Retry-After %q, want the backend's %q", path, ra, "7")
		}
		st := routerStats(t, rt)
		if st.Router.ShedForwarded != 1 {
			t.Fatalf("%s: shed_forwarded %d, want 1", path, st.Router.ShedForwarded)
		}
		if st.Router.Rehashes != 0 {
			t.Fatalf("%s: a shed was re-hashed %d times — load amplification on an overloaded ring", path, st.Router.Rehashes)
		}
		if a.hits.Load()+b.hits.Load() != 1 {
			t.Fatalf("%s: shed touched %d backends, want exactly 1", path, a.hits.Load()+b.hits.Load())
		}
		// The shedding backend is healthy: its breaker stays closed.
		for _, s := range []*stub{a, b} {
			if s.hits.Load() > 0 {
				if state := breakerStateOf(t, rt, s.srv.URL); state != "closed" {
					t.Fatalf("%s: breaker %q after a shed, want closed — 429 is not a failure", path, state)
				}
			}
		}
	}
}

// relayed is one request per endpoint the router answers with a backend's
// own response (handleCompile, handleExplore), each carrying timeout_ms:
// the two must treat the deadline budget and a relayed shed alike.
func relayed(timeoutMS int64) map[string]any {
	return map[string]any{
		"/compile": server.CompileRequest{IR: maccSrc, TimeoutMS: timeoutMS},
		"/explore": server.ExploreRequest{IR: maccSrc, TimeoutMS: timeoutMS},
	}
}

// TestDeadlineStamped: the client's timeout_ms becomes the absolute
// X-Reticle-Deadline header on the proxied request, so the backend
// inherits the remaining cross-tier budget.
func TestDeadlineStamped(t *testing.T) {
	for path, body := range relayed(3000) {
		seen := make(chan string, 1)
		capture := func(w http.ResponseWriter, r *http.Request) {
			select {
			case seen <- r.Header.Get(server.DeadlineHeader):
			default:
			}
			cannedOK("ok")(w, r)
		}
		a := newStub(t, capture)
		rt := newRouter(t, reticle.ShardOptions{Backends: []string{a.srv.URL}})

		before := time.Now()
		if code := post(t, rt, path, body, nil); code != http.StatusOK {
			t.Fatalf("%s: status %d", path, code)
		}
		var h string
		select {
		case h = <-seen:
		default:
			t.Fatalf("%s: backend never saw the request", path)
		}
		if h == "" {
			t.Fatalf("proxied %s request missing %s header", path, server.DeadlineHeader)
		}
		var ms int64
		if _, err := fmt.Sscanf(h, "%d", &ms); err != nil {
			t.Fatalf("%s: unparseable deadline header %q", path, h)
		}
		dl := time.UnixMilli(ms)
		if dl.Before(before) || dl.After(before.Add(3500*time.Millisecond)) {
			t.Fatalf("%s: stamped deadline %s is not ~3s from dispatch (%s)", path, dl, before)
		}
	}
}

// TestDeadlineExhaustedFailsFast: a budget too small to dispatch even
// one attempt fails typed as a 504 before any backend is touched — a
// budget problem is not an outage.
func TestDeadlineExhaustedFailsFast(t *testing.T) {
	for path, body := range relayed(1) {
		a := newStub(t, cannedOK("ok"))
		rt := newRouter(t, reticle.ShardOptions{Backends: []string{a.srv.URL}})

		var er server.ErrorResponse
		code := post(t, rt, path, body, &er)
		if code != http.StatusGatewayTimeout {
			t.Fatalf("%s exhausted budget: status %d, want 504", path, code)
		}
		if er.ErrorCode != "deadline_exhausted" {
			t.Fatalf("%s exhausted budget error %+v", path, er)
		}
		if a.hits.Load() != 0 {
			t.Fatalf("%s: an attempt was dispatched with no budget to cover it", path)
		}
		st := routerStats(t, rt)
		if st.Router.Outages != 0 {
			t.Fatalf("%s: budget exhaustion counted as %d outages", path, st.Router.Outages)
		}
	}
}

// deadline504 answers like a healthy backend whose X-Reticle-Deadline
// budget ran out: the server's typed fail-fast 504.
func deadline504(w http.ResponseWriter, r *http.Request) {
	io.Copy(io.Discard, r.Body)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusGatewayTimeout)
	json.NewEncoder(w).Encode(server.ErrorResponse{
		Error:     "cross-tier deadline budget exhausted before the request could start",
		Code:      http.StatusGatewayTimeout,
		ErrorCode: "deadline_exceeded",
		Class:     "transient",
	})
}

// TestDeadlinePropagatesToBackend: a backend's typed 504
// deadline_exceeded — the budget the router itself stamped running out —
// is the client's story, not a refusal. The router used to score it
// against the backend's breaker, re-hash, run out of peers and answer a
// 503 no_live_backends outage on a perfectly healthy ring. A stub that
// always answers the typed 504 makes that deterministic; the second half
// runs the same budget race end to end across real tiers.
func TestDeadlinePropagatesToBackend(t *testing.T) {
	const minSamples = shard.BreakerMinSamples
	a := newStub(t, deadline504)
	rt := newRouter(t, reticle.ShardOptions{Backends: []string{a.srv.URL}})
	shard.SetBreakerClock(rt, newFakeClock().now)
	for i := 0; i < 6; i++ {
		var er server.ErrorResponse
		code := post(t, rt, "/compile", server.CompileRequest{IR: maccSrc, TimeoutMS: 5000}, &er)
		if code != http.StatusGatewayTimeout || er.ErrorCode != "deadline_exhausted" {
			t.Fatalf("request %d: status %d %+v, want the typed 504 deadline_exhausted", i, code, er)
		}
	}
	st := routerStats(t, rt)
	if st.Router.Outages != 0 || st.Router.Rehashes != 0 {
		t.Fatalf("typed backend 504s counted as %d outages, %d rehashes; want none",
			st.Router.Outages, st.Router.Rehashes)
	}
	if br := st.Backends[0].Breaker; br.State != "closed" || br.Trips != 0 {
		t.Fatalf("breaker %+v after typed 504s, want closed and never tripped", br)
	}
	// The same answer to a request that carries no deadline of its own can
	// only mean the per-attempt proxy timeout ran out on the backend: still
	// a refusal, still scored. That the breaker trips after exactly
	// minSamples of them also shows the window above was left untouched,
	// not merely kept under the failure rate: six recorded successes would
	// make this 4 failures in 10.
	for i := 0; i < minSamples; i++ {
		if code := post(t, rt, "/compile", server.CompileRequest{IR: maccSrc}, nil); code != http.StatusServiceUnavailable {
			t.Fatalf("typed 504 without a request deadline: status %d, want the 503 outage of a refusing ring", code)
		}
	}
	if br := routerStats(t, rt).Backends[0].Breaker; br.Trips != 1 {
		t.Fatalf("breaker %+v after %d refusals, want exactly one trip", br, minSamples)
	}

	// Real tiers: a 3ms budget admits the dispatch (above the 2ms floor)
	// but is almost certainly gone by the time the backend derives its
	// compile context. Either tier may be the one that calls it, but the
	// client must see a typed 504, or the compile wins the race with a 200.
	_, urls := newBackends(t, 1)
	real := newRouter(t, reticle.ShardOptions{Backends: urls})
	var er server.ErrorResponse
	switch code := post(t, real, "/compile", server.CompileRequest{IR: maccSrc, TimeoutMS: 3}, &er); code {
	case http.StatusOK:
		// The compile beat a 3ms budget — legal, just unhelpful.
	case http.StatusGatewayTimeout:
		if er.ErrorCode != "deadline_exceeded" && er.ErrorCode != "deadline_exhausted" {
			t.Fatalf("504 with error %+v, want a typed deadline code", er)
		}
	default:
		t.Fatalf("tiny budget: status %d, want 200 or 504: %s", code, er.Error)
	}
	if n := routerStats(t, real).Router.Outages; n != 0 {
		t.Fatalf("tiny budget counted as %d outages on a healthy ring", n)
	}
}

// TestWedgedBackendTailLatency is the acceptance scenario: one backend
// wedges (would answer after 30s), and breaker + hedge together keep
// the tier's tail flat — zero 5xx, and p99 far under the wedge time,
// bounded by the hedge delay and breaker trip rather than the 30s stall.
// The wedged backend still answers its health probes, so the liveness
// mark a timeout clears comes back within one probe interval: only the
// breaker can keep traffic off it.
func TestWedgedBackendTailLatency(t *testing.T) {
	a := newStub(t, nil)
	b := newStub(t, nil)
	rt := newRouter(t, reticle.ShardOptions{
		Backends:       []string{a.srv.URL, b.srv.URL},
		HedgeAfter:     20 * time.Millisecond,
		ProxyTimeout:   250 * time.Millisecond,
		HealthInterval: 10 * time.Millisecond,
	})
	// A frozen clock: once tripped, the wedged backend stays benched for
	// the whole test.
	shard.SetBreakerClock(rt, newFakeClock().now)
	rt.Start()
	t.Cleanup(func() { rt.Shutdown(context.Background()) })
	victim, healthy := primaryOf(t, rt, a, b)
	victim.set(wedged)
	healthy.set(cannedOK("healthy"))

	const n = 40
	lat := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		// Until the victim's breaker opens, let the prober clear the
		// liveness mark the last timeout set, so every request the ring
		// sends the victim's way reaches it.
		for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
			if state, alive := healthOf(t, rt, victim.srv.URL); alive || state != "closed" {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("the prober never re-admitted the wedged backend")
			}
		}
		start := time.Now()
		code := post(t, rt, "/compile", server.CompileRequest{IR: chainSrc(fmt.Sprintf("wl%d", i), i%7+1)}, nil)
		lat = append(lat, time.Since(start))
		if code >= 500 {
			t.Fatalf("request %d: 5xx (%d) with a healthy peer available", i, code)
		}
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, code)
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p99 := lat[len(lat)*99/100]
	// The wedge is 30s; the worst tolerated path is one full proxy
	// timeout plus the re-hash (~250ms) with generous CI slack. Anything
	// near the wedge time means neither defense engaged.
	if p99 > 2*time.Second {
		t.Fatalf("p99 %s with a wedged backend — breaker/hedge did not cap the tail", p99)
	}
	st := routerStats(t, rt)
	if max := st.Router.ProxyCalls/10 + 1; st.Router.Hedges > max {
		t.Fatalf("%d hedges over %d proxy calls exceeds the budget (max %d)",
			st.Router.Hedges, st.Router.ProxyCalls, max)
	}
	if state := breakerStateOf(t, rt, victim.srv.URL); state == "closed" {
		t.Fatal("victim breaker still closed after the storm — timeouts were never scored")
	}
}

// TestRehashNeedsBudget: a walk whose deadline budget runs out after the
// first backend refuses sends one request and reports no rehash — the
// step the budget refused was never taken.
func TestRehashNeedsBudget(t *testing.T) {
	nearDeadline := func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if ms, err := strconv.ParseInt(r.Header.Get(server.DeadlineHeader), 10, 64); err == nil {
			time.Sleep(time.Until(time.UnixMilli(ms).Add(-time.Millisecond)))
		}
		writeStubError(w, http.StatusServiceUnavailable, "draining")
	}
	a, b := newStub(t, nearDeadline), newStub(t, nearDeadline)
	rt := newRouter(t, reticle.ShardOptions{Backends: []string{a.srv.URL, b.srv.URL}})
	w := httptest.NewRecorder()
	rt.ServeHTTP(w, httptest.NewRequest("POST", "/compile",
		bytes.NewReader(mustJSON(t, server.CompileRequest{IR: maccSrc, TimeoutMS: 150}))))
	if w.Code != http.StatusGatewayTimeout || !strings.Contains(w.Body.String(), `"deadline_exhausted"`) {
		t.Fatalf("status %d, want the typed 504 deadline_exhausted: %s", w.Code, w.Body)
	}
	if sent := a.hits.Load() + b.hits.Load(); sent != 1 {
		t.Fatalf("%d requests sent, want 1", sent)
	}
	if st := routerStats(t, rt); st.Router.Rehashes != 0 {
		t.Errorf("rehashes %d for a walk that sent one request", st.Router.Rehashes)
	}
}
