package shard

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"reticle/internal/cache"
	"reticle/internal/faults"
	"reticle/internal/pipeline"
	"reticle/internal/server"
)

// Fault points in the routing tier, for the chaos suite and operational
// drills. An armed shard/proxy fault behaves exactly like a dead
// backend: the attempt fails and the request re-hashes onto the next
// peer, so RETICLE_FAULTS='shard/proxy=transient:1' is a one-request
// backend-kill drill.
var (
	// FaultPick fires before the ring is consulted for a key.
	FaultPick = faults.Register("shard/pick-backend", "ring lookup: fail routing before any backend is tried")
	// FaultProxy fires before each proxy attempt, counting as a transport
	// failure toward that backend (re-hash, not request failure).
	FaultProxy = faults.Register("shard/proxy", "per-attempt proxy transport failure: degrade to re-hash")
	// FaultHedge fires at the top of a hedged (speculative) attempt: an
	// armed fault fails the hedge while the primary keeps racing, so
	// hedging can only ever degrade to not-hedging.
	FaultHedge = faults.Register("shard/hedge", "hedged attempt transport failure: degrade to the primary")
	// FaultBreakerProbe fires before a half-open breaker probe is
	// dispatched: an armed fault fails the probe and re-opens the breaker,
	// driving the trip/recover cycle from the chaos harness.
	FaultBreakerProbe = faults.Register("shard/breaker-probe", "half-open probe failure: breaker re-opens")
)

// Options configures a Router.
type Options struct {
	// Backends are the reticle-serve base URLs ("http://host:port"); at
	// least one is required. Order is identity: the ring hashes backend
	// positions, so keeping the list order stable across restarts keeps
	// every backend's key slice (and its warm LRU) stable too.
	Backends []string
	// MaxBodyBytes bounds request bodies; <=0 means 1 MiB.
	MaxBodyBytes int64
	// DefaultFamily names the config assumed when a request omits
	// "family"; empty with exactly one configured family means that one.
	DefaultFamily string
	// ProxyTimeout bounds each proxy attempt (not the whole request, so
	// a re-hash after a slow failure still gets a full budget); 0 means
	// no per-attempt bound beyond the request's own context.
	ProxyTimeout time.Duration
	// HealthInterval is the active /healthz probe period; 0 disables
	// active probing (passive failure detection still marks backends
	// down on proxy errors). ListenAndServe launches the prober; tests
	// that drive the Router as a bare http.Handler can call
	// StartHealthLoop.
	HealthInterval time.Duration
	// Jobs bounds concurrent per-kernel proxy fan-out for /batch; <=0
	// means 8.
	Jobs int
	// DiskDir, when non-empty, enables the router-local persistent
	// artifact cache: checked before any backend is contacted, written
	// through on every non-degraded proxied compile. Requests it serves
	// never reach a backend, so its hits are disjoint from backend cache
	// hits by construction (see /stats aggregation).
	DiskDir string
	// DiskMaxBytes bounds the router disk cache; <=0 means
	// cache.DefaultDiskBytes.
	DiskMaxBytes int64
	// Client overrides the proxy HTTP client (tests inject httptest
	// clients); nil means a default client with pooled transport.
	Client *http.Client
	// HedgeAfter enables hedged requests for idempotent /compile proxies:
	// when the primary backend has not answered within this delay, one
	// speculative attempt is fired at the next ring backend and the first
	// success wins (the loser is cancelled). 0 disables hedging. A global
	// budget caps hedges at ~10% of proxy calls so hedging cannot amplify
	// an overload (DESIGN.md §14).
	HedgeAfter time.Duration
}

// backend is one reticle-serve peer with liveness state. alive flips
// false on transport failure (passive) or failed probe (active) and
// true again on any success, so a restarted backend rejoins without
// router intervention. The breaker watches the proxy outcome stream and
// opens on sustained failure, keeping traffic off a backend that is up
// but sick (slow, erroring) — a condition the boolean liveness mark
// cannot express.
type backend struct {
	url   string
	alive atomic.Bool
	br    *breaker
}

// Router is the shard tier front end. It implements http.Handler with
// the same endpoint surface as a single reticle-serve (POST /compile,
// POST /batch incl. NDJSON streaming, GET /healthz, GET /stats), so
// clients cannot tell a router from a backend — except that it scales.
type Router struct {
	server.FamilySet // the same configs the backends run, so cache keys agree across the tier
	server.DiskTier  // the router-local persistent cache; zero when disabled

	opts     Options
	ring     *Ring
	backends []*backend
	client   *http.Client
	mux      *http.ServeMux
	hs       *http.Server
	start    time.Time

	stopOnce   sync.Once
	stopHealth chan struct{}
	healthDone chan struct{}

	totals server.Totals // the fold of finished requests' accounts: /stats
	// The hedge budget's two counters, which hedgeBudgetOK reads while
	// walks are still running, so they cannot wait for a fold.
	proxyCalls atomic.Int64 // proxyKernel invocations (the hedge-budget denominator)
	hedges     atomic.Int64 // speculative attempts fired
}

// New builds a Router over one pipeline config per family (the same
// configs its backends run, so cache keys agree across the tier).
func New(opts Options, configs map[string]*pipeline.Config) (*Router, error) {
	if len(opts.Backends) == 0 {
		return nil, fmt.Errorf("shard: no backends")
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = 1 << 20
	}
	if opts.Jobs <= 0 {
		opts.Jobs = 8
	}
	rt := &Router{
		opts:       opts,
		ring:       NewRing(len(opts.Backends), DefaultReplicas),
		client:     opts.Client,
		mux:        http.NewServeMux(),
		start:      time.Now(),
		stopHealth: make(chan struct{}),
		healthDone: make(chan struct{}),
	}
	var err error
	if rt.FamilySet, err = server.NewFamilySet(configs, opts.DefaultFamily); err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	if rt.DiskTier, err = server.OpenDiskTier(opts.DiskDir, opts.DiskMaxBytes); err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	if rt.client == nil {
		rt.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}
	}
	for _, u := range opts.Backends {
		b := &backend{url: u, br: newBreaker()}
		b.alive.Store(true)
		rt.backends = append(rt.backends, b)
	}
	rt.mux.HandleFunc("POST /compile", server.Recovered(rt.handleCompile))
	rt.mux.HandleFunc("POST /batch", server.Recovered(rt.handleBatch))
	rt.mux.HandleFunc("POST /explore", server.Recovered(rt.handleExplore))
	rt.mux.HandleFunc("POST /scrub", server.Recovered(rt.HandleScrub))
	rt.mux.HandleFunc("GET /healthz", server.Recovered(rt.handleHealthz))
	rt.mux.HandleFunc("GET /stats", server.Recovered(rt.handleStats))
	return rt, nil
}

// ServeHTTP dispatches to the router mux inside the request's account:
// opened here, folded into /stats and logged when the handler returns.
// The router is an edge, so a client id may not carry the suffixes it
// appends itself.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t := server.Track(w, r, false)
	rt.mux.ServeHTTP(t, r)
	t.Finish(&rt.totals, "route")
}

// ListenAndServe serves on addr until Shutdown, launching the health
// prober first; it returns http.ErrServerClosed after a graceful
// shutdown, like http.Server.ListenAndServe.
func (rt *Router) ListenAndServe(addr string) error {
	rt.StartHealthLoop()
	rt.hs = &http.Server{Addr: addr, Handler: rt}
	return rt.hs.ListenAndServe()
}

// StartHealthLoop launches the active prober (no-op when
// Options.HealthInterval is 0 or the router is already stopped). Each
// backend gets its own probe goroutine with a phase offset spreading
// the schedule across the interval — on a shared tick, every backend is
// probed at the same instant, so a recovering ring takes its whole
// probe load as one synchronized burst (a thundering herd against
// exactly the peers least able to absorb it).
func (rt *Router) StartHealthLoop() {
	if rt.opts.HealthInterval <= 0 {
		close(rt.healthDone)
		return
	}
	var wg sync.WaitGroup
	for i, b := range rt.backends {
		wg.Add(1)
		go func(i int, b *backend) {
			defer wg.Done()
			select {
			case <-rt.stopHealth:
				return
			case <-time.After(probeOffset(rt.opts.HealthInterval, i, len(rt.backends))):
			}
			t := time.NewTicker(rt.opts.HealthInterval)
			defer t.Stop()
			for {
				select {
				case <-rt.stopHealth:
					return
				case <-t.C:
					rt.probeOne(b)
				}
			}
		}(i, b)
	}
	go func() {
		wg.Wait()
		close(rt.healthDone)
	}()
}

// probeOffset is backend i's probe phase within the interval: the n
// backends are spread evenly, so probe k fires at interval*(1 + k/n)
// after start instead of all n landing on the same tick. Pure, so the
// anti-herd spacing is testable without a clock.
func probeOffset(interval time.Duration, i, n int) time.Duration {
	if n <= 0 {
		return 0
	}
	return interval * time.Duration(i) / time.Duration(n)
}

// probeOne marks one backend alive/dead from one /healthz probe.
func (rt *Router) probeOne(b *backend) {
	timeout := rt.opts.HealthInterval
	if timeout <= 0 || timeout > 2*time.Second {
		timeout = 2 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", b.url+"/healthz", nil)
	if err != nil {
		b.alive.Store(false)
		return
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		b.alive.Store(false)
		return
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	resp.Body.Close()
	b.alive.Store(resp.StatusCode == http.StatusOK)
}

// Shutdown stops the health prober and gracefully drains the listener,
// if one was started.
func (rt *Router) Shutdown(ctx context.Context) error {
	rt.stopOnce.Do(func() { close(rt.stopHealth) })
	if rt.hs == nil {
		return nil
	}
	return rt.hs.Shutdown(ctx)
}

// proxyOutcome is one routed kernel's terminal proxy result: an HTTP
// answer from some live backend, or a typed total-outage error. A 429
// answer carries the backend's Retry-After so the handlers can relay
// the shed verbatim.
type proxyOutcome struct {
	status     int
	body       []byte
	retryAfter string
	err        error
}

// maxProxyResponse bounds how much of a backend response the router
// buffers (artifacts are large; unbounded trust is still wrong).
const maxProxyResponse = 64 << 20

// diskGet and diskPut are the router's disk-only tier: there is no
// memory level to promote into, so it reads and writes cache.Disk
// directly. Failures are counted inside Disk and degrade to a miss or a
// dropped persist. A degraded artifact is never persisted, matching the
// compile server's cache policy.
func (rt *Router) diskGet(ctx context.Context, key cache.Key) ([]byte, bool) {
	if rt.Disk() == nil {
		return nil, false
	}
	return rt.Disk().Get(ctx, key)
}

func (rt *Router) diskPut(ctx context.Context, key cache.Key, artifact []byte) {
	if rt.Disk() == nil || server.ArtifactDegraded(artifact) {
		return
	}
	_ = rt.Disk().Put(ctx, key, artifact)
}

func (rt *Router) handleCompile(w http.ResponseWriter, r *http.Request) {
	acct := server.AccountOf(w)
	q, ok := rt.Door(w, r, rt.opts.MaxBodyBytes)
	if !ok {
		return
	}
	// Two keys per kernel: the canonical artifact key addresses the
	// router-local disk cache (artifact identity — exact IR + config),
	// while the structural hint key steers routing so edited variants of
	// one kernel share a backend (see proxyKernel).
	k := q.Kernels[0]
	key := cache.KeyFor(q.Config, k.Func)
	acct.Key = string(key)

	// Router-local second level: a persisted artifact is served without
	// crossing the network, and without showing up in any backend's
	// counters — /stats aggregation depends on that disjointness.
	if raw, ok := rt.diskGet(r.Context(), key); ok {
		acct.Tier = "disk"
		server.WriteCompileFrame(w, server.CompileResponseWire{
			Name: k.Name, Family: q.Family, Cache: "hit", Key: string(key), Artifact: raw,
		})
		return
	}
	out, ok := rt.relay(w, r, q)
	if !ok {
		return
	}
	// The answer is relayed as the bytes the backend sent; only a router
	// with a disk tier of its own looks inside a 200, and then only to
	// slice the artifact out of it.
	if out.status == http.StatusOK && rt.Disk() != nil {
		if _, artifact, ok := server.ParseCompileFrame(out.body); ok {
			rt.diskPut(r.Context(), key, artifact)
		}
	}
	server.WriteFrame(w, out.status, out.body)
}

// relay routes an admitted /compile or /explore, for a handler that passes
// the backend's answer through, by the kernel's structural hint key. The
// body sent on is the client's own (Request.Forward), with its Accept
// header. The request's deadline header and timeout_ms bound one context
// here, so the whole downstream chain — proxy attempts, retries, hedges,
// and the backend pipeline via the stamped deadline header — shares one
// budget instead of each tier inventing its own; a relayed shed keeps the
// backend's Retry-After. A routing failure is answered typed and reported
// as false. The walk fills the request's account.
func (rt *Router) relay(w http.ResponseWriter, r *http.Request, q *server.Request) (proxyOutcome, bool) {
	ctx, cancel := q.Within(r.Context(), q.Timeout)
	defer cancel()
	acct := server.AccountOf(w)
	acct.Deadline, _ = ctx.Deadline()
	routeKey := cache.Key(pipeline.HintKeyFor(q.Config, q.Kernels[0].Func))
	out := rt.proxyKernel(ctx, acct, acct.ID, routeKey, forward{r.URL.Path, r.Header.Get("Accept"), q.Forward()})
	if out.err != nil {
		server.WriteTypedError(w, out.err)
		return out, false
	}
	if out.retryAfter != "" {
		w.Header().Set("Retry-After", out.retryAfter)
	}
	return out, true
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := HealthResponse{
		Status:   "ok",
		UptimeMS: time.Since(rt.start).Milliseconds(),
		Families: rt.Families(),
	}
	for _, b := range rt.backends {
		resp.Backends = append(resp.Backends, BackendHealth{
			URL: b.url, Alive: b.alive.Load(), Breaker: b.br.stats().State.String(),
		})
	}
	server.WriteJSON(w, http.StatusOK, resp)
}
