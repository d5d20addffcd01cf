package shard

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

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
	// DefaultFamily names the config assumed when a request omits
	// "family"; empty with exactly one configured family means that one.
	DefaultFamily string
	// ProxyTimeout bounds each proxy attempt (not the whole request, so
	// a re-hash after a slow failure still gets a full budget); 0 means
	// no per-attempt bound beyond the request's own context.
	ProxyTimeout time.Duration
	// HealthInterval is the active /healthz probe period; 0 disables
	// active probing (passive failure detection still marks backends
	// down on proxy errors). Serve launches the prober; tests that drive
	// the Router as a bare http.Handler can call StartHealthLoop.
	HealthInterval time.Duration
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
	hs       *http.Server // serves the mux on Serve's listener
	start    time.Time

	healthMu   sync.Mutex
	stopped    bool           // Shutdown has begun, under healthMu: no prober starts
	stopHealth chan struct{}  // closed by Shutdown: the probers return
	probers    sync.WaitGroup // the probe goroutines, waited out by Shutdown

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
	rt := &Router{
		opts:       opts,
		ring:       NewRing(len(opts.Backends), DefaultReplicas),
		client:     opts.Client,
		mux:        http.NewServeMux(),
		start:      time.Now(),
		stopHealth: make(chan struct{}),
	}
	rt.hs = &http.Server{Handler: rt}
	var err error
	if rt.FamilySet, err = server.NewFamilySet(configs, opts.DefaultFamily); err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	rt.RouteOnText()
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

// Serve launches the health prober and serves on l until Shutdown, and
// then returns http.ErrServerClosed; after Shutdown, at once.
func (rt *Router) Serve(l net.Listener) error {
	rt.StartHealthLoop()
	return rt.hs.Serve(l)
}

// StartHealthLoop launches the active prober (no-op when
// Options.HealthInterval is 0 or the router is shutting down). Each
// backend gets its own probe goroutine with a phase offset spreading
// the schedule across the interval — on a shared tick, every backend is
// probed at the same instant, so a recovering ring takes its whole
// probe load as one synchronized burst (a thundering herd against
// exactly the peers least able to absorb it).
func (rt *Router) StartHealthLoop() {
	rt.healthMu.Lock()
	defer rt.healthMu.Unlock()
	if rt.opts.HealthInterval <= 0 || rt.stopped {
		return
	}
	for i, b := range rt.backends {
		rt.probers.Add(1)
		go func(i int, b *backend) {
			defer rt.probers.Done()
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

// Shutdown stops the health prober and waits it out, gracefully drains
// the listener (in-flight requests run to completion, bounded by ctx),
// and then closes the disk tier. Safe to call when the router never
// served.
func (rt *Router) Shutdown(ctx context.Context) error {
	rt.healthMu.Lock()
	if !rt.stopped {
		rt.stopped = true
		close(rt.stopHealth)
	}
	rt.healthMu.Unlock()
	rt.probers.Wait()
	return errors.Join(rt.hs.Shutdown(ctx), rt.DiskTier.Close())
}

// proxyOutcome is one routed kernel's terminal proxy result: an HTTP
// answer from some live backend, or a typed total-outage error. A 429
// answer carries the backend's Retry-After so the handlers can relay
// the shed verbatim. body is read into buf, a buffer off relayBufs the
// handler releases once nothing it wrote or holds refers to body any more.
type proxyOutcome struct {
	status     int
	body       []byte
	buf        *bytes.Buffer
	retryAfter string
	err        error
}

// relayBufs is a small free list of the buffers backend answers are read
// into (see postAttempt). A sync.Pool is emptied by every GC, and the
// router collects often, so under load most answers were read into fresh
// buffers; this list keeps its buffers across collections. It holds 16,
// the answers two /batch requests at batchJobs hold at once.
// A kept buffer keeps its capacity and raises the GC's heap goal: on
// shard-mixed, 8 reused too few answers to matter, and 16 read as much
// reuse as 32 with less resident memory. A buffer grown past
// maxPooledRelay is left to the GC instead of kept.
var relayBufs = make(chan *bytes.Buffer, 16)

// maxPooledRelay is the largest relay buffer kept in relayBufs.
const maxPooledRelay = 4 << 20

// release returns the outcome's buffer, emptied, to the free list unless
// the list is full; body is not read after it. An outcome without a
// buffer releases nothing.
func (out proxyOutcome) release() {
	if out.buf != nil && out.buf.Cap() <= maxPooledRelay {
		out.buf.Reset()
		select {
		case relayBufs <- out.buf:
		default:
		}
	}
}

// maxProxyResponse bounds how much of a backend response the router
// buffers (artifacts are large; unbounded trust is still wrong).
const maxProxyResponse = 64 << 20

// diskGet and diskPut are the router's disk-only tier: there is no
// memory level to promote into, so they read and write cache.Disk
// directly, under a kernel's text key. A record is the backend's
// /compile answer less its family and cache mark: the canonical key, the
// artifact and the name the backend gave it. Failures are counted inside
// Disk and degrade to a miss or a dropped persist.
//
// diskGet answers kernel k from its record, named as a backend would name
// it: by k's client, else by the parsed name. A record persisted for a
// kernel its client named holds no parsed name, so it answers only a
// named kernel; an unnamed one misses, and its forward writes the name.
func (rt *Router) diskGet(ctx context.Context, k server.Kernel) (rec server.CompileResponseWire, ok bool) {
	if rt.Disk() == nil {
		return rec, false
	}
	raw, ok := rt.Disk().Get(ctx, k.Key)
	if ok {
		rec, _, ok = server.ParseCompileFrame(raw)
	}
	rec.Name = cmp.Or(k.Name, rec.Name)
	return rec, ok && rec.Name != ""
}

// diskPut persists a backend's answer for kernel k, forwarded with k's own
// name: the parsed name is the answer's only when k's client gave none. A
// degraded artifact is never persisted, matching the compile server's
// cache policy.
func (rt *Router) diskPut(ctx context.Context, k server.Kernel, ans server.CompileResponseWire, degraded bool) {
	if rt.Disk() == nil || degraded {
		return
	}
	rec := server.CompileResponseWire{Key: ans.Key, Artifact: ans.Artifact}
	if k.Name == "" {
		rec.Name = ans.Name
	}
	_ = rt.Disk().Put(ctx, k.Key, rec.AppendJSON(nil))
}

func (rt *Router) handleCompile(w http.ResponseWriter, r *http.Request) {
	acct := server.AccountOf(w)
	q, ok := rt.Door(w, r)
	if !ok {
		return
	}
	// One key per kernel, the text key the front door derived without a
	// parse: it routes the kernel and addresses the router-local disk.
	k := q.Kernels[0]
	acct.Key = string(k.Key)

	// Router-local second level: a persisted artifact is served without
	// crossing the network, and without showing up in any backend's
	// counters — /stats aggregation depends on that disjointness.
	if hit, ok := rt.diskGet(r.Context(), k); ok {
		acct.Tier = "disk"
		hit.Family, hit.Cache = q.Family, "hit"
		server.WriteCompileFrame(w, hit)
		return
	}
	out, ok := rt.relay(w, r, q)
	if !ok {
		return
	}
	defer out.release()
	// The answer is relayed as the bytes the backend sent, a refusal of IR
	// that does not parse among them; only a router with a disk tier of
	// its own looks inside a 200.
	if out.status == http.StatusOK && rt.Disk() != nil {
		if ans, degraded, ok := server.ParseCompileFrame(out.body); ok {
			rt.diskPut(r.Context(), k, ans, degraded)
		}
	}
	server.WriteFrame(w, out.status, out.body)
}

// relay routes an admitted /compile or /explore, for a handler that passes
// the backend's answer through, by the kernel's text key. The body sent
// on is the client's own (Request.Forward), with its Accept header. The
// request's deadline header and timeout_ms bound one context here, so the
// whole downstream chain — proxy attempts, retries, hedges, and the
// backend pipeline via the stamped deadline header — shares one budget
// instead of each tier inventing its own; a relayed shed keeps the
// backend's Retry-After. A routing failure is answered typed and reported
// as false. The walk fills the request's account. The handler releases
// the outcome once it has written it out.
func (rt *Router) relay(w http.ResponseWriter, r *http.Request, q *server.Request) (proxyOutcome, bool) {
	ctx, cancel := q.Within(r.Context(), q.Timeout)
	defer cancel()
	acct := server.AccountOf(w)
	acct.Deadline, _ = ctx.Deadline()
	out := rt.proxyKernel(ctx, acct, acct.ID, q.Kernels[0].Key, forward{r.URL.Path, r.Header.Get("Accept"), q.Forward()})
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
