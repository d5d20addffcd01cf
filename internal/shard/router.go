package shard

import (
	"cmp"
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
	// the Router as a bare http.Handler can call Start.
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

// Router is the distributed tier's resolver behind the same edge a
// single reticle-serve runs (server.Server: the same endpoints, front
// door and handlers), so clients cannot tell a router from a backend —
// except that it scales. What the edge admits it answers from its
// text-keyed disk, else across the ring of backends.
type Router struct {
	*server.Server // the edge: the same configs the backends run, and the router-local disk

	opts     Options
	ring     *Ring
	backends []*backend
	client   *http.Client

	healthMu   sync.Mutex
	stopped    bool           // Stop has run, under healthMu: no prober starts
	stopHealth chan struct{}  // closed by Stop: the probers return
	probers    sync.WaitGroup // the probe goroutines, waited out by Stop

	// The hedge budget's two counters, which hedgeBudgetOK reads while
	// walks are still running, so they cannot wait for a fold.
	proxyCalls atomic.Int64 // proxyKernel invocations (the hedge-budget denominator)
	hedges     atomic.Int64 // speculative attempts fired
}

// New builds a Router over one pipeline config per family (the same
// configs its backends run, so routing keys agree across the tier).
func New(opts Options, configs map[string]*pipeline.Config) (*Router, error) {
	if len(opts.Backends) == 0 {
		return nil, fmt.Errorf("shard: no backends")
	}
	rt := &Router{
		opts:       opts,
		ring:       NewRing(len(opts.Backends), DefaultReplicas),
		client:     opts.Client,
		stopHealth: make(chan struct{}),
	}
	var err error
	rt.Server, err = server.NewRouting(server.Options{
		DefaultFamily: opts.DefaultFamily, DiskDir: opts.DiskDir, DiskMaxBytes: opts.DiskMaxBytes,
	}, configs, rt)
	if err != nil {
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
	return rt, nil
}

// Start launches the active prober as the edge begins to serve (no-op
// when Options.HealthInterval is 0 or the router is shutting down). Each
// backend gets its own probe goroutine with a phase offset spreading
// the schedule across the interval — on a shared tick, every backend is
// probed at the same instant, so a recovering ring takes its whole
// probe load as one synchronized burst (a thundering herd against
// exactly the peers least able to absorb it).
func (rt *Router) Start() {
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

// Stop stops the health prober and waits it out, as the edge begins to
// drain; no prober starts after it.
func (rt *Router) Stop() {
	rt.healthMu.Lock()
	if !rt.stopped {
		rt.stopped = true
		close(rt.stopHealth)
	}
	rt.healthMu.Unlock()
	rt.probers.Wait()
}

// maxProxyResponse bounds how much of a backend response the router
// buffers (artifacts are large; unbounded trust is still wrong).
const maxProxyResponse = 64 << 20

// Lookup and diskPut are the router's disk-only tier: there is no
// memory level to promote into, so they read and write cache.Disk
// directly, under a kernel's text key. A record is the backend's
// /compile answer less its family and cache mark: the canonical key, the
// artifact and the name the backend gave it. Failures are counted inside
// Disk and degrade to a miss or a dropped persist.
//
// Lookup answers kernel k from its record, named as a backend would name
// it: by k's client, else by the parsed name. A record persisted for a
// kernel its client named holds no parsed name, so it answers only a
// named kernel; an unnamed one misses, and its forward writes the name.
func (rt *Router) Lookup(ctx context.Context, k server.Kernel) (rec server.CompileResponseWire, ok bool) {
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

// Memo misses: the router keeps no raw-body memo; its disk is keyed by
// the text key the front door derives.
func (rt *Router) Memo(*server.Account, []byte, http.Header) (server.Outcome, cache.Key, bool) {
	return server.Outcome{}, "", false
}

// Compile answers a /compile from the router-local second level — a
// persisted artifact is served without crossing the network, and without
// showing up in any backend's counters (/stats aggregation depends on that
// disjointness) — else relays it to a backend. The answer is relayed as
// the bytes the backend sent, a refusal of IR that does not parse among
// them; only a router with a disk tier of its own looks inside a 200.
func (rt *Router) Compile(ctx context.Context, acct *server.Account, q *server.Request) server.Outcome {
	k := q.Kernels[0]
	if hit, ok := rt.Lookup(ctx, k); ok {
		acct.Tier = "disk"
		hit.Family, hit.Cache = q.Family, "hit"
		return server.Outcome{CompileResponseWire: hit}
	}
	out := rt.forward(ctx, acct, q, "/compile")
	if out.Status == http.StatusOK && rt.Disk() != nil {
		if ans, degraded, ok := server.ParseCompileFrame(out.Body); ok {
			rt.diskPut(ctx, k, ans, degraded)
		}
	}
	return out
}

// Explore relays a design-space sweep to a single backend, routed by the
// kernel's text key — the same steering /compile uses. Every variant of
// one kernel shares its canonical subtrees, so the whole sweep lands on
// one backend, and repeated sweeps of the same kernel, and /compiles of
// it, keep landing there.
//
// The backend's answer — buffered JSON or a complete NDJSON stream —
// is relayed verbatim; the router never re-scores a sweep. Sweep
// results are not persisted in the router's disk cache: the backend
// caches the per-variant artifacts, so a re-sweep is cheap where it
// matters, and frontier bodies are not addressable by artifact key.
func (rt *Router) Explore(ctx context.Context, _ context.CancelFunc, w http.ResponseWriter, acct *server.Account, q *server.Request) {
	rt.forward(ctx, acct, q, "/explore").Write(w, "", q.Stream)
}

// forward routes an admitted /compile or /explore to path on a backend
// by the kernel's text key: the client's own body (Request.Forward),
// asking for NDJSON when the client did. ctx, bounded at the edge by the
// request's deadline header and timeout_ms, is the one budget the whole
// downstream chain shares — proxy attempts, retries, hedges, and the
// backend pipeline via the stamped deadline header. The walk fills the
// request's account.
func (rt *Router) forward(ctx context.Context, acct *server.Account, q *server.Request, path string) server.Outcome {
	accept := ""
	if q.Stream {
		accept = server.NDJSONContentType
	}
	return rt.proxyKernel(ctx, acct, acct.ID, q.Kernels[0].Key, forward{path, accept, q.Forward()})
}

// Backends reports each backend's liveness mark and breaker state.
func (rt *Router) Backends() []server.BackendHealth {
	out := make([]server.BackendHealth, len(rt.backends))
	for i, b := range rt.backends {
		out[i] = server.BackendHealth{URL: b.url, Alive: b.alive.Load(), Breaker: b.br.stats().State.String()}
	}
	return out
}
