// Package server is the compile-as-a-service front end: a long-running
// HTTP service exposing the Reticle pipeline over the concurrent batch
// tier (internal/batch) with a content-addressed artifact cache
// (internal/cache) in front.
//
// Endpoints:
//
//	POST /compile  — compile one kernel; cached, singleflighted
//	POST /batch    — compile N kernels through the bounded worker pool
//	POST /explore  — sweep one kernel's variant lattice, report the frontier
//	POST /scrub    — verify the disk tier's checksums (404 without one)
//	GET  /healthz  — liveness: status, uptime, families served
//	GET  /stats    — cache hit rate, in-flight kernels, cumulative
//	                 per-stage wall time, request counters
//
// The edge — route table, admission, front door, these handlers and the
// lifecycle — is the same code on both tiers: a Server resolves what it
// admits through a Resolver, the backend's own (artifact store, pipeline,
// batch pool, explore sweep) or a routing tier's (internal/shard).
//
// Robustness contract: request bodies are size-limited (413 past the
// bound), every request carries a deadline that is propagated as a
// context into the pipeline/batch tier (504 on expiry), handler panics
// are isolated to a 500 JSON response (mirroring batch's per-kernel
// recovery), malformed input is a structured 4xx, and Shutdown drains
// in-flight requests before returning. Every response, success or
// failure, is JSON.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"reticle/internal/cache"
	"reticle/internal/faults"
	"reticle/internal/hintcache"
	"reticle/internal/pipeline"
	"reticle/internal/rerr"
	"reticle/internal/stagecache"
)

// Fault points in the HTTP tier, for the chaos suite and operational
// drills (activate via RETICLE_FAULTS, e.g. "server/admission=exhausted"
// to force the 429 load-shed path). They fire on a backend only: a
// routing tier relays its backends' answers instead.
var (
	// faultCompile fires at the top of the /compile handler, after
	// admission.
	faultCompile = faults.Register("server/compile", "/compile handler entry, after admission")
	// faultBatch fires at the top of the /batch handler, after admission.
	faultBatch = faults.Register("server/batch", "/batch handler entry, after admission")
	// faultExplore fires at the top of the /explore handler, after
	// admission.
	faultExplore = faults.Register("server/explore", "/explore handler entry, after admission")
	// FaultAdmission forces the admission controller to reject, as if the
	// in-flight limit were reached.
	FaultAdmission = faults.Register("server/admission", "admission control: force a 429 load-shed")
	// faultDeadline forces deadline derivation to behave as if the
	// cross-tier budget were already exhausted on arrival: a typed 504,
	// never a started compile.
	faultDeadline = faults.Register("server/deadline", "deadline derivation: budget exhausted on arrival")
)

// DeadlineHeader carries the absolute cross-tier deadline — unix
// milliseconds, UTC — that a routing tier stamped on a proxied request.
// The server folds it into the request context deadline (taking the
// earlier of it and its own timeout), so a 2s budget set at the router
// can never commission 30s of backend work (DESIGN.md §14).
const DeadlineHeader = "X-Reticle-Deadline"

// Options configures a Server.
type Options struct {
	// CacheEntries bounds the artifact LRU; <=0 means cache.DefaultEntries.
	CacheEntries int
	// DefaultTimeout is the per-request compile deadline applied when a
	// request does not set timeout_ms; 0 means no server-side deadline.
	DefaultTimeout time.Duration
	// DefaultFamily names the config used when a request omits "family".
	// Empty with exactly one configured family means that family.
	DefaultFamily string
	// MaxInFlight bounds concurrently admitted /compile, /batch and
	// /explore requests: past the bound, requests are shed immediately
	// with 429 + Retry-After instead of queuing unboundedly. 0 means
	// unlimited.
	MaxInFlight int
	// DiskDir, when non-empty, gives the tier a persistent level at that
	// root — an append-only log of checksummed segment files (see
	// cache.Disk). A backend's artifact store checks it after memory and
	// before compute, and appends every non-degraded artifact; the hint
	// and stage memos stay in memory.
	DiskDir string
	// DiskMaxBytes bounds the segments under DiskDir, all the tree holds
	// but its count-capped quarantine; <=0 means cache.DefaultDiskBytes.
	DiskMaxBytes int64
}

// Server is a tier's edge: the route table, admission, the front door,
// the handlers and the lifecycle, over the tier's Resolver. It implements
// http.Handler, so tests drive it through httptest directly; Serve and
// Shutdown run it on a real listener with graceful drain (see Run).
type Server struct {
	familySet // one pipeline config per family; a routing tier's admits kernels unparsed

	res    Resolver
	disk   *cache.Disk // the tier's persistent level; nil when disabled
	opts   Options
	mux    *http.ServeMux
	hs     *http.Server // serves the mux on Serve's listener
	start  time.Time
	sem    chan struct{} // admission semaphore; nil = unlimited
	totals Totals        // the fold of finished requests' accounts: /stats
}

// Resolver is what a tier does behind the edge with what the front door
// admitted. A backend resolves each kernel itself; a routing tier reads
// its disk and sends the rest to a backend (internal/shard), whose
// answers come back as wire bytes it never parses.
type Resolver interface {
	// Memo answers a /compile body byte-identical to one answered before,
	// ahead of any decode, and reports false when it cannot. It also hands
	// back the body's memo key, which the admitted request carries into
	// Compile so that a miss hashes its body once; a tier without a memo
	// computes none.
	Memo(acct *Account, body []byte, h http.Header) (Outcome, cache.Key, bool)
	// Lookup answers an admitted kernel from the tier's local store,
	// computing nothing: the hits of a /batch.
	Lookup(ctx context.Context, k Kernel) (CompileResponseWire, bool)
	// Compile resolves an admitted /compile's kernel.
	Compile(ctx context.Context, acct *Account, q *Request) Outcome
	// Batch resolves plan's misses, miss j into plan.Subs[j], and answers
	// through plan.Answer; an error, returned before anything is written,
	// refuses the batch.
	Batch(ctx context.Context, cancel context.CancelFunc, w http.ResponseWriter, acct *Account, plan *BatchPlan) error
	// Explore answers an admitted /explore on w; cancel stops its work
	// when the client is gone.
	Explore(ctx context.Context, cancel context.CancelFunc, w http.ResponseWriter, acct *Account, q *Request)
	// Backends is the liveness of a routing tier's backends for /healthz;
	// nil on a backend.
	Backends() []BackendHealth
	// Stats is the tier's /stats body, given the fold of the requests it
	// has finished (requests counts the one asking) and its uptime.
	Stats(ctx context.Context, requests int64, sum *Account, uptime time.Duration) any
	// Start runs as Serve begins; Stop as Shutdown begins, before the
	// drain.
	Start()
	Stop()
}

// New builds a backend over one pipeline config per family name. Every
// config must validate; at least one family is required.
func New(opts Options, configs map[string]*pipeline.Config) (*Server, error) {
	// The memos live in memory only: a restart costs hint adoption and
	// stage reuse for near-miss edits, never an artifact.
	b := &backend{
		texts:  cache.New[textEntry](opts.CacheEntries),
		hints:  hintcache.New(0),
		stagec: stagecache.New(0),
	}
	// Both memos ride inside the pipeline config, so clone each family
	// config rather than mutate the caller's. No key observes HintCache
	// or StageCache (adoption cannot change output), so every artifact
	// cache key is identical with or without them — and one shared store
	// per server means /explore variants and /batch kernels fork off each
	// other's stages.
	wired := make(map[string]*pipeline.Config, len(configs))
	for name, cfg := range configs {
		cc := *cfg
		cc.HintCache = b.hints
		cc.StageCache = b.stagec
		wired[name] = &cc
	}
	s, err := newServer(opts, wired, b, false)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	b.cache = cache.NewStore(opts.CacheEntries, s.Disk(), artifactNamespace)
	b.families = s.Families()
	return s, nil
}

// NewRouting builds a routing tier's edge over res. Kernels are admitted
// unparsed, keyed by pipeline.TextKeyFor; the backend each is sent to
// parses it through the same front door and refuses it if it does not
// parse. The fault points above never fire on it.
func NewRouting(opts Options, configs map[string]*pipeline.Config, res Resolver) (*Server, error) {
	return newServer(opts, configs, res, true)
}

func newServer(opts Options, configs map[string]*pipeline.Config, res Resolver, routing bool) (*Server, error) {
	s := &Server{res: res, opts: opts, mux: http.NewServeMux(), start: time.Now()}
	s.hs = &http.Server{Handler: s}
	if opts.MaxInFlight > 0 {
		s.sem = make(chan struct{}, opts.MaxInFlight)
	}
	var err error
	if s.familySet, err = newFamilySet(configs, opts.DefaultFamily); err != nil {
		return nil, err
	}
	s.routing = routing
	if opts.DiskDir != "" {
		if s.disk, err = cache.OpenDisk(opts.DiskDir, opts.DiskMaxBytes); err != nil {
			return nil, fmt.Errorf("disk cache: %w", err)
		}
	}
	s.mux.HandleFunc("POST /compile", s.admitted(faultCompile, s.handleCompile))
	s.mux.HandleFunc("POST /batch", s.admitted(faultBatch, s.handleBatch))
	s.mux.HandleFunc("POST /explore", s.admitted(faultExplore, s.handleExplore))
	s.mux.HandleFunc("POST /scrub", s.handleScrub)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	return s, nil
}

// ServeHTTP dispatches to the service mux (so a Server can be mounted
// under httptest or a parent mux directly), inside the request's account:
// opened here, folded into /stats and logged when the handler returns.
// A backend adopts the router's suffixed attempt ids; a routing tier is
// an edge, so a client id may not carry the suffixes it appends itself.
//
// A handler's panic is isolated to a 500 JSON response instead of a dead
// connection, the same "one bad kernel never takes down the process"
// semantics the batch tier gives each worker. The body carries only the
// stable typed message — the panic value and stack stay in the process,
// never on the wire.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t := Track(w, r, !s.routing)
	msg := "serve"
	if s.routing {
		msg = "route"
	}
	defer t.Finish(&s.totals, msg)
	defer func() {
		if rec := recover(); rec != nil {
			writeTypedError(t, rerr.Wrap(rerr.Permanent, "internal_panic",
				"internal panic while handling the request", fmt.Errorf("panic: %v", rec)), "")
		}
	}()
	s.mux.ServeHTTP(t, r)
}

// Serve starts the resolver and serves on l until Shutdown, and then
// returns http.ErrServerClosed; after Shutdown, at once.
func (s *Server) Serve(l net.Listener) error {
	s.res.Start()
	return s.hs.Serve(l)
}

// Shutdown stops the resolver, gracefully drains the server — listeners
// close immediately, in-flight requests run to completion (bounded by
// ctx) — and then releases the disk tier's files (see cache.Disk.Close).
// Safe to call when the server never served.
func (s *Server) Shutdown(ctx context.Context) error {
	s.res.Stop()
	err := s.hs.Shutdown(ctx)
	if s.disk != nil {
		err = errors.Join(err, s.disk.Close())
	}
	return err
}

// CacheStats snapshots a backend's artifact cache counters; a routing
// tier has none.
func (s *Server) CacheStats() cache.Stats {
	if b, ok := s.res.(*backend); ok {
		return b.cache.Stats()
	}
	return cache.Stats{}
}

// fire fires one of the server/* fault points: on a backend only.
func (s *Server) fire(p faults.Point, ctx context.Context) error {
	if s.routing {
		return nil
	}
	return p.Fire(ctx)
}

// admitted wraps an endpoint that does work with admission control — a
// non-blocking semaphore acquire that sheds load past
// Options.MaxInFlight with a typed resource-exhausted error (429 +
// Retry-After on the wire) instead of queuing unboundedly — and then the
// endpoint's fault point. A routing tier has no bound: it relays each
// backend's own 429 with its Retry-After.
func (s *Server) admitted(p faults.Point, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		err := s.fire(FaultAdmission, r.Context())
		if err != nil {
			err = rerr.Wrap(rerr.Exhausted, "admission_rejected", "server at capacity, retry later", err)
		} else if s.sem != nil {
			select {
			case s.sem <- struct{}{}:
				defer func() { <-s.sem }()
			default:
				err = rerr.New(rerr.Exhausted, "admission_rejected", "server at capacity, retry later")
			}
		}
		if err == nil {
			err = s.fire(p, r.Context())
		}
		if err != nil {
			writeTypedError(w, err, "")
			return
		}
		h(w, r)
	}
}

// within derives a request's context from the context the connection
// gives it: bounded by the request's own timeout (else the server
// default) and by its deadline header, whichever is earlier, so a
// client's disconnect and the cross-tier budget both cancel its work. The
// deadline goes on the request's account.
func (s *Server) within(acct *Account, r *http.Request, q *Request, d time.Duration) (context.Context, context.CancelFunc, error) {
	if s.fire(faultDeadline, r.Context()) != nil {
		return nil, nil, errDeadlineSpent
	}
	if d == 0 {
		d = s.opts.DefaultTimeout
	}
	ctx, cancel := q.Within(r.Context(), d)
	acct.Deadline, _ = ctx.Deadline()
	return ctx, cancel, nil
}

// handleCompile answers a byte-identical repeat body from the resolver's
// memo before decoding it, and anything else through the front door and
// Resolver.Compile. The deadline header is the one thing outside the body
// that refuses a request, so the memo refers a malformed or spent one to
// the front door, which answers it.
func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	acct := accountOf(w)
	body, err := readBody(r)
	if err != nil {
		writeRefusal(w, err)
		return
	}
	if !s.routing {
		// A routing tier's body is what it forwards: a cancelled attempt's
		// transport may still be reading it after the walk returns.
		defer bodyPool.Put(body)
	}
	out, memoKey, ok := s.res.Memo(acct, body.Bytes(), r.Header)
	if ok {
		out.Write(w, "", false)
		return
	}
	q, err := s.admit("/compile", body.Bytes(), r.Header)
	if err != nil {
		writeRefusal(w, err)
		return
	}
	q.memoKey = memoKey
	k := &q.Kernels[0]
	acct.Key = string(k.Key)
	ctx, cancel, err := s.within(acct, r, q, q.Timeout)
	if err != nil {
		writeTypedError(w, err, k.Name)
		return
	}
	defer cancel()
	s.res.Compile(ctx, acct, q).Write(w, k.Name, false)
}

// handleBatch plans the request (planBatch: per-kernel parse errors never
// fail the batch, what the local store holds is served, the rest is
// deduped by key) and has the resolver resolve the distinct misses and
// answer through BatchPlan.Answer.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	acct := accountOf(w)
	plan, ok := s.planBatch(w, r)
	if !ok {
		return
	}
	ctx, cancel, err := s.within(acct, r, plan.Request, 0) // overall deadline: the tier's default
	if err != nil {
		writeTypedError(w, err, "")
		return
	}
	defer cancel()
	if err := s.res.Batch(ctx, cancel, w, acct, plan); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
	}
}

func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) {
	acct := accountOf(w)
	q, ok := s.door(w, r)
	if !ok {
		return
	}
	ctx, cancel, err := s.within(acct, r, q, q.Timeout)
	if err != nil {
		writeTypedError(w, err, "")
		return
	}
	defer cancel()
	s.res.Explore(ctx, cancel, w, acct, q)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:   "ok",
		UptimeMS: time.Since(s.start).Milliseconds(),
		Families: s.Families(),
		Backends: s.res.Backends(),
	})
}

// handleStats renders the resolver's /stats over the fold of finished
// requests; this one has not ended, so it counts itself.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	requests, sum := s.totals.Snapshot()
	writeJSON(w, http.StatusOK, s.res.Stats(r.Context(), requests+1, &sum, time.Since(s.start)))
}

func cacheStatus(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}
