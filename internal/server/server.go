// Package server is the compile-as-a-service front end: a long-running
// HTTP service exposing the Reticle pipeline over the concurrent batch
// tier (internal/batch) with a content-addressed artifact cache
// (internal/cache) in front.
//
// Endpoints:
//
//	POST /compile  — compile one kernel; cached, singleflighted
//	POST /batch    — compile N kernels through the bounded worker pool
//	GET  /healthz  — liveness: status, uptime, families served
//	GET  /stats    — cache hit rate, in-flight kernels, cumulative
//	                 per-stage wall time, request counters
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
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"reticle/internal/batch"
	"reticle/internal/cache"
	"reticle/internal/faults"
	"reticle/internal/hintcache"
	"reticle/internal/ir"
	"reticle/internal/pipeline"
	"reticle/internal/rerr"
	"reticle/internal/stagecache"
)

// Fault points in the HTTP tier, for the chaos suite and operational
// drills (activate via RETICLE_FAULTS, e.g. "server/admission=exhausted"
// to force the 429 load-shed path).
var (
	// FaultCompile fires at the top of the /compile handler, after
	// admission.
	FaultCompile = faults.Register("server/compile", "/compile handler entry, after admission")
	// FaultBatch fires at the top of the /batch handler, after admission.
	FaultBatch = faults.Register("server/batch", "/batch handler entry, after admission")
	// FaultExplore fires at the top of the /explore handler, after
	// admission.
	FaultExplore = faults.Register("server/explore", "/explore handler entry, after admission")
	// FaultAdmission forces the admission controller to reject, as if the
	// in-flight limit were reached.
	FaultAdmission = faults.Register("server/admission", "admission control: force a 429 load-shed")
	// FaultDeadline forces deadline derivation to behave as if the
	// cross-tier budget were already exhausted on arrival: a typed 504,
	// never a started compile.
	FaultDeadline = faults.Register("server/deadline", "deadline derivation: budget exhausted on arrival")
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
	// MaxInFlight bounds concurrently admitted /compile and /batch
	// requests: past the bound, requests are shed immediately with
	// 429 + Retry-After instead of queuing unboundedly. 0 means
	// unlimited.
	MaxInFlight int
	// DiskDir, when non-empty, gives the artifact store a persistent
	// second level at that root — an append-only log of checksummed
	// segment files, checked after memory and before compute, appended to
	// on every non-degraded artifact, and durable across restarts (see
	// cache.Store, cache.Disk). The hint and stage memos stay in memory.
	DiskDir string
	// DiskMaxBytes bounds the segments under DiskDir, all the tree holds
	// but its count-capped quarantine; <=0 means cache.DefaultDiskBytes.
	DiskMaxBytes int64
}

// Server serves compile requests over shared read-only pipeline configs,
// one per family. It implements http.Handler, so tests drive it through
// httptest directly; Serve/Shutdown run it on a real listener with
// graceful drain (see Run).
type Server struct {
	FamilySet // one pipeline config per family, memo stores wired in
	DiskTier  // the artifact store's persistent level; zero when disabled

	opts   Options
	cache  *cache.Store[cachedArtifact]
	texts  *cache.Cache[textEntry]
	hints  *hintcache.Store  // placement hint store
	stagec *stagecache.Store // per-stage compilation memo
	mux    *http.ServeMux
	hs     *http.Server // serves the mux on Serve's listener
	start  time.Time
	sem    chan struct{} // admission semaphore; nil = unlimited

	totals   Totals       // the fold of finished requests' accounts: /stats
	inflight atomic.Int64 // kernels inside the pipeline now, read mid-request
}

// onCompileStart, when non-nil, is invoked as a kernel enters the
// pipeline. The drain test uses it to synchronize Shutdown with an
// in-flight request; it must be set before the server receives traffic.
var onCompileStart func()

// cachedArtifact is the artifact store's unit of storage: the wire
// rendering, marshaled once so every hit serves pre-encoded bytes, plus
// the fixed-size summary the server still reads afterwards. The compiled
// ASM functions and Verilog AST are not kept.
type cachedArtifact struct {
	wire []byte // json.Marshal(artifactJSON(art))
	sum  summary
}

// summary is what the server reads of an artifact once it is rendered:
// the counters /explore scores and the degraded mark the store's Keep and
// the /batch stats read. The tagged fields are ArtifactJSON's own.
type summary struct {
	LUTs       int     `json:"luts"`
	DSPs       int     `json:"dsps"`
	FFs        int     `json:"ffs"`
	Carries    int     `json:"carries"`
	CriticalNs float64 `json:"critical_ns"`
	FMaxMHz    float64 `json:"fmax_mhz"`
	Degraded   bool    `json:"degraded"`
}

// render is the one place an artifact becomes wire bytes.
func render(art *pipeline.Artifact) cachedArtifact {
	wire, err := json.Marshal(artifactJSON(art))
	if err != nil {
		// ArtifactJSON is strings and numbers; Marshal cannot fail.
		panic(fmt.Sprintf("server: marshal artifact: %v", err))
	}
	return cachedArtifact{wire: wire, sum: summary{
		LUTs: art.LUTs, DSPs: art.DSPs, FFs: art.FFs, Carries: art.Carries,
		CriticalNs: art.CriticalNs, FMaxMHz: art.FMaxMHz,
		Degraded: art.Degraded,
	}}
}

// artifactNamespace is the artifact tier's instance of the two-level
// store: the wire bytes are the disk payload, and a degraded
// (fallback-placed or shrink-truncated) artifact is served to the
// requests that paid for it but stored at neither level — the next
// request gets a fresh shot at the full solver. Decoding reads the
// summary off the tail of the payload (decodeSummary) instead of decoding
// the kilobytes of program text in front of it on every disk hit.
var artifactNamespace = cache.Namespace[cachedArtifact]{
	Encode: func(ca cachedArtifact) []byte { return ca.wire },
	Decode: func(wire []byte) (cachedArtifact, bool) {
		sum, ok := decodeSummary(wire)
		return cachedArtifact{wire: wire, sum: sum}, ok
	},
	Keep: func(ca cachedArtifact) bool { return !ca.sum.Degraded },
}

// artifact rebuilds, for the batch pool's and /explore's per-response
// stats, the part of the compiled artifact the summary kept.
func (ca cachedArtifact) artifact() *pipeline.Artifact {
	return &pipeline.Artifact{
		LUTs: ca.sum.LUTs, DSPs: ca.sum.DSPs, FFs: ca.sum.FFs, Carries: ca.sum.Carries,
		CriticalNs: ca.sum.CriticalNs, FMaxMHz: ca.sum.FMaxMHz,
		Degraded: ca.sum.Degraded,
	}
}

// textEntry is the exact-body fast path: a memo from the SHA-256 of a
// /compile request body, as received, to everything its answer takes
// besides the artifact — the canonical cache key, the resolved response
// name and the resolved family. An identical body decodes to an identical
// request, and the answer depends on nothing else the request carries
// (the default family is fixed per process), so a memo hit serves the
// resident artifact without decoding the body or lexing a byte of IR.
// Any miss (including an artifact evicted out from under the memo) falls
// through to the decode + parse + canonical-key slow path, which still
// coalesces alpha-equivalent kernels.
type textEntry struct {
	key          cache.Key
	name, family string
}

// answer writes the /compile success body for the entry's kernel, whose
// artifact is wire.
func (te textEntry) answer(w http.ResponseWriter, hit bool, wire []byte) {
	WriteCompileFrame(w, CompileResponseWire{
		Name: te.name, Family: te.family, Cache: cacheStatus(hit), Key: string(te.key), Artifact: wire,
	})
}

// textKey hashes a request body. The memo lives in memory only, so the
// key is the digest's raw bytes.
func textKey(body []byte) cache.Key {
	sum := sha256.Sum256(body)
	return cache.Key(sum[:])
}

// New builds a Server over one pipeline config per family name. Every
// config must validate; at least one family is required.
func New(opts Options, configs map[string]*pipeline.Config) (*Server, error) {
	// The memos live in memory only: a restart costs hint adoption and
	// stage reuse for near-miss edits, never an artifact.
	s := &Server{
		opts:   opts,
		texts:  cache.New[textEntry](opts.CacheEntries),
		hints:  hintcache.New(0),
		stagec: stagecache.New(0),
		mux:    http.NewServeMux(),
		start:  time.Now(),
	}
	s.hs = &http.Server{Handler: s}
	if opts.MaxInFlight > 0 {
		s.sem = make(chan struct{}, opts.MaxInFlight)
	}
	var err error
	if s.DiskTier, err = OpenDiskTier(opts.DiskDir, opts.DiskMaxBytes); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s.cache = cache.NewStore(opts.CacheEntries, s.Disk(), artifactNamespace)
	// Both memos ride inside the pipeline config, so clone each family
	// config rather than mutate the caller's. No key observes HintCache
	// or StageCache (adoption cannot change output), so every artifact
	// cache key is identical with or without them — and one shared store
	// per server means /explore variants and /batch kernels fork off each
	// other's stages.
	wired := make(map[string]*pipeline.Config, len(configs))
	for name, cfg := range configs {
		cc := *cfg
		cc.HintCache = s.hints
		cc.StageCache = s.stagec
		wired[name] = &cc
	}
	if s.FamilySet, err = NewFamilySet(wired, opts.DefaultFamily); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s.mux.HandleFunc("POST /compile", Recovered(s.handleCompile))
	s.mux.HandleFunc("POST /batch", Recovered(s.handleBatch))
	s.mux.HandleFunc("POST /explore", Recovered(s.handleExplore))
	s.mux.HandleFunc("POST /scrub", Recovered(s.HandleScrub))
	s.mux.HandleFunc("GET /healthz", Recovered(s.handleHealthz))
	s.mux.HandleFunc("GET /stats", Recovered(s.handleStats))
	return s, nil
}

// ServeHTTP dispatches to the service mux (so a Server can be mounted
// under httptest or a parent mux directly), inside the request's account:
// opened here, folded into /stats and logged when the handler returns.
// A backend adopts the router's suffixed attempt ids.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t := Track(w, r, true)
	s.mux.ServeHTTP(t, r)
	t.Finish(&s.totals, "serve")
}

// Serve serves on l until Shutdown, and then returns
// http.ErrServerClosed; after Shutdown, at once.
func (s *Server) Serve(l net.Listener) error { return s.hs.Serve(l) }

// Shutdown gracefully drains the server: listeners close immediately,
// in-flight requests run to completion (bounded by ctx), and then the
// disk tier closes. Safe to call when the server never served.
func (s *Server) Shutdown(ctx context.Context) error {
	return errors.Join(s.hs.Shutdown(ctx), s.DiskTier.Close())
}

// CacheStats snapshots the artifact cache counters.
func (s *Server) CacheStats() cache.Stats { return s.cache.Stats() }

// admit applies admission control: a non-blocking semaphore acquire that
// sheds load past Options.MaxInFlight with a typed resource-exhausted
// error (429 + Retry-After on the wire) instead of queuing unboundedly.
// The returned release must be called when the request finishes.
func (s *Server) admit(ctx context.Context) (release func(), err error) {
	if ferr := FaultAdmission.Fire(ctx); ferr != nil {
		return nil, rerr.Wrap(rerr.Exhausted, "admission_rejected",
			"server at capacity, retry later", ferr)
	}
	if s.sem == nil {
		return func() {}, nil
	}
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, nil
	default:
		return nil, rerr.New(rerr.Exhausted, "admission_rejected",
			"server at capacity, retry later")
	}
}

// within derives a request's compile context from the context the
// connection gives it: bounded by the request's own timeout (else the
// server default) and by its deadline header, whichever is earlier, so a
// client's disconnect and the cross-tier budget both cancel compiles. The
// deadline goes on the request's account.
func (s *Server) within(acct *Account, r *http.Request, q *Request, d time.Duration) (context.Context, context.CancelFunc, error) {
	if FaultDeadline.Fire(r.Context()) != nil {
		return nil, nil, errDeadlineSpent
	}
	if d == 0 {
		d = s.opts.DefaultTimeout
	}
	ctx, cancel := q.Within(r.Context(), d)
	acct.Deadline, _ = ctx.Deadline()
	return ctx, cancel, nil
}

// compileKernel is the one way a kernel is resolved, whichever endpoint
// carries it: through the artifact store under its key
// (cache.KeyFor(cfg, f), hashed once by the caller) — memory, then disk,
// then one pipeline run shared by every concurrent request for the key —
// maintaining the in-flight gauge. The serving level, and for a compile
// that ran here its times and counters copied off the artifact, go on
// acct: the request's account, or the sub-account of the /batch kernel
// or /explore variant, written on its worker's goroutine only.
//
// syms, when not nil, is the table the front door's parse built for f.
func (s *Server) compileKernel(ctx context.Context, acct *Account, cfg *pipeline.Config, key cache.Key, f *ir.Func, syms *ir.Symbols) (cachedArtifact, cache.Level, error) {
	ca, lvl, err := s.cache.Resolve(ctx, key, func() (cachedArtifact, error) {
		if onCompileStart != nil {
			onCompileStart()
		}
		acct.N[Kernels]++
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		art, err := pipeline.CompileChecked(ctx, cfg, f, syms)
		if err != nil {
			return cachedArtifact{}, err
		}
		acct.Stages.Add(art.Stages)
		acct.Place.Add(art.Place)
		acct.N[StagesSkipped] += art.StagesSkipped
		acct.WarmStart, acct.Degraded = art.WarmStart, art.DegradedReason
		return render(art), nil
	})
	acct.Tier = lvl.String()
	return ca, lvl, err
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	acct := AccountOf(w)
	release, err := s.admit(r.Context())
	if err != nil {
		WriteTypedError(w, err)
		return
	}
	defer release()
	if err := FaultCompile.Fire(r.Context()); err != nil {
		WriteTypedError(w, err)
		return
	}
	body, err := readBody(r)
	if err != nil {
		WriteRefusal(w, err)
		return
	}
	defer bodyPool.Put(body)

	// Exact-body fast path: a byte-identical body keys the same answer,
	// so a resident entry is served without decoding. The deadline header
	// is the one thing outside the body that refuses a request: one that
	// is malformed or spent takes the slow path, which answers it. Misses
	// (first sight of this body, or the artifact was evicted) take the
	// slow path too.
	tk := textKey(body.Bytes())
	if _, herr := headerDeadline(r.Header); herr == nil {
		if te, ok := s.texts.Peek(tk); ok {
			if ca, ok := s.cache.Peek(te.key); ok {
				acct.Tier, acct.Key = "memory", string(te.key)
				te.answer(w, true, ca.wire)
				return
			}
		}
	}

	q, err := s.Admit("/compile", body.Bytes(), r.Header)
	if err != nil {
		WriteRefusal(w, err)
		return
	}
	k := q.Kernels[0]
	ctx, cancel, err := s.within(acct, r, q, q.Timeout)
	if err != nil {
		writeTypedError(w, err, k.Name)
		return
	}
	defer cancel()

	// A parsed name is a substring of the decoded IR: cloned, the memo
	// entry does not keep the whole request alive.
	te := textEntry{key: k.Key, name: strings.Clone(k.Name), family: q.Family}
	s.texts.Add(tk, te)
	acct.Key = string(te.key)
	ca, lvl, err := s.compileKernel(ctx, acct, q.Config, te.key, k.Func, &q.Kernels[0].Syms)
	if err != nil {
		writeTypedError(w, err, te.name)
		return
	}
	te.answer(w, lvl != cache.Computed, ca.wire)
}

// handleBatch plans the request (PlanBatch: per-kernel parse errors never
// fail the batch, what the artifact store holds is served, the rest is
// deduped by key) and sends each distinct miss through the worker pool
// (per-kernel timeout, retries, panic isolation) into compileKernel — so
// a kernel costs one compile however many requests of whatever kind carry
// it at once. Results leave through BatchPlan.Answer; the footer's
// retries and skipped stages are the pool's. Each miss fills a
// sub-account on its worker; they join the request's once the pool has
// finished.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	acct := AccountOf(w)
	release, err := s.admit(r.Context())
	if err != nil {
		WriteTypedError(w, err)
		return
	}
	defer release()
	if err := FaultBatch.Fire(r.Context()); err != nil {
		WriteTypedError(w, err)
		return
	}
	plan, ok := PlanBatch(w, r, s.FamilySet,
		func(ctx context.Context, k Kernel) (CompileResponseWire, bool) {
			ca, ok := s.cache.Lookup(ctx, k.Key)
			return CompileResponseWire{Name: k.Name, Artifact: ca.wire}, ok
		})
	if !ok {
		return
	}
	ctx, cancel, err := s.within(acct, r, plan.Request, 0) // overall deadline: server default
	if err != nil {
		WriteTypedError(w, err)
		return
	}
	defer cancel()

	// [j] of both is written by miss j's worker: compiled is read once
	// its result is final, subs once the pool has finished.
	compiled := make([]cachedArtifact, len(plan.Misses))
	subs := make([]Account, len(plan.Misses))
	jobs := make([]batch.Job, len(plan.Misses))
	for j, m := range plan.Misses {
		jobs[j] = batch.Job{Name: m.Name, Func: m.Func,
			Compile: func(kctx context.Context) (*pipeline.Artifact, error) {
				ca, _, err := s.compileKernel(kctx, &subs[j], plan.Config, m.Key, m.Func, m.Syms)
				if err != nil {
					return nil, err
				}
				compiled[j] = ca
				return ca.artifact(), nil
			}}
	}
	run, err := batch.Begin(ctx, plan.Config, jobs, plan.Options)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}

	plan.Answer(w, cancel, func(j int) (BatchKernelResultWire, bool) {
		if br := run.Result(j); !br.Ok() {
			// Per-kernel failures cross the wire as the typed stable
			// message and code only — never raw fmt.Errorf chains.
			return BatchKernelResultWire{Error: rerr.Message(br.Err), ErrorCode: rerr.CodeOf(br.Err)}, false
		}
		return BatchKernelResultWire{OK: true, Artifact: compiled[j].wire}, compiled[j].sum.Degraded
	}, func(st *BatchStatsJSON) {
		_, stats := run.Finish()
		acct.Merge(subs...)
		st.WallNS, st.KernelsPerSec = stats.Wall.Nanoseconds(), stats.KernelsPerSec
		st.Retried, st.StagesSkipped = stats.Retried, acct.N[StagesSkipped]
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, HealthResponse{
		Status:   "ok",
		UptimeMS: time.Since(s.start).Milliseconds(),
		Families: s.Families(),
	})
}

// handleStats renders the fold of finished requests (this one included,
// though it has not ended), the in-flight gauge and the stores' own
// snapshots.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	requests, sum := s.totals.Snapshot()
	cs := s.cache.Stats()
	hints := s.hints.Stats()
	stagec := stageCacheJSON(s.stagec.Stats(), int64(sum.N[StagesSkipped]))
	WriteJSON(w, http.StatusOK, StatsResponse{
		Requests:        requests + 1,
		Kernels:         int64(sum.N[Kernels]),
		InFlightKernels: s.inflight.Load(),
		UptimeMS:        time.Since(s.start).Milliseconds(),
		Families:        s.Families(),
		Cache: CacheStatsJSON{
			Entries:    cs.Entries,
			MaxEntries: cs.MaxEntries,
			Hits:       cs.Hits,
			Misses:     cs.Misses,
			Coalesced:  cs.Coalesced,
			Evictions:  cs.Evictions,
			Computes:   cs.Computes,
			InFlight:   cs.InFlight,
			HitRate:    cs.HitRate(),
		},
		Disk:       s.cache.DiskStats(),
		Stages:     stageJSON(sum.Stages),
		Place:      sum.Place,
		HintCache:  &hints,
		StageCache: &stagec,
		Mem:        MemStatsJSONNow(),
		Explore:    sum.Explore,
	})
}

func cacheStatus(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}
