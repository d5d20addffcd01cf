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
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
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
	// MaxBodyBytes bounds request bodies; <=0 means 1 MiB.
	MaxBodyBytes int64
	// DefaultTimeout is the per-request compile deadline applied when a
	// request does not set timeout_ms; 0 means no server-side deadline.
	DefaultTimeout time.Duration
	// Jobs bounds /batch worker goroutines when the request omits jobs;
	// <=0 means GOMAXPROCS (the batch tier's default).
	Jobs int
	// DefaultFamily names the config used when a request omits "family".
	// Empty with exactly one configured family means that family.
	DefaultFamily string
	// MaxInFlight bounds concurrently admitted /compile and /batch
	// requests: past the bound, requests are shed immediately with
	// 429 + Retry-After instead of queuing unboundedly. 0 means
	// unlimited.
	MaxInFlight int
	// DiskDir, when non-empty, enables the persistent second-level
	// artifact cache rooted there: checked after the in-memory LRU and
	// before compute, written through on every non-degraded compile, and
	// durable across restarts (see cache.Disk).
	DiskDir string
	// DiskMaxBytes bounds the disk cache; <=0 means cache.DefaultDiskBytes.
	DiskMaxBytes int64
	// HintCacheEntries bounds the placement hint store (anchors of the
	// most recent successful compile per structural key, adopted on an
	// artifact-cache miss with an unchanged placement problem); <=0
	// means cache.DefaultEntries. With DiskDir set, hints also persist
	// under DiskDir/hints and survive restarts.
	HintCacheEntries int
	// NoHintCache disables the placement hint store: every compile
	// solves cold, exactly the pre-hint-cache behavior.
	NoHintCache bool
	// MaxExploreVariants caps the per-request /explore max_variants
	// (requests past the cap are clamped); <=0 means
	// explore.HardMaxVariants.
	MaxExploreVariants int
	// StageCacheEntries bounds the per-stage compilation memo
	// (internal/stagecache — selected assembly, layout-optimized
	// assembly, whole placements, fused codegen+timing output, shared
	// across /compile, /batch, and /explore); <=0 means
	// cache.DefaultEntries. With DiskDir set, stage results also
	// persist under DiskDir/stages and survive restarts.
	StageCacheEntries int
	// NoStageCache disables the stage memo: every artifact-cache miss
	// recomputes all five stages, exactly the pre-stage-cache behavior.
	NoStageCache bool
}

// Server serves compile requests over shared read-only pipeline configs,
// one per family. It implements http.Handler, so tests drive it through
// httptest directly; Start/Shutdown manage a real listener with graceful
// drain.
type Server struct {
	opts    Options
	configs map[string]*pipeline.Config
	cache   *cache.Cache[cachedArtifact]
	texts   *cache.Cache[textEntry]
	disk    *cache.Disk       // persistent second level; nil when disabled
	hints   *hintcache.Store  // placement hint store; nil when disabled
	stagec  *stagecache.Store // per-stage compilation memo; nil when disabled
	mux     *http.ServeMux
	hs      *http.Server
	start   time.Time
	sem     chan struct{} // admission semaphore; nil = unlimited

	requests atomic.Int64 // HTTP requests accepted
	kernels  atomic.Int64 // kernels entering the pipeline (not cache hits)
	inflight atomic.Int64 // kernels currently inside the pipeline
	shed     atomic.Int64 // requests rejected by admission control

	exploreSweeps   atomic.Int64 // /explore sweeps completed
	exploreVariants atomic.Int64 // variants swept, across all sweeps
	exploreHits     atomic.Int64 // variants served from a cache tier
	explorePartial  atomic.Int64 // sweeps that returned partial

	stageSkips atomic.Int64 // pipeline stages served from the stage memo

	stageMu sync.Mutex
	stages  pipeline.StageTimes // cumulative, compiled kernels only
	place   pipeline.PlaceStats // cumulative placement solver counters
}

// onCompileStart, when non-nil, is invoked as a kernel enters the
// pipeline. The drain test uses it to synchronize Shutdown with an
// in-flight request; it must be set before the server receives traffic.
var onCompileStart func()

// cachedArtifact is the cache's unit of storage: the compiled artifact
// plus its wire rendering, marshaled once at insert time so cache hits
// serve pre-encoded bytes instead of re-rendering multi-kilobyte
// Verilog on every request.
type cachedArtifact struct {
	art      *pipeline.Artifact
	rendered json.RawMessage // json.Marshal(artifactJSON(art))
}

// textEntry is the exact-text fast path: a memo from the SHA-256 of
// (family, raw IR text) to the canonical cache key and the kernel's
// default name. Identical source text parses to an identical function,
// so a memo hit may serve the resident artifact without lexing a byte
// of IR; any miss (including an artifact evicted out from under the
// memo) falls through to the parse + canonical-key slow path, which
// still coalesces alpha-equivalent kernels.
type textEntry struct {
	key  cache.Key
	name string // parsed function name, the default response name
}

// textKey hashes a request's exact source text under its family.
func textKey(family, src string) cache.Key {
	h := sha256.New()
	h.Write([]byte(family))
	h.Write([]byte{0})
	h.Write([]byte(src))
	return cache.Key(hex.EncodeToString(h.Sum(nil)))
}

// render builds a cachedArtifact, marshaling the wire form eagerly.
func render(art *pipeline.Artifact) cachedArtifact {
	raw, err := json.Marshal(artifactJSON(art))
	if err != nil {
		// ArtifactJSON is strings and numbers; Marshal cannot fail.
		panic(fmt.Sprintf("server: marshal artifact: %v", err))
	}
	// The rendering carries the program text from here on; the cache
	// keeps a copy of the artifact without it rather than hold both.
	slim := *art
	slim.AsmText, slim.PlacedText = "", ""
	return cachedArtifact{art: &slim, rendered: raw}
}

// New builds a Server over one pipeline config per family name. Every
// config must validate; at least one family is required.
func New(opts Options, configs map[string]*pipeline.Config) (*Server, error) {
	if len(configs) == 0 {
		return nil, fmt.Errorf("server: no pipeline configs")
	}
	for name, cfg := range configs {
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("server: family %q: %w", name, err)
		}
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = 1 << 20
	}
	if opts.DefaultFamily == "" && len(configs) == 1 {
		for name := range configs {
			opts.DefaultFamily = name
		}
	}
	if opts.DefaultFamily != "" {
		if _, ok := configs[opts.DefaultFamily]; !ok {
			return nil, fmt.Errorf("server: default family %q has no config", opts.DefaultFamily)
		}
	}
	s := &Server{
		opts:    opts,
		configs: configs,
		cache:   cache.New[cachedArtifact](opts.CacheEntries),
		texts:   cache.New[textEntry](opts.CacheEntries),
		mux:     http.NewServeMux(),
		start:   time.Now(),
	}
	if opts.MaxInFlight > 0 {
		s.sem = make(chan struct{}, opts.MaxInFlight)
	}
	if opts.DiskDir != "" {
		disk, err := cache.OpenDisk(opts.DiskDir, opts.DiskMaxBytes)
		if err != nil {
			return nil, fmt.Errorf("server: disk cache: %w", err)
		}
		s.disk = disk
	}
	if !opts.NoHintCache {
		s.hints = hintcache.New(opts.HintCacheEntries)
		if opts.DiskDir != "" {
			// Hints live in a subdirectory of the artifact disk root:
			// OpenDisk skips directories when indexing, so the stores
			// share one -disk tree without colliding.
			if err := s.hints.AttachDisk(filepath.Join(opts.DiskDir, "hints"), opts.DiskMaxBytes); err != nil {
				return nil, fmt.Errorf("server: hint cache disk: %w", err)
			}
		}
	}
	if !opts.NoStageCache {
		s.stagec = stagecache.New(opts.StageCacheEntries)
		if opts.DiskDir != "" {
			// Stage results live under DIR/stages, beside DIR/hints.
			if err := s.stagec.AttachDisk(filepath.Join(opts.DiskDir, "stages"), opts.DiskMaxBytes); err != nil {
				return nil, fmt.Errorf("server: stage cache disk: %w", err)
			}
		}
	}
	if s.hints != nil || s.stagec != nil {
		// Both memos ride inside the pipeline config, so clone each
		// family config rather than mutate the caller's. Fingerprint
		// ignores HintCache and StageCache (adoption cannot change
		// output), so every artifact cache key is identical with or
		// without them — and one shared store per server means /explore
		// variants and /batch kernels fork off each other's stages.
		wired := make(map[string]*pipeline.Config, len(configs))
		for name, cfg := range configs {
			cc := *cfg
			if s.hints != nil {
				cc.HintCache = s.hints
			}
			if s.stagec != nil {
				cc.StageCache = s.stagec
			}
			wired[name] = &cc
		}
		s.configs = wired
	}
	s.mux.HandleFunc("POST /compile", s.recovered(s.handleCompile))
	s.mux.HandleFunc("POST /batch", s.recovered(s.handleBatch))
	s.mux.HandleFunc("POST /explore", s.recovered(s.handleExplore))
	s.mux.HandleFunc("POST /scrub", s.recovered(s.handleScrub))
	s.mux.HandleFunc("GET /healthz", s.recovered(s.handleHealthz))
	s.mux.HandleFunc("GET /stats", s.recovered(s.handleStats))
	return s, nil
}

// ServeHTTP dispatches to the service mux (so a Server can be mounted
// under httptest or a parent mux directly).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	s.mux.ServeHTTP(w, r)
}

// Start listens on addr (":0" picks a free port) and serves in the
// background. The bound address is returned so callers can dial it.
func (s *Server) Start(addr string) (net.Addr, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.hs = &http.Server{Handler: s}
	go s.hs.Serve(l)
	return l.Addr(), nil
}

// ListenAndServe serves on addr until Shutdown; it blocks like
// http.Server.ListenAndServe and returns http.ErrServerClosed after a
// graceful shutdown.
func (s *Server) ListenAndServe(addr string) error {
	s.hs = &http.Server{Addr: addr, Handler: s}
	return s.hs.ListenAndServe()
}

// Shutdown gracefully drains the server: listeners close immediately,
// in-flight requests run to completion (bounded by ctx), then Shutdown
// returns. Safe to call when the server was never started.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.hs == nil {
		return nil
	}
	return s.hs.Shutdown(ctx)
}

// Families lists the configured family names, sorted.
func (s *Server) Families() []string {
	out := make([]string, 0, len(s.configs))
	for name := range s.configs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// CacheStats snapshots the artifact cache counters.
func (s *Server) CacheStats() cache.Stats { return s.cache.Stats() }

// Disk exposes the persistent second-level cache (nil when disabled);
// the crash-restart suite and the stats endpoint read it.
func (s *Server) Disk() *cache.Disk { return s.disk }

// Hints exposes the placement hint store (nil when disabled); the
// edit-replay and crash-restart suites read it.
func (s *Server) Hints() *hintcache.Store { return s.hints }

// StageCache exposes the per-stage compilation memo (nil when
// disabled); the memoization and crash-restart suites read it.
func (s *Server) StageCache() *stagecache.Store { return s.stagec }

// ScrubDisk runs one integrity walk over the persistent disk cache at
// the given I/O rate (<=0 means the cache default). It reports ok=false
// without walking when the server runs with no disk tier. The
// -scrub-on-start flag and the POST /scrub endpoint both land here.
func (s *Server) ScrubDisk(ctx context.Context, bytesPerSec int64) (cache.ScrubReport, bool, error) {
	if s.disk == nil {
		return cache.ScrubReport{}, false, nil
	}
	rep, err := s.disk.Scrub(ctx, bytesPerSec)
	return rep, true, err
}

// handleScrub triggers a synchronous disk-cache integrity walk: 404
// when no disk tier is configured, otherwise the walk's report. Corrupt
// entries found are quarantined exactly as a corrupt Get would.
func (s *Server) handleScrub(w http.ResponseWriter, r *http.Request) {
	rep, ok, err := s.ScrubDisk(r.Context(), 0)
	if !ok {
		writeError(w, http.StatusNotFound, "no disk cache configured")
		return
	}
	if err != nil {
		writeTypedError(w, rerr.Wrap(rerr.Transient, "scrub_cancelled",
			"scrub walk cancelled before completion", err))
		return
	}
	writeJSON(w, http.StatusOK, ScrubResponse{
		Scanned: rep.Scanned, Corrupt: rep.Corrupt,
		Bytes: rep.Bytes, ElapsedMS: rep.Elapsed.Milliseconds(),
	})
}

// diskGet reads the second-level cache, if enabled. A read failure
// (including an injected cache/disk-read fault) is already degraded to a
// miss inside cache.Disk.
func (s *Server) diskGet(ctx context.Context, key cache.Key) (json.RawMessage, bool) {
	if s.disk == nil {
		return nil, false
	}
	return s.disk.Get(ctx, key)
}

// diskPut persists a rendered artifact, if the second level is enabled.
// Write failures (including injected cache/disk-write faults) are
// counted inside cache.Disk and never fail the compile that produced
// the artifact.
func (s *Server) diskPut(ctx context.Context, key cache.Key, rendered json.RawMessage) {
	if s.disk == nil {
		return
	}
	_ = s.disk.Put(ctx, key, rendered)
}

// recovered wraps a handler with panic isolation: a panic becomes a 500
// JSON error response instead of a dead connection, the same "one bad
// kernel never takes down the process" semantics the batch tier gives
// each worker. The body carries only the stable typed message — the
// panic value and stack stay in the process, never on the wire.
func (s *Server) recovered(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				writeTypedError(w, rerr.Wrap(rerr.Permanent, "internal_panic",
					"internal panic while handling the request",
					fmt.Errorf("panic: %v", rec)))
			}
		}()
		h(w, r)
	}
}

// admit applies admission control: a non-blocking semaphore acquire that
// sheds load past Options.MaxInFlight with a typed resource-exhausted
// error (429 + Retry-After on the wire) instead of queuing unboundedly.
// The returned release must be called when the request finishes.
func (s *Server) admit(ctx context.Context) (release func(), err error) {
	if ferr := FaultAdmission.Fire(ctx); ferr != nil {
		s.shed.Add(1)
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
		s.shed.Add(1)
		return nil, rerr.New(rerr.Exhausted, "admission_rejected",
			"server at capacity, retry later")
	}
}

// family resolves a request's family name to its config.
func (s *Server) family(name string) (string, *pipeline.Config, error) {
	if name == "" {
		name = s.opts.DefaultFamily
	}
	if name == "" {
		return "", nil, fmt.Errorf("no family requested and no default configured (have %v)", s.Families())
	}
	cfg, ok := s.configs[name]
	if !ok {
		return "", nil, fmt.Errorf("unknown family %q (have %v)", name, s.Families())
	}
	return name, cfg, nil
}

// deadline derives the compile context for a request: the request's own
// timeout_ms if positive, else the server default — and, when a routing
// tier stamped an X-Reticle-Deadline header, never later than that, so
// the cross-tier budget binds whichever is tighter. Always nested
// inside the connection context so client disconnects cancel compiles.
// A header deadline already in the past fails fast with a typed 504
// before any work starts.
func (s *Server) deadline(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc, error) {
	if timeoutMS < 0 {
		return nil, nil, fmt.Errorf("timeout_ms must be >= 0, got %d", timeoutMS)
	}
	if ferr := FaultDeadline.Fire(r.Context()); ferr != nil {
		return nil, nil, rerr.DeadlineBudget("deadline_exceeded",
			"cross-tier deadline budget exhausted before the request could start")
	}
	var headerDL time.Time
	if h := r.Header.Get(DeadlineHeader); h != "" {
		ms, err := strconv.ParseInt(h, 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("malformed %s header %q", DeadlineHeader, h)
		}
		headerDL = time.UnixMilli(ms)
		if !time.Now().Before(headerDL) {
			return nil, nil, rerr.DeadlineBudget("deadline_exceeded",
				"cross-tier deadline budget exhausted before the request could start")
		}
	}
	d := time.Duration(timeoutMS) * time.Millisecond
	if d == 0 {
		d = s.opts.DefaultTimeout
	}
	dl := headerDL
	if d > 0 {
		if own := time.Now().Add(d); dl.IsZero() || own.Before(dl) {
			dl = own
		}
	}
	if dl.IsZero() {
		return r.Context(), func() {}, nil
	}
	ctx, cancel := context.WithDeadline(r.Context(), dl)
	return ctx, cancel, nil
}

// writeDeadlineError renders a deadline() failure: typed budget errors
// (an expired cross-tier header, an armed server/deadline fault) keep
// their taxonomy status (504), plain validation failures are 400s.
func writeDeadlineError(w http.ResponseWriter, err error) {
	var te *rerr.Error
	if errors.As(err, &te) {
		writeTypedError(w, err)
		return
	}
	writeError(w, http.StatusBadRequest, err.Error())
}

// decode reads a size-limited JSON body into dst, distinguishing
// oversized bodies (413) from malformed ones (400).
func (s *Server) decode(w http.ResponseWriter, r *http.Request, dst any) (int, error) {
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit)
		}
		return http.StatusBadRequest, fmt.Errorf("request: %w", err)
	}
	return 0, nil
}

// countCompile folds finished pipeline work — one compile or a batch's
// totals — into the cumulative /stats counters.
func (s *Server) countCompile(stages pipeline.StageTimes, ps pipeline.PlaceStats, skipped int) {
	s.stageMu.Lock()
	s.stages.Add(stages)
	s.place.Add(ps)
	s.stageMu.Unlock()
	s.stageSkips.Add(int64(skipped))
}

// compileKernel runs one kernel through cache + pipeline under its
// artifact key (cache.KeyFor(cfg, f), hashed once by the caller),
// maintaining the in-flight gauge and cumulative stage times.
func (s *Server) compileKernel(ctx context.Context, cfg *pipeline.Config, key cache.Key, f *ir.Func) (cachedArtifact, bool, error) {
	// A degraded (fallback-placed or shrink-truncated) artifact is served
	// to the requester that paid for it but never published to the cache:
	// the next request gets a fresh shot at the full solver. The keep
	// predicate enforces that atomically inside the fill path — an
	// add-then-remove would briefly serve the degraded artifact as a hit
	// to concurrent requests.
	keep := func(ca cachedArtifact) bool { return ca.art == nil || !ca.art.Degraded }
	diskServed := false
	ca, hit, err := s.cache.GetOrComputeKeep(ctx, key, func() (cachedArtifact, error) {
		// Second level: an artifact persisted by an earlier run (or an
		// earlier process — the disk cache survives restarts) is promoted
		// back into the LRU without touching the pipeline. Disk-served
		// entries carry no in-memory Artifact (art == nil), which the keep
		// predicate treats as publishable: only non-degraded artifacts are
		// ever persisted.
		if data, ok := s.diskGet(ctx, key); ok {
			diskServed = true
			return cachedArtifact{rendered: data}, nil
		}
		if onCompileStart != nil {
			onCompileStart()
		}
		s.kernels.Add(1)
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		art, err := pipeline.Compile(ctx, cfg, f)
		if err != nil {
			return cachedArtifact{}, err
		}
		s.countCompile(art.Stages, art.Place, art.StagesSkipped)
		ca := render(art)
		if !art.Degraded {
			s.diskPut(ctx, key, ca.rendered)
		}
		return ca, nil
	}, keep)
	return ca, hit || diskServed, err
}

// compileStatus maps a typed pipeline/cache error to an HTTP status.
// The policy lives in rerr.HTTPStatus so the shard router renders the
// same taxonomy the same way.
func compileStatus(err error) int { return rerr.HTTPStatus(err) }

// writeTypedError renders err through the taxonomy: stable message and
// machine-readable code only (never internal fmt chains or paths), with
// Retry-After set on the statuses a client should back off and retry.
func writeTypedError(w http.ResponseWriter, err error) {
	status := compileStatus(err)
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, ErrorResponse{
		Error:     rerr.Message(err),
		Code:      status,
		ErrorCode: rerr.CodeOf(err),
		Class:     rerr.ClassOf(err).String(),
	})
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	release, err := s.admit(r.Context())
	if err != nil {
		writeTypedError(w, err)
		return
	}
	defer release()
	if err := FaultCompile.Fire(r.Context()); err != nil {
		writeTypedError(w, err)
		return
	}
	var req CompileRequest
	if code, err := s.decode(w, r, &req); err != nil {
		writeError(w, code, err.Error())
		return
	}
	famName, cfg, err := s.family(req.Family)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	// Exact-text fast path: byte-identical source under the same family
	// keys the same artifact, so a resident entry is served without
	// parsing. Misses (first sight of this text, or the artifact was
	// evicted) take the canonical slow path below.
	tk := textKey(famName, req.IR)
	if te, ok := s.texts.Peek(tk); ok {
		if ca, ok := s.cache.Peek(te.key); ok {
			name := req.Name
			if name == "" {
				name = te.name
			}
			writeJSON(w, http.StatusOK, compileResponseWire{
				Name:     name,
				Family:   famName,
				Cache:    "hit",
				Key:      string(te.key),
				Artifact: ca.rendered,
			})
			return
		}
	}

	f, err := ir.Parse(req.IR)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("parse: %v", err))
		return
	}
	ctx, cancel, err := s.deadline(r, req.TimeoutMS)
	if err != nil {
		writeDeadlineError(w, err)
		return
	}
	defer cancel()

	key := cache.KeyFor(cfg, f)
	s.texts.Add(tk, textEntry{key: key, name: f.Name})
	ca, hit, err := s.compileKernel(ctx, cfg, key, f)
	if err != nil {
		writeTypedError(w, err)
		return
	}
	resp := compileResponseWire{
		Name:     req.Name,
		Family:   famName,
		Cache:    cacheStatus(hit),
		Key:      string(key),
		Artifact: ca.rendered,
	}
	if resp.Name == "" {
		resp.Name = f.Name
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	release, err := s.admit(r.Context())
	if err != nil {
		writeTypedError(w, err)
		return
	}
	defer release()
	if err := FaultBatch.Fire(r.Context()); err != nil {
		writeTypedError(w, err)
		return
	}
	var req BatchRequest
	if code, err := s.decode(w, r, &req); err != nil {
		writeError(w, code, err.Error())
		return
	}
	famName, cfg, err := s.family(req.Family)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(req.Kernels) == 0 {
		writeError(w, http.StatusBadRequest, "batch: no kernels")
		return
	}
	jobs := req.Jobs
	if jobs == 0 {
		jobs = s.opts.Jobs
	}
	opts := batch.Options{Jobs: jobs, KernelTimeout: time.Duration(req.TimeoutMS) * time.Millisecond}
	if err := opts.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	ctx, cancel, err := s.deadline(r, 0) // overall deadline: server default
	if err != nil {
		writeDeadlineError(w, err)
		return
	}
	defer cancel()

	prep := s.prepBatch(ctx, cfg, req.Kernels)

	if req.Stream || r.Header.Get("Accept") == ndjsonContentType {
		s.streamBatch(ctx, w, famName, cfg, prep, opts)
		return
	}

	var stats batch.Stats
	var batchResults []batch.Result
	if len(prep.missJobs) > 0 {
		s.inflight.Add(int64(len(prep.missJobs)))
		s.kernels.Add(int64(len(prep.missJobs)))
		batchResults, stats, err = batch.Compile(ctx, cfg, prep.missJobs, opts)
		s.inflight.Add(-int64(len(prep.missJobs)))
		if err != nil {
			writeTypedError(w, err)
			return
		}
		s.countCompile(stats.Stages, stats.Place, stats.StagesSkipped)
	}

	results := prep.results
	published := make(map[cache.Key]bool, len(prep.missJobs))
	succeeded, failed, degraded := 0, 0, 0
	for i := range results {
		if results[i].Cache == "miss" {
			br := batchResults[prep.missIdx[prep.keys[i]]]
			if br.Ok() {
				ca := render(br.Artifact)
				// Degraded artifacts go to the requester, not the cache —
				// neither tier of it (see handleCompile).
				if !br.Artifact.Degraded {
					if !published[prep.keys[i]] {
						published[prep.keys[i]] = true
						s.cache.Add(prep.keys[i], ca)
						s.diskPut(ctx, prep.keys[i], ca.rendered)
					}
				} else {
					degraded++
				}
				results[i].OK = true
				results[i].Artifact = ca.rendered
			} else {
				// Per-kernel failures cross the wire as the typed stable
				// message and code only — never raw fmt.Errorf chains.
				results[i].Error = rerr.Message(br.Err)
				results[i].ErrorCode = rerr.CodeOf(br.Err)
			}
		}
		if results[i].OK {
			succeeded++
		} else {
			failed++
		}
	}
	writeJSON(w, http.StatusOK, batchResponseWire{
		Family:  famName,
		Results: results,
		Stats: BatchStatsJSON{
			Kernels:       len(results),
			Succeeded:     succeeded,
			Failed:        failed,
			Compiled:      len(prep.missJobs),
			WallNS:        stats.Wall.Nanoseconds(),
			KernelsPerSec: stats.KernelsPerSec,
			Degraded:      degraded,
			Retried:       stats.Retried,
			StagesSkipped: stats.StagesSkipped,
		},
	})
}

// batchPrep is the cache-checked plan for one /batch request, shared by
// the buffered and streaming emitters: per-kernel wire results with
// parse failures and cache hits already resolved, plus the deduped list
// of kernels that must actually compile.
type batchPrep struct {
	results  []batchKernelResultWire
	keys     []cache.Key
	missJobs []batch.Job
	missIdx  map[cache.Key]int // key -> index into missJobs
}

// prepBatch parses every kernel (per-kernel errors never fail the
// batch), resolves cache hits through both tiers (memory LRU first,
// then the persistent disk cache, promoting disk hits into the LRU),
// and dedupes the remaining misses by key, so a batch of N identical
// kernels compiles once, like N concurrent /compile calls would.
func (s *Server) prepBatch(ctx context.Context, cfg *pipeline.Config, kernels []BatchKernel) batchPrep {
	prep := batchPrep{
		results: make([]batchKernelResultWire, len(kernels)),
		keys:    make([]cache.Key, len(kernels)),
		missIdx: map[cache.Key]int{},
	}
	for i, k := range kernels {
		name := k.Name
		f, perr := ir.Parse(k.IR)
		if perr == nil && name == "" {
			name = f.Name
		}
		prep.results[i] = batchKernelResultWire{Name: name}
		if perr != nil {
			prep.results[i].Error = fmt.Sprintf("parse: %v", perr)
			prep.results[i].ErrorCode = "parse_failed"
			continue
		}
		key := cache.KeyFor(cfg, f)
		prep.keys[i] = key
		if ca, ok := s.cache.Get(key); ok {
			prep.results[i].Cache = "hit"
			prep.results[i].OK = true
			prep.results[i].Artifact = ca.rendered
			continue
		}
		if data, ok := s.diskGet(ctx, key); ok {
			s.cache.Add(key, cachedArtifact{rendered: data})
			prep.results[i].Cache = "hit"
			prep.results[i].OK = true
			prep.results[i].Artifact = data
			continue
		}
		prep.results[i].Cache = "miss"
		if _, queued := prep.missIdx[key]; !queued {
			prep.missIdx[key] = len(prep.missJobs)
			prep.missJobs = append(prep.missJobs, batch.Job{Name: name, Func: f})
		}
	}
	return prep
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:   "ok",
		UptimeMS: time.Since(s.start).Milliseconds(),
		Families: s.Families(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	cs := s.cache.Stats()
	s.stageMu.Lock()
	st := s.stages
	ps := s.place
	s.stageMu.Unlock()
	var disk *DiskStatsJSON
	if s.disk != nil {
		dj := DiskStatsJSONFrom(s.disk.Stats())
		disk = &dj
	}
	var hints *HintCacheStatsJSON
	if s.hints != nil {
		hj := hintCacheJSON(s.hints.Stats())
		hints = &hj
	}
	var stagec *StageCacheStatsJSON
	if s.stagec != nil {
		sj := stageCacheJSON(s.stagec.Stats(), s.stageSkips.Load())
		stagec = &sj
	}
	writeJSON(w, http.StatusOK, StatsResponse{
		Requests:        s.requests.Load(),
		Kernels:         s.kernels.Load(),
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
		Disk:       disk,
		Stages:     stageJSON(st),
		Place:      placeJSON(ps),
		HintCache:  hints,
		StageCache: stagec,
		Mem:        MemStatsJSONNow(),
		Explore: ExploreTotalsJSON{
			Sweeps:           s.exploreSweeps.Load(),
			Variants:         s.exploreVariants.Load(),
			VariantCacheHits: s.exploreHits.Load(),
			Partial:          s.explorePartial.Load(),
		},
	})
}

func cacheStatus(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, ErrorResponse{Error: msg, Code: code})
}
