package server

import (
	"runtime"

	"reticle/internal/cache"
	"reticle/internal/explore"
	"reticle/internal/hintcache"
	"reticle/internal/pipeline"
	"reticle/internal/stagecache"
)

// CompileRequest is the POST /compile body.
type CompileRequest struct {
	// Name labels the response; empty defaults to the parsed function name.
	Name string `json:"name,omitempty"`
	// Family selects the target config ("ultrascale", "agilex"); empty
	// means the server's default family.
	Family string `json:"family,omitempty"`
	// IR is the kernel source text (Fig. 5a syntax).
	IR string `json:"ir"`
	// TimeoutMS bounds this compile; 0 means the server default, negative
	// is a 400.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// ArtifactJSON is the wire form of a completed compilation. Asm, Placed,
// and Verilog are the exact bytes serial reticle.Compile renders — the
// service suite asserts byte equality.
type ArtifactJSON struct {
	Asm     string `json:"asm"`
	Placed  string `json:"placed"`
	Verilog string `json:"verilog"`

	LUTs    int `json:"luts"`
	DSPs    int `json:"dsps"`
	FFs     int `json:"ffs"`
	Carries int `json:"carries"`

	CriticalNs float64 `json:"critical_ns"`
	FMaxMHz    float64 `json:"fmax_mhz"`

	// CompileNS and Stages are the wall times of the compile that
	// produced the artifact; on a cache hit they describe the original
	// compile, not this request.
	CompileNS     int64      `json:"compile_ns"`
	Stages        StagesJSON `json:"stages"`
	CascadeChains int        `json:"cascade_chains"`
	SolverSteps   int        `json:"solver_steps"`

	// Shrink-pass solver counters (see pipeline.PlaceStats): probes that
	// ran the solver, probes answered by revalidating the previous
	// solution, and warm-start hint effectiveness. Zero (omitted) for
	// configs without Shrink.
	ShrinkProbes  int `json:"shrink_probes,omitempty"`
	ProbesSkipped int `json:"probes_skipped,omitempty"`
	HintHits      int `json:"hint_hits,omitempty"`
	HintTried     int `json:"hint_tried,omitempty"`

	// Cross-request hint cache (see internal/hintcache): WarmStart is
	// "adopted" when placement took a recorded solution outright,
	// HintCacheHits is 1 for such compiles, and HintCacheStepsSaved is
	// the cold solver steps the adoption avoided. All omitted for cold
	// compiles, so pre-hint-cache artifact JSON is byte-unchanged.
	WarmStart           string `json:"warm_start,omitempty"`
	HintCacheHits       int    `json:"hint_cache_hits,omitempty"`
	HintCacheStepsSaved int    `json:"hint_cache_steps_saved,omitempty"`

	// Degraded marks an artifact placed by the greedy fallback after the
	// solver exhausted its budget: valid (satcheck-verified) but
	// unoptimized, and never served from cache. DegradedReason says which
	// budget ran out.
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degraded_reason,omitempty"`
}

// StagesJSON breaks a compile (or a cumulative total) into per-stage
// wall time, in nanoseconds.
type StagesJSON struct {
	SelectNS  int64 `json:"select_ns"`
	CascadeNS int64 `json:"cascade_ns"`
	PlaceNS   int64 `json:"place_ns"`
	CodegenNS int64 `json:"codegen_ns"`
	TimingNS  int64 `json:"timing_ns"`
}

// CompileResponse is the POST /compile success body.
type CompileResponse struct {
	Name   string `json:"name"`
	Family string `json:"family"`
	// Cache is "hit" when the artifact was served without running the
	// pipeline for this request (resident entry or coalesced onto an
	// in-flight compile), "miss" when this request compiled it.
	Cache string `json:"cache"`
	// Key is the content-addressed cache key (hex SHA-256 over the
	// canonical IR hash and the config fingerprint).
	Key      string       `json:"key"`
	Artifact ArtifactJSON `json:"artifact"`
}

// CompileResponseWire is the serving-side mirror of CompileResponse: the
// artifact rides as pre-rendered bytes (marshaled once at cache-insert
// time), which AppendJSON copies into the envelope, so hits skip
// re-encoding and the shard router relays and persists backend bytes
// untouched. The emitted JSON is identical to marshaling a
// CompileResponse; encoding/json itself cannot see the artifact.
type CompileResponseWire struct {
	Name     string `json:"name"`
	Family   string `json:"family"`
	Cache    string `json:"cache"`
	Key      string `json:"key"`
	Artifact []byte `json:"-"`
}

// BatchKernel is one kernel in a POST /batch body.
type BatchKernel struct {
	Name string `json:"name,omitempty"`
	IR   string `json:"ir"`
}

// BatchRequest is the POST /batch body.
type BatchRequest struct {
	Family string `json:"family,omitempty"`
	// Jobs bounds worker goroutines; 0 means the server default,
	// negative is a 400 (batch.ErrInvalidJobs).
	Jobs int `json:"jobs,omitempty"`
	// TimeoutMS is the per-kernel compile deadline; 0 means none,
	// negative is a 400 (batch.ErrInvalidTimeout).
	TimeoutMS int64         `json:"timeout_ms,omitempty"`
	Kernels   []BatchKernel `json:"kernels"`
	// Stream selects the chunked NDJSON response framing (equivalent to
	// sending "Accept: application/x-ndjson"): one result line per
	// kernel, flushed in submission order as kernels complete, then a
	// footer line {"family":...,"stats":{...}}. Large sweeps stream at
	// worker-pool pace instead of buffering the whole result set.
	Stream bool `json:"stream,omitempty"`
}

// BatchKernelResult is one kernel's outcome, at its submission index.
type BatchKernelResult struct {
	Name string `json:"name"`
	OK   bool   `json:"ok"`
	// Cache is "hit"/"miss"; empty when the kernel failed to parse.
	Cache string `json:"cache,omitempty"`
	Error string `json:"error,omitempty"`
	// ErrorCode is the stable machine-readable failure identifier for a
	// failed kernel (see ErrorResponse.ErrorCode).
	ErrorCode string       `json:"error_code,omitempty"`
	Artifact  ArtifactJSON `json:"artifact,omitempty"`
}

// BatchKernelResultWire mirrors BatchKernelResult with pre-rendered
// artifact bytes; kernels that failed (no artifact) omit the field, which
// clients decode as a zero ArtifactJSON. Frame writes the response around
// these, in either framing, through AppendJSON.
type BatchKernelResultWire struct {
	Name      string `json:"name"`
	OK        bool   `json:"ok"`
	Cache     string `json:"cache,omitempty"`
	Error     string `json:"error,omitempty"`
	ErrorCode string `json:"error_code,omitempty"`
	Artifact  []byte `json:"-"`
}

// BatchStatsJSON aggregates a /batch run.
type BatchStatsJSON struct {
	Kernels   int `json:"kernels"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
	// Compiled counts kernels that went through the pipeline (the rest
	// were cache hits or parse failures).
	Compiled      int     `json:"compiled"`
	WallNS        int64   `json:"wall_ns"`
	KernelsPerSec float64 `json:"kernels_per_sec"`
	// Degraded counts kernels served with a fallback-placed artifact;
	// Retried counts extra compile attempts spent on transient failures.
	Degraded int `json:"degraded,omitempty"`
	Retried  int `json:"retried,omitempty"`
	// StagesSkipped totals pipeline stages served from the stage memo
	// across the batch's compiled kernels (cross-kernel sharing).
	StagesSkipped int `json:"stages_skipped,omitempty"`
}

// BatchResponse is the POST /batch success body.
type BatchResponse struct {
	Family  string              `json:"family"`
	Results []BatchKernelResult `json:"results"`
	Stats   BatchStatsJSON      `json:"stats"`
}

// ErrorResponse is every non-2xx body. Error and ErrorCode are stable
// wire strings built from the typed taxonomy (internal/rerr) — internal
// fmt.Errorf chains, file paths, and panic traces never appear here.
type ErrorResponse struct {
	Error string `json:"error"`
	Code  int    `json:"code"`
	// ErrorCode is the stable machine-readable failure identifier
	// ("deadline_exceeded", "placement_unsat", "admission_rejected", ...).
	ErrorCode string `json:"error_code,omitempty"`
	// Class is the retry semantics: "transient", "permanent",
	// "resource-exhausted", or "unknown".
	Class string `json:"class,omitempty"`
	// Name is the kernel's, as its success body would carry it, when an
	// admitted /compile fails: a routing tier relays it into the /batch
	// result of a kernel sent unnamed.
	Name string `json:"name,omitempty"`
}

// HealthResponse is the GET /healthz body. A routing tier's lists its
// backends' liveness too; a backend's has no backends member.
type HealthResponse struct {
	Status   string          `json:"status"`
	UptimeMS int64           `json:"uptime_ms"`
	Families []string        `json:"families"`
	Backends []BackendHealth `json:"backends,omitempty"`
}

// BackendHealth is one backend's liveness as a routing tier sees it, plus
// its circuit-breaker state ("closed", "open", "half-open").
type BackendHealth struct {
	URL     string `json:"url"`
	Alive   bool   `json:"alive"`
	Breaker string `json:"breaker"`
}

// CacheStatsJSON is the cache section of GET /stats.
type CacheStatsJSON struct {
	Entries    int     `json:"entries"`
	MaxEntries int     `json:"max_entries"`
	Hits       uint64  `json:"hits"`
	Misses     uint64  `json:"misses"`
	Coalesced  uint64  `json:"coalesced"`
	Evictions  uint64  `json:"evictions"`
	Computes   uint64  `json:"computes"`
	InFlight   int     `json:"in_flight"`
	HitRate    float64 `json:"hit_rate"`
}

// Sections declared once, where they are produced: the store sections of
// GET /stats are the stores' own counter snapshots, its place section is
// the pipeline's solver counters summed, and an /explore score is the
// sweep's own. DiskStatsJSON is present only when the server runs with a
// disk cache; its counters reset with the process, the artifacts do not.
type (
	DiskStatsJSON        = cache.DiskStats
	HintCacheStatsJSON   = hintcache.Stats
	StageCounterJSON     = stagecache.StageStats
	PlaceStatsJSON       = pipeline.PlaceStats
	ExploreMetrics       = explore.Metrics
	ExploreFrontierPoint = explore.FrontierPoint
)

// ScrubResponse is the POST /scrub body: one completed integrity walk.
type ScrubResponse struct {
	Scanned   int   `json:"scanned"`
	Corrupt   int   `json:"corrupt"`
	Bytes     int64 `json:"bytes"`
	ElapsedMS int64 `json:"elapsed_ms"`
}

// StageCacheStatsJSON is the per-stage compilation memo section of GET
// /stats. Lookups happen only on artifact-cache misses, so the
// per-stage hit/miss sums track compiled kernels, not requests.
type StageCacheStatsJSON struct {
	Entries    int `json:"entries"`
	MaxEntries int `json:"max_entries"`
	// StagesSkipped totals pipeline stages served from the memo instead
	// of recomputing, across /compile, /batch, and /explore (an
	// output-stage hit skips both codegen and timing, so it counts 2).
	StagesSkipped int64            `json:"stages_skipped"`
	Select        StageCounterJSON `json:"select"`
	Cascade       StageCounterJSON `json:"cascade"`
	Place         StageCounterJSON `json:"place"`
	Output        StageCounterJSON `json:"output"`
}

// StageCacheTotalsJSON is the flattened stage-memo sum the shard router
// aggregates across backends.
type StageCacheTotalsJSON struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Stores        uint64 `json:"stores"`
	Bytes         int64  `json:"bytes"`
	StagesSkipped int64  `json:"stages_skipped"`
}

// Totals flattens the per-stage counters for tier-level aggregation.
func (j StageCacheStatsJSON) Totals() StageCacheTotalsJSON {
	t := StageCacheTotalsJSON{StagesSkipped: j.StagesSkipped}
	for _, s := range []StageCounterJSON{j.Select, j.Cascade, j.Place, j.Output} {
		t.Hits += s.Hits
		t.Misses += s.Misses
		t.Stores += s.Stores
		t.Bytes += s.Bytes
	}
	return t
}

// MemStatsJSON is the runtime memory/GC snapshot section of GET /stats
// (both the compile service and the shard router report one), so cache
// sizing and stage-memo wins are attributable against live heap and GC
// pressure without attaching a profiler. For the full picture, run with
// -pprof and scrape /debug/pprof.
type MemStatsJSON struct {
	HeapAllocBytes  uint64  `json:"heap_alloc_bytes"`
	HeapSysBytes    uint64  `json:"heap_sys_bytes"`
	HeapObjects     uint64  `json:"heap_objects"`
	TotalAllocBytes uint64  `json:"total_alloc_bytes"`
	Mallocs         uint64  `json:"mallocs"`
	Frees           uint64  `json:"frees"`
	NumGC           uint32  `json:"num_gc"`
	GCPauseTotalNS  uint64  `json:"gc_pause_total_ns"`
	GCCPUFraction   float64 `json:"gc_cpu_fraction"`
	NextGCBytes     uint64  `json:"next_gc_bytes"`
	Goroutines      int     `json:"goroutines"`
}

// StatsResponse is the GET /stats body.
type StatsResponse struct {
	Requests        int64          `json:"requests"`
	Kernels         int64          `json:"kernels"`
	InFlightKernels int64          `json:"in_flight_kernels"`
	UptimeMS        int64          `json:"uptime_ms"`
	Families        []string       `json:"families"`
	Cache           CacheStatsJSON `json:"cache"`
	Disk            *DiskStatsJSON `json:"disk,omitempty"`
	Stages          StagesJSON     `json:"stages"`
	// Place totals the placement solver counters across every compiled
	// kernel (cache hits excluded, like Stages).
	Place PlaceStatsJSON `json:"place"`
	// HintCache snapshots the placement hint store; every server has one.
	HintCache *HintCacheStatsJSON `json:"hint_cache,omitempty"`
	// StageCache snapshots the per-stage compilation memo; every server
	// has one.
	StageCache *StageCacheStatsJSON `json:"stage_cache,omitempty"`
	// Mem is a point-in-time runtime.MemStats/GC snapshot.
	Mem MemStatsJSON `json:"mem"`
	// Explore accumulates /explore sweep counters.
	Explore ExploreTotalsJSON `json:"explore"`
}

// artifactJSON renders an artifact for the wire.
func artifactJSON(a *pipeline.Artifact) ArtifactJSON {
	return ArtifactJSON{
		Asm:            a.AsmText,
		Placed:         a.PlacedText,
		Verilog:        a.Verilog,
		LUTs:           a.LUTs,
		DSPs:           a.DSPs,
		FFs:            a.FFs,
		Carries:        a.Carries,
		CriticalNs:     a.CriticalNs,
		FMaxMHz:        a.FMaxMHz,
		CompileNS:      a.CompileDur.Nanoseconds(),
		Stages:         stageJSON(a.Stages),
		CascadeChains:  a.CascadeChains,
		SolverSteps:    a.Place.SolverSteps,
		ShrinkProbes:   a.Place.ShrinkProbes,
		ProbesSkipped:  a.Place.ProbesSkipped,
		HintHits:       a.Place.HintHits,
		HintTried:      a.Place.HintTried,
		WarmStart:      a.WarmStart,
		Degraded:       a.Degraded,
		DegradedReason: a.DegradedReason,

		HintCacheHits:       a.Place.HintCacheHits,
		HintCacheStepsSaved: a.Place.HintCacheStepsSaved,
	}
}

// stageCacheJSON renders the stage memo snapshot for the wire. skips is
// the fold's stages-skipped total — what compileKernel copied off each
// artifact it compiled — not a store counter: the store counts lookups,
// the server counts stages it did not recompute.
func stageCacheJSON(st stagecache.Stats, skips int64) StageCacheStatsJSON {
	return StageCacheStatsJSON{
		Entries:       st.Entries,
		MaxEntries:    st.MaxEntries,
		StagesSkipped: skips,
		Select:        st.Select,
		Cascade:       st.Cascade,
		Place:         st.Place,
		Output:        st.Output,
	}
}

// MemStatsJSONNow snapshots the Go runtime for the wire; the shard
// router reuses it for its own mem section.
func MemStatsJSONNow() MemStatsJSON {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return MemStatsJSON{
		HeapAllocBytes:  ms.HeapAlloc,
		HeapSysBytes:    ms.HeapSys,
		HeapObjects:     ms.HeapObjects,
		TotalAllocBytes: ms.TotalAlloc,
		Mallocs:         ms.Mallocs,
		Frees:           ms.Frees,
		NumGC:           ms.NumGC,
		GCPauseTotalNS:  ms.PauseTotalNs,
		GCCPUFraction:   ms.GCCPUFraction,
		NextGCBytes:     ms.NextGC,
		Goroutines:      runtime.NumGoroutine(),
	}
}

// stageJSON renders stage times for the wire.
func stageJSON(st pipeline.StageTimes) StagesJSON {
	return StagesJSON{
		SelectNS:  st.Select.Nanoseconds(),
		CascadeNS: st.Cascade.Nanoseconds(),
		PlaceNS:   st.Place.Nanoseconds(),
		CodegenNS: st.Codegen.Nanoseconds(),
		TimingNS:  st.Timing.Nanoseconds(),
	}
}

// ExploreRequest is the POST /explore body: one kernel whose
// annotation/configuration variants the server sweeps through the
// batch tier, returning every variant's score plus the Pareto frontier.
type ExploreRequest struct {
	// Name labels the response; empty defaults to the parsed function name.
	Name string `json:"name,omitempty"`
	// Family selects the target config; empty means the server default.
	Family string `json:"family,omitempty"`
	// IR is the kernel source text.
	IR string `json:"ir"`
	// TimeoutMS bounds the whole sweep; 0 means the server default,
	// negative is a 400.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Jobs bounds concurrent variant compiles; 0 means the server
	// default, negative is a 400.
	Jobs int `json:"jobs,omitempty"`
	// MaxVariants bounds the variant lattice; 0 means the default
	// (explore.DefaultMaxVariants), negative is a 400. Values past the
	// server's -explore-variants cap are clamped, not rejected.
	MaxVariants int `json:"max_variants,omitempty"`
	// Stream selects the chunked NDJSON framing (equivalent to sending
	// "Accept: application/x-ndjson"): one line per variant in lattice
	// order as compiles finish, then a footer with frontier + stats.
	Stream bool `json:"stream,omitempty"`
}

// ExploreVariant is one variant's outcome, at its lattice position.
// Only deterministic fields appear — cache attribution and durations
// live in ExploreStatsJSON — so a cold sweep, a warm sweep, and a
// parallel sweep serialize to identical bytes.
type ExploreVariant struct {
	ID   string `json:"id"`
	Desc string `json:"desc,omitempty"`
	OK   bool   `json:"ok"`
	// Degraded marks a budget-truncated placement: scored and reported,
	// but excluded from the frontier (its layout is wall-clock-dependent).
	Degraded  bool            `json:"degraded,omitempty"`
	Error     string          `json:"error,omitempty"`
	ErrorCode string          `json:"error_code,omitempty"`
	Metrics   *ExploreMetrics `json:"metrics,omitempty"`
}

// ExploreStatsJSON aggregates one sweep.
type ExploreStatsJSON struct {
	Variants  int `json:"variants"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed,omitempty"`
	Degraded  int `json:"degraded,omitempty"`
	// CacheHits counts variants served from a cache tier (memory or
	// disk) instead of compiling.
	CacheHits int `json:"cache_hits"`
	// StagesSkipped totals pipeline stages served from the stage memo
	// across the sweep's compiled variants (shared-prefix forking);
	// whole-artifact cache hits count in CacheHits, not here.
	StagesSkipped  int     `json:"stages_skipped,omitempty"`
	Retried        int     `json:"retried,omitempty"`
	WallNS         int64   `json:"wall_ns"`
	VariantsPerSec float64 `json:"variants_per_sec"`
}

// ExploreResponse is the POST /explore success body. Partial marks a
// sweep where some variants failed (e.g. transient faults that outlived
// the retry budget): the frontier covers the survivors.
type ExploreResponse struct {
	Name     string                 `json:"name"`
	Family   string                 `json:"family"`
	Variants []ExploreVariant       `json:"variants"`
	Frontier []ExploreFrontierPoint `json:"frontier"`
	Partial  bool                   `json:"partial"`
	Stats    ExploreStatsJSON       `json:"stats"`
}

// ExploreTotalsJSON is the cumulative explore section of GET /stats.
type ExploreTotalsJSON struct {
	Sweeps           int64 `json:"sweeps"`
	Variants         int64 `json:"variants"`
	VariantCacheHits int64 `json:"variant_cache_hits"`
	Partial          int64 `json:"partial"`
}

// Add sums o into e: sweeps of one tier into its fold, or backends'
// sections into the router's aggregate.
func (e *ExploreTotalsJSON) Add(o ExploreTotalsJSON) {
	e.Sweeps += o.Sweeps
	e.Variants += o.Variants
	e.VariantCacheHits += o.VariantCacheHits
	e.Partial += o.Partial
}
