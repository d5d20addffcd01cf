package server

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"reticle/internal/batch"
	"reticle/internal/cache"
	"reticle/internal/hintcache"
	"reticle/internal/ir"
	"reticle/internal/pipeline"
	"reticle/internal/stagecache"
)

// backend is a compile server's Resolver: every kernel is resolved here,
// through the artifact store — memory, then disk, then one pipeline run
// shared by every concurrent request for its key.
type backend struct {
	cache    *cache.Store[cachedArtifact]
	texts    *cache.Cache[textEntry]
	hints    *hintcache.Store  // placement hint store
	stagec   *stagecache.Store // per-stage compilation memo
	families []string
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

// outcome is the entry's kernel served with artifact wire.
func (te textEntry) outcome(hit bool, wire []byte) Outcome {
	return Outcome{CompileResponseWire: CompileResponseWire{
		Name: te.name, Family: te.family, Cache: cacheStatus(hit), Key: string(te.key), Artifact: wire,
	}}
}

// Memo serves a byte-identical body's resident artifact, keyed by the
// body's SHA-256: the memo lives in memory only, so the key is the
// digest's raw bytes. A malformed or spent deadline header misses, for
// the front door to refuse, without hashing the body; so do the first
// sight of a body and an artifact evicted since, handing back the body's
// key for Compile to record.
func (b *backend) Memo(acct *Account, body []byte, h http.Header) (Outcome, cache.Key, bool) {
	if _, err := headerDeadline(h); err != nil {
		return Outcome{}, "", false
	}
	sum := sha256.Sum256(body)
	if te, ok := b.texts.Peek(cache.Key(sum[:])); ok {
		if ca, ok := b.cache.Peek(te.key); ok {
			acct.Tier, acct.Key = "memory", string(te.key)
			return te.outcome(true, ca.wire), "", true
		}
	}
	return Outcome{}, cache.Key(sum[:]), false // a string of its own only on a miss, which records it
}

func (b *backend) Lookup(ctx context.Context, k Kernel) (CompileResponseWire, bool) {
	ca, ok := b.cache.Lookup(ctx, k.Key)
	return CompileResponseWire{Name: k.Name, Artifact: ca.wire}, ok
}

// Compile memoizes the body under the key Memo handed back before
// compiling its kernel, so the next identical body is a memo hit once the
// artifact is resident.
func (b *backend) Compile(ctx context.Context, acct *Account, q *Request) Outcome {
	k := &q.Kernels[0]
	// A parsed name is a substring of the decoded IR: cloned, the memo
	// entry does not keep the whole request alive.
	te := textEntry{key: k.Key, name: strings.Clone(k.Name), family: q.Family}
	b.texts.Add(q.memoKey, te)
	ca, lvl, err := b.compileKernel(ctx, acct, q.Config, k.Key, k.Func, &k.Syms)
	if err != nil {
		return Outcome{Err: err}
	}
	return te.outcome(lvl != cache.Computed, ca.wire)
}

// Batch sends each distinct miss through the worker pool (per-kernel
// timeout, retries, panic isolation) into compileKernel — so a kernel
// costs one compile however many requests of whatever kind carry it at
// once. The footer's wall time, rate and retries are the pool's.
func (b *backend) Batch(ctx context.Context, cancel context.CancelFunc, w http.ResponseWriter, _ *Account, plan *BatchPlan) error {
	// [j] is written by miss j's worker and read once its result is final.
	compiled := make([]cachedArtifact, len(plan.Misses))
	jobs := make([]batch.Job, len(plan.Misses))
	for j, m := range plan.Misses {
		jobs[j] = batch.Job{Name: m.Name, Func: m.Func,
			Compile: func(kctx context.Context) (*pipeline.Artifact, error) {
				ca, _, err := b.compileKernel(kctx, &plan.Subs[j], plan.Config, m.Key, m.Func, m.Syms)
				if err != nil {
					return nil, err
				}
				compiled[j] = ca
				return ca.artifact(), nil
			}}
	}
	run, err := batch.Begin(ctx, plan.Config, jobs, plan.Options)
	if err != nil {
		return err
	}
	plan.Answer(w, cancel, func(j int) Outcome {
		if br := run.Result(j); !br.Ok() {
			return Outcome{Err: br.Err}
		}
		return Outcome{CompileResponseWire: CompileResponseWire{Artifact: compiled[j].wire}, Degraded: compiled[j].sum.Degraded}
	}, func(st *BatchStatsJSON) {
		_, stats := run.Finish()
		st.WallNS, st.KernelsPerSec, st.Retried = stats.Wall.Nanoseconds(), stats.KernelsPerSec, stats.Retried
	})
	return nil
}

func (b *backend) Backends() []BackendHealth { return nil }

func (b *backend) Start() {}

func (b *backend) Stop() {}

// Stats renders the fold, the in-flight gauge and the stores' own
// snapshots.
func (b *backend) Stats(_ context.Context, requests int64, sum *Account, uptime time.Duration) any {
	cs := b.cache.Stats()
	hints := b.hints.Stats()
	stagec := stageCacheJSON(b.stagec.Stats(), int64(sum.N[StagesSkipped]))
	return StatsResponse{
		Requests:        requests,
		Kernels:         int64(sum.N[Kernels]),
		InFlightKernels: b.inflight.Load(),
		UptimeMS:        uptime.Milliseconds(),
		Families:        b.families,
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
		Disk:       b.cache.DiskStats(),
		Stages:     stageJSON(sum.Stages),
		Place:      sum.Place,
		HintCache:  &hints,
		StageCache: &stagec,
		Mem:        MemStatsJSONNow(),
		Explore:    sum.Explore,
	}
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
func (b *backend) compileKernel(ctx context.Context, acct *Account, cfg *pipeline.Config, key cache.Key, f *ir.Func, syms *ir.Symbols) (cachedArtifact, cache.Level, error) {
	ca, lvl, err := b.cache.Resolve(ctx, key, func() (cachedArtifact, error) {
		if onCompileStart != nil {
			onCompileStart()
		}
		acct.N[Kernels]++
		b.inflight.Add(1)
		defer b.inflight.Add(-1)
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
