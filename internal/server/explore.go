package server

import (
	"cmp"
	"context"
	"net/http"

	"reticle/internal/cache"
	"reticle/internal/explore"
	"reticle/internal/pipeline"
	"reticle/internal/rerr"
)

// Explore sweeps one kernel's variant lattice through the batch pool,
// with every variant routed through the backend's full cache hierarchy
// (memory LRU, disk, hint cache) — variants sharing a canonical subtree
// with each other, a previous sweep, or any /compile traffic are served,
// not recompiled. Variants leave in lattice order through one loop, in
// either framing (see Frame). Each variant fills a sub-account on its
// worker; they join the request's once the sweep has finished, and a
// finished sweep adds its totals.
func (b *backend) Explore(ctx context.Context, cancel context.CancelFunc, w http.ResponseWriter, acct *Account, q *Request) {
	// max_variants 0 takes the lattice default, and an oversized ask is
	// clamped to the hard cap; so is jobs (0: the batch pool's default), so
	// a huge value cannot spawn idle workers.
	maxVariants := min(cmp.Or(q.MaxVariants, explore.DefaultMaxVariants), explore.HardMaxVariants)
	subs := make([]Account, maxVariants) // [i] is written by variant i's worker
	sw, err := explore.Begin(ctx, q.Config, q.Kernels[0].Func, explore.Options{
		MaxVariants: maxVariants,
		Jobs:        min(q.Jobs, explore.HardMaxVariants),
		Compile:     b.variantCompiler(subs),
	})
	if err != nil {
		writeTypedError(w, err, "")
		return
	}
	frame := NewFrame(w, q.Stream, "variants", "name", q.Kernels[0].Name, "family", q.Family)
	for i := 0; i < sw.Len(); i++ {
		if frame.Item(exploreVariantJSON(sw.Result(i))) != nil {
			cancel() // client gone: stop the sweep and wait it out
			sw.Finish()
			acct.Merge(subs...)
			return
		}
	}
	res, err := sw.Finish()
	acct.Merge(subs...)
	if err != nil {
		// Nothing survived; a stream says so in its trailer.
		frame.Fail(err, "frontier", nil, "partial", true,
			"stats", ExploreStatsJSON{Variants: sw.Len(), Failed: sw.Len()})
		return
	}
	acct.Explore = ExploreTotalsJSON{Sweeps: 1, Variants: int64(res.Stats.Variants), VariantCacheHits: int64(res.Stats.CacheHits)}
	if res.Partial {
		acct.Explore.Partial = 1
	}
	frame.Close("frontier", res.Frontier, "partial", res.Partial, "stats", exploreStatsJSON(res.Stats, acct.N[StagesSkipped]))
}

// variantCompiler routes one variant through compileKernel — the same
// cache-checked, coalesced path /compile and /batch use — into its
// sub-account, subs[i]. The variant is scored from the rendered
// artifact's recorded counters, which are codegen's own.
func (b *backend) variantCompiler(subs []Account) explore.CompileFunc {
	return func(ctx context.Context, vcfg *pipeline.Config, i int, v explore.Variant) (*pipeline.Artifact, bool, error) {
		ca, lvl, err := b.compileKernel(ctx, &subs[i], vcfg, cache.KeyFor(vcfg, v.Func), v.Func, nil)
		if err != nil {
			return nil, false, err
		}
		return ca.artifact(), lvl != cache.Computed, nil
	}
}

// exploreVariantJSON renders one variant line. Failures cross the wire
// as the typed stable message and code only.
func exploreVariantJSON(vr explore.VariantResult) ExploreVariant {
	out := ExploreVariant{
		ID:       vr.ID,
		Desc:     vr.Desc,
		OK:       vr.Ok(),
		Degraded: vr.Degraded,
	}
	if vr.Ok() {
		out.Metrics = &vr.Metrics
	} else {
		out.Error = rerr.Message(vr.Err)
		out.ErrorCode = rerr.CodeOf(vr.Err)
	}
	return out
}

// exploreStatsJSON renders a sweep's footer stats; the stages the memo
// skipped are the request account's, merged from its variants.
func exploreStatsJSON(st explore.Stats, stagesSkipped int) ExploreStatsJSON {
	return ExploreStatsJSON{
		Variants:       st.Variants,
		Succeeded:      st.Succeeded,
		Failed:         st.Failed,
		Degraded:       st.Degraded,
		CacheHits:      st.CacheHits,
		StagesSkipped:  stagesSkipped,
		Retried:        st.Retried,
		WallNS:         st.Wall.Nanoseconds(),
		VariantsPerSec: st.VariantsPerSec,
	}
}
