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

// handleExplore sweeps one kernel's variant lattice through the batch
// pool, with every variant routed through the server's full cache
// hierarchy (memory LRU, disk, hint cache) — variants sharing a
// canonical subtree with each other, a previous sweep, or any /compile
// traffic are served, not recompiled. Variants leave in lattice order
// through one loop, in either framing (see Frame). Each variant fills a
// sub-account on its worker; they join the request's once the sweep has
// finished, and a finished sweep adds its totals.
func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) {
	acct := AccountOf(w)
	release, err := s.admit(r.Context())
	if err != nil {
		WriteTypedError(w, err)
		return
	}
	defer release()
	if err := FaultExplore.Fire(r.Context()); err != nil {
		WriteTypedError(w, err)
		return
	}
	q, ok := s.Door(w, r)
	if !ok {
		return
	}
	ctx, cancel, err := s.within(acct, r, q, q.Timeout)
	if err != nil {
		WriteTypedError(w, err)
		return
	}
	defer cancel()

	maxVariants := exploreVariantCap(q.MaxVariants)
	subs := make([]Account, maxVariants) // [i] is written by variant i's worker
	sw, err := explore.Begin(ctx, q.Config, q.Kernels[0].Func, explore.Options{
		MaxVariants: maxVariants,
		Jobs:        exploreJobs(q.Jobs),
		Compile:     s.variantCompiler(subs),
	})
	if err != nil {
		WriteTypedError(w, err)
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

// exploreVariantCap resolves a request's max_variants: 0 takes the
// lattice default, oversized asks are clamped to the hard cap.
func exploreVariantCap(requested int) int {
	return min(cmp.Or(requested, explore.DefaultMaxVariants), explore.HardMaxVariants)
}

// exploreJobs resolves a request's worker bound (0: the batch pool's
// default); the lattice ceiling also bounds fan-out, so a huge jobs value
// cannot spawn idle workers.
func exploreJobs(requested int) int { return min(requested, explore.HardMaxVariants) }

// variantCompiler routes one variant through compileKernel — the same
// cache-checked, coalesced path /compile and /batch use — into its
// sub-account, subs[i]. The variant is scored from the rendered
// artifact's recorded counters, which are codegen's own.
func (s *Server) variantCompiler(subs []Account) explore.CompileFunc {
	return func(ctx context.Context, vcfg *pipeline.Config, i int, v explore.Variant) (*pipeline.Artifact, bool, error) {
		ca, lvl, err := s.compileKernel(ctx, &subs[i], vcfg, cache.KeyFor(vcfg, v.Func), v.Func, nil)
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
