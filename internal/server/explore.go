package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"reticle/internal/cache"
	"reticle/internal/explore"
	"reticle/internal/ir"
	"reticle/internal/pipeline"
	"reticle/internal/rerr"
)

// handleExplore sweeps one kernel's variant lattice through the batch
// pool, with every variant routed through the server's full cache
// hierarchy (memory LRU, disk, hint cache) — variants sharing a
// canonical subtree with each other, a previous sweep, or any /compile
// traffic are served, not recompiled.
func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) {
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
	var req ExploreRequest
	if !DecodeJSON(w, r, s.opts.MaxBodyBytes, &req) {
		return
	}
	famName, cfg, err := s.Family(req.Family)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.Jobs < 0 {
		WriteError(w, http.StatusBadRequest, fmt.Sprintf("jobs must be >= 0, got %d", req.Jobs))
		return
	}
	if req.MaxVariants < 0 {
		WriteError(w, http.StatusBadRequest, fmt.Sprintf("max_variants must be >= 0, got %d", req.MaxVariants))
		return
	}
	f, err := ir.Parse(req.IR)
	if err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Sprintf("parse: %v", err))
		return
	}
	ctx, cancel, err := s.deadline(r, req.TimeoutMS)
	if err != nil {
		writeDeadlineError(w, err)
		return
	}
	defer cancel()

	name := req.Name
	if name == "" {
		name = f.Name
	}
	opts := explore.Options{
		MaxVariants: s.exploreVariantCap(req.MaxVariants),
		Jobs:        s.exploreJobs(req.Jobs),
		Compile:     s.variantCompiler(),
	}

	if req.Stream || r.Header.Get("Accept") == NDJSONContentType {
		s.streamExplore(ctx, cancel, w, famName, name, cfg, f, opts)
		return
	}

	res, err := explore.Run(ctx, cfg, f, opts)
	if err != nil {
		WriteTypedError(w, err)
		return
	}
	s.countExplore(res)
	WriteJSON(w, http.StatusOK, ExploreResponse{
		Name:     name,
		Family:   famName,
		Variants: exploreVariantsJSON(res.Variants),
		Frontier: exploreFrontierJSON(res.Frontier),
		Partial:  res.Partial,
		Stats:    exploreStatsJSON(res.Stats),
	})
}

// exploreVariantCap resolves a request's max_variants against the
// server cap: 0 takes the lattice default, oversized asks are clamped.
func (s *Server) exploreVariantCap(requested int) int {
	cap := s.opts.MaxExploreVariants
	if cap <= 0 || cap > explore.HardMaxVariants {
		cap = explore.HardMaxVariants
	}
	n := requested
	if n == 0 {
		n = explore.DefaultMaxVariants
	}
	if n > cap {
		n = cap
	}
	return n
}

// exploreJobs resolves a request's worker bound; the lattice ceiling
// also bounds fan-out, so a huge jobs value cannot spawn idle workers.
func (s *Server) exploreJobs(requested int) int {
	jobs := requested
	if jobs == 0 {
		jobs = s.opts.Jobs
	}
	if jobs > explore.HardMaxVariants {
		jobs = explore.HardMaxVariants
	}
	return jobs
}

// variantCompiler routes one variant through compileKernel — the same
// cache-checked, counted, coalesced path /compile and /batch use. The
// variant is scored from the rendered artifact's recorded counters, which
// the estimator cross-check keeps equal to a fresh compile's.
func (s *Server) variantCompiler() explore.CompileFunc {
	return func(ctx context.Context, vcfg *pipeline.Config, v explore.Variant) (*pipeline.Artifact, bool, error) {
		ca, hit, err := s.compileKernel(ctx, vcfg, cache.KeyFor(vcfg, v.Func), v.Func)
		if err != nil {
			return nil, false, err
		}
		return ca.artifact(hit), hit, nil
	}
}

// countExplore folds one finished sweep into the /stats totals.
func (s *Server) countExplore(res *explore.Result) {
	s.exploreSweeps.Add(1)
	s.exploreVariants.Add(int64(res.Stats.Variants))
	s.exploreHits.Add(int64(res.Stats.CacheHits))
	if res.Partial {
		s.explorePartial.Add(1)
	}
}

func exploreMetricsJSON(m explore.Metrics) ExploreMetrics {
	return ExploreMetrics{
		CriticalNs: m.CriticalNs,
		FMaxMHz:    m.FMaxMHz,
		Luts:       m.Luts,
		Dsps:       m.Dsps,
		FFs:        m.FFs,
		Carries:    m.Carries,
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
		m := exploreMetricsJSON(vr.Metrics)
		out.Metrics = &m
	} else {
		out.Error = rerr.Message(vr.Err)
		out.ErrorCode = rerr.CodeOf(vr.Err)
	}
	return out
}

func exploreVariantsJSON(vrs []explore.VariantResult) []ExploreVariant {
	out := make([]ExploreVariant, len(vrs))
	for i, vr := range vrs {
		out[i] = exploreVariantJSON(vr)
	}
	return out
}

func exploreFrontierJSON(fps []explore.FrontierPoint) []ExploreFrontierPoint {
	out := make([]ExploreFrontierPoint, len(fps))
	for i, fp := range fps {
		out[i] = ExploreFrontierPoint{ID: fp.ID, Metrics: exploreMetricsJSON(fp.Metrics)}
	}
	return out
}

func exploreStatsJSON(st explore.Stats) ExploreStatsJSON {
	return ExploreStatsJSON{
		Variants:       st.Variants,
		Succeeded:      st.Succeeded,
		Failed:         st.Failed,
		Degraded:       st.Degraded,
		CacheHits:      st.CacheHits,
		StagesSkipped:  st.StagesSkipped,
		Retried:        st.Retried,
		WallNS:         st.Wall.Nanoseconds(),
		VariantsPerSec: st.VariantsPerSec,
	}
}

// exploreFooter is the streaming sweep's final line: everything only
// known once the whole lattice has finished. Field order matches
// ExploreResponse so the stream splices back into the exact buffered
// body:
//
//	{"name":N,"family":F,"variants":[line1,...,lineN],"frontier":...,"partial":...,"stats":...}
type exploreFooter struct {
	Name     string                 `json:"name"`
	Family   string                 `json:"family"`
	Frontier []ExploreFrontierPoint `json:"frontier"`
	Partial  bool                   `json:"partial"`
	Stats    ExploreStatsJSON       `json:"stats"`
}

// streamExplore is the chunked /explore emitter: one NDJSON line per
// variant, flushed in lattice order as soon as the variant (and every
// variant before it) has a result, then the footer. Each line is
// byte-identical to the corresponding element of the buffered
// response's variants array.
func (s *Server) streamExplore(ctx context.Context, cancel context.CancelFunc, w http.ResponseWriter, famName, name string, cfg *pipeline.Config, f *ir.Func, opts explore.Options) {
	sw, err := explore.Begin(ctx, cfg, f, opts)
	if err != nil {
		WriteTypedError(w, err)
		return
	}
	w.Header().Set("Content-Type", NDJSONContentType)
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	line := func(v any) error {
		err := enc.Encode(v)
		if flusher != nil {
			flusher.Flush()
		}
		return err
	}
	for i := 0; i < sw.Len(); i++ {
		if line(exploreVariantJSON(sw.Result(i))) != nil {
			cancel() // client gone: stop the sweep and wait it out
			sw.Finish()
			return
		}
	}
	res, err := sw.Finish()

	footer := exploreFooter{Name: name, Family: famName}
	if err == nil {
		s.countExplore(res)
		footer.Frontier = exploreFrontierJSON(res.Frontier)
		footer.Partial = res.Partial
		footer.Stats = exploreStatsJSON(res.Stats)
	} else {
		// The status line is long gone; the footer carries the failure
		// marker (every line already has the typed code).
		footer.Partial = true
		footer.Stats = ExploreStatsJSON{Variants: sw.Len(), Failed: sw.Len()}
	}
	line(footer)
}
