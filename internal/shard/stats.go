package shard

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"time"

	"reticle/internal/batch"
	"reticle/internal/server"
)

// HealthResponse is the router's GET /healthz body: the usual service
// fields plus per-backend liveness.
type HealthResponse struct {
	Status   string          `json:"status"`
	UptimeMS int64           `json:"uptime_ms"`
	Families []string        `json:"families"`
	Backends []BackendHealth `json:"backends"`
}

// BackendHealth is one backend's liveness as the router sees it, plus
// its circuit-breaker state ("closed", "open", "half-open").
type BackendHealth struct {
	URL     string `json:"url"`
	Alive   bool   `json:"alive"`
	Breaker string `json:"breaker"`
}

// BreakerStatsJSON is one backend's breaker counters on the /stats wire.
type BreakerStatsJSON struct {
	State      string `json:"state"`
	Trips      uint64 `json:"trips"`
	Recoveries uint64 `json:"recoveries"`
}

// BackendStats is one backend's /stats snapshot (nil with Error set
// when the backend could not be polled).
type BackendStats struct {
	URL     string                `json:"url"`
	Alive   bool                  `json:"alive"`
	Breaker *BreakerStatsJSON     `json:"breaker,omitempty"`
	Error   string                `json:"error,omitempty"`
	Stats   *server.StatsResponse `json:"stats,omitempty"`
}

// AggregateStats sums the tier's counters without double counting: a
// request is served by exactly one tier — the router's local disk
// cache (never forwarded, so invisible to every backend) or some
// backend's cache/pipeline — so backend cache hits and router disk
// hits are disjoint by construction and TotalHits is their plain sum.
type AggregateStats struct {
	// Kernels is the number of kernels that entered some backend's
	// pipeline (cache hits excluded), summed across backends.
	Kernels int64 `json:"kernels"`
	// BackendCacheHits / BackendCacheMisses sum the backends' in-memory
	// LRU counters.
	BackendCacheHits   uint64 `json:"backend_cache_hits"`
	BackendCacheMisses uint64 `json:"backend_cache_misses"`
	// DiskHits counts requests the router's local disk cache answered
	// without touching the network.
	DiskHits uint64 `json:"disk_hits"`
	// TotalHits = BackendCacheHits + DiskHits.
	TotalHits uint64 `json:"total_hits"`
	// Explore sums the backends' /explore sweep counters (sweeps are
	// proxied whole to one backend, so the sums are exact).
	Explore server.ExploreTotalsJSON `json:"explore"`
	// StageCache sums the backends' per-stage memo counters. Stage
	// memos are backend-local (keyed by stage input, never proxied), so
	// the flat sum is exact; present only when at least one polled
	// backend reports a stage_cache section.
	StageCache *server.StageCacheTotalsJSON `json:"stage_cache,omitempty"`
}

// RouterStatsJSON is the router's own counters.
type RouterStatsJSON struct {
	// Proxied counts proxy attempts a backend answered; Rehashes counts
	// attempts beyond a key's first-choice backend; Outages counts
	// requests no live backend could serve.
	Proxied  int64 `json:"proxied"`
	Rehashes int64 `json:"rehashes"`
	Outages  int64 `json:"outages"`
	// ProxyCalls counts proxyKernel invocations (the hedge-budget
	// denominator); Hedges counts speculative attempts fired, HedgeWins
	// the ones that answered first.
	ProxyCalls int64 `json:"proxy_calls"`
	Hedges     int64 `json:"hedges"`
	HedgeWins  int64 `json:"hedge_wins"`
	// ShedForwarded counts backend 429s relayed to the client with their
	// Retry-After instead of re-hashed onto the next (equally loaded) peer.
	ShedForwarded int64 `json:"shed_forwarded"`
	// Disk is the router-local persistent cache, when configured.
	Disk *server.DiskStatsJSON `json:"disk,omitempty"`
}

// StatsResponse is the router's GET /stats body.
type StatsResponse struct {
	Requests  int64           `json:"requests"`
	UptimeMS  int64           `json:"uptime_ms"`
	Families  []string        `json:"families"`
	Backends  []BackendStats  `json:"backends"`
	Aggregate AggregateStats  `json:"aggregate"`
	Router    RouterStatsJSON `json:"router"`
	// Mem is the router process's own runtime snapshot (each backend
	// reports its own inside Backends[i].Stats.Mem).
	Mem server.MemStatsJSON `json:"mem"`
}

// pollBackendStats fetches one backend's /stats.
func (rt *Router) pollBackendStats(ctx context.Context, b *backend) BackendStats {
	out := BackendStats{URL: b.url, Alive: b.alive.Load()}
	ctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", b.url+"/stats", nil)
	if err != nil {
		out.Error = "stats request could not be built"
		return out
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		out.Error = "backend unreachable"
		return out
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		out.Error = "backend stats unavailable"
		return out
	}
	var st server.StatsResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxProxyResponse)).Decode(&st); err != nil {
		out.Error = "backend stats unreadable"
		return out
	}
	out.Stats = &st
	return out
}

// handleStats fans GET /stats into every backend and aggregates the
// tier's counters. Router-local disk hits are reported once, in the
// Aggregate.DiskHits / Router.Disk sections — never folded into the
// backend cache sums they are disjoint from (the no-double-count
// invariant stats_shard_test.go pins).
//
// The router's own counters are the fold of finished requests (this one
// included, though it has not ended), but for the hedge budget's two,
// read from their owners.
func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	requests, sum := rt.totals.Snapshot()
	resp := StatsResponse{
		Requests: requests + 1,
		UptimeMS: time.Since(rt.start).Milliseconds(),
		Families: rt.Families(),
		Router: RouterStatsJSON{
			Proxied:       int64(sum.N[server.Proxied]),
			Rehashes:      int64(sum.N[server.Rehashes]),
			Outages:       int64(sum.N[server.Outages]),
			ProxyCalls:    rt.proxyCalls.Load(),
			Hedges:        rt.hedges.Load(),
			HedgeWins:     int64(sum.N[server.HedgeWon]),
			ShedForwarded: int64(sum.N[server.ShedForwarded]),
		},
	}
	// One poll per backend, all at once; a backend is only skipped when the
	// client has already gone (or its poll panicked).
	n := len(rt.backends)
	resp.Backends = batch.FanOut(r.Context(), n, n, func(i int) BackendStats {
		b := rt.backends[i]
		out := rt.pollBackendStats(r.Context(), b)
		bs := b.br.stats()
		out.Breaker = &BreakerStatsJSON{
			State: bs.State.String(), Trips: bs.Trips, Recoveries: bs.Recoveries,
		}
		return out
	}, func(i int, _ error) BackendStats {
		b := rt.backends[i]
		return BackendStats{URL: b.url, Alive: b.alive.Load(), Error: "backend unreachable"}
	}).Drain()
	for _, bs := range resp.Backends {
		if bs.Stats == nil {
			continue
		}
		resp.Aggregate.Kernels += bs.Stats.Kernels
		resp.Aggregate.BackendCacheHits += bs.Stats.Cache.Hits
		resp.Aggregate.BackendCacheMisses += bs.Stats.Cache.Misses
		resp.Aggregate.Explore.Add(bs.Stats.Explore)
		if sc := bs.Stats.StageCache; sc != nil {
			if resp.Aggregate.StageCache == nil {
				resp.Aggregate.StageCache = &server.StageCacheTotalsJSON{}
			}
			t := sc.Totals()
			resp.Aggregate.StageCache.Hits += t.Hits
			resp.Aggregate.StageCache.Misses += t.Misses
			resp.Aggregate.StageCache.Stores += t.Stores
			resp.Aggregate.StageCache.Bytes += t.Bytes
			resp.Aggregate.StageCache.StagesSkipped += t.StagesSkipped
		}
	}
	if rt.Disk() != nil {
		ds := rt.Disk().Stats()
		resp.Router.Disk = &ds
		resp.Aggregate.DiskHits = ds.Hits
	}
	resp.Aggregate.TotalHits = resp.Aggregate.BackendCacheHits + resp.Aggregate.DiskHits
	resp.Mem = server.MemStatsJSONNow()
	server.WriteJSON(w, http.StatusOK, resp)
}
