package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"reticle/internal/server"
	"reticle/internal/shard"
)

// counters is the flat sum, over every backend (and the router, where
// there is one), of the public /stats counters the per-layer metrics
// are differenced from. Gauges (heap, goroutines) are read, not
// differenced.
type counters struct {
	kernels                           float64 // kernels that entered a pipeline
	cacheHits, cacheMisses, cacheCoal float64
	evictions, diskHits               float64
	stageNS                           [5]float64 // select, cascade, place, codegen, timing
	solverSteps, adoptions, saved     float64
	stageHits, stageLookups           [4]float64 // select, cascade, place, output
	stageBytes, stagesSkipped         float64
	sweptVariants, variantHits        float64
	mallocs, allocBytes, gcs, pauseNS float64
	proxyCalls, rehashes, hedges      float64
	trips, routerDiskHits             float64

	heapBytes, goroutines float64 // gauges
}

func getJSON(url string, dst any) error {
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(dst)
}

func (c *counters) addMem(m server.MemStatsJSON) {
	c.mallocs += float64(m.Mallocs)
	c.allocBytes += float64(m.TotalAllocBytes)
	c.gcs += float64(m.NumGC)
	c.pauseNS += float64(m.GCPauseTotalNS)
	c.heapBytes += float64(m.HeapAllocBytes)
	c.goroutines += float64(m.Goroutines)
}

func (c *counters) addBackend(s *server.StatsResponse) {
	c.kernels += float64(s.Kernels)
	c.cacheHits += float64(s.Cache.Hits)
	c.cacheMisses += float64(s.Cache.Misses)
	c.cacheCoal += float64(s.Cache.Coalesced)
	c.evictions += float64(s.Cache.Evictions)
	if s.Disk != nil {
		c.diskHits += float64(s.Disk.Hits)
	}
	for i, ns := range []int64{s.Stages.SelectNS, s.Stages.CascadeNS, s.Stages.PlaceNS, s.Stages.CodegenNS, s.Stages.TimingNS} {
		c.stageNS[i] += float64(ns)
	}
	c.solverSteps += float64(s.Place.SolverSteps)
	c.adoptions += float64(s.Place.HintCacheHits)
	c.saved += float64(s.Place.HintCacheStepsSaved)
	if sc := s.StageCache; sc != nil {
		for i, st := range []server.StageCounterJSON{sc.Select, sc.Cascade, sc.Place, sc.Output} {
			c.stageHits[i] += float64(st.Hits)
			c.stageLookups[i] += float64(st.Hits + st.Misses)
			c.stageBytes += float64(st.Bytes)
		}
		c.stagesSkipped += float64(sc.StagesSkipped)
	}
	c.sweptVariants += float64(s.Explore.Variants)
	c.variantHits += float64(s.Explore.VariantCacheHits)
	c.addMem(s.Mem)
}

// snapStats reads /stats from every backend directly and, when the
// cluster has one, from the router.
func snapStats(cl *cluster) (counters, error) {
	var c counters
	for _, b := range cl.backends {
		var s server.StatsResponse
		if err := getJSON(b+"/stats", &s); err != nil {
			return c, err
		}
		c.addBackend(&s)
	}
	if cl.front != cl.backends[0] {
		var s shard.StatsResponse
		if err := getJSON(cl.front+"/stats", &s); err != nil {
			return c, err
		}
		c.proxyCalls = float64(s.Router.ProxyCalls)
		c.rehashes = float64(s.Router.Rehashes)
		c.hedges = float64(s.Router.Hedges)
		if s.Router.Disk != nil {
			c.routerDiskHits = float64(s.Router.Disk.Hits)
		}
		for _, b := range s.Backends {
			if b.Breaker != nil {
				c.trips += float64(b.Breaker.Trips)
			}
		}
		c.addMem(s.Mem)
	}
	return c, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerCounts turns the counters before and after the traced window into
// the per-layer count metrics.
func layerCounts(b, a counters, artifacts int, set func(string, float64)) {
	compiled := a.kernels - b.kernels
	for i, name := range []string{"select", "cascade", "place", "codegen", "timing"} {
		set("pipeline."+name+"_ms", ratio((a.stageNS[i]-b.stageNS[i])/1e6, compiled))
	}
	set("pipeline.stages_skipped", a.stagesSkipped-b.stagesSkipped)
	set("place.solver_steps", a.solverSteps-b.solverSteps)

	hits := a.cacheHits - b.cacheHits + a.cacheCoal - b.cacheCoal
	set("cache.hit_rate", ratio(hits, hits+a.cacheMisses-b.cacheMisses))
	set("cache.evictions", a.evictions-b.evictions)
	set("cache.disk_hits", a.diskHits-b.diskHits)

	for i, name := range []string{"select", "cascade", "place", "output"} {
		set("stagecache.hit_rate."+name, ratio(a.stageHits[i]-b.stageHits[i], a.stageLookups[i]-b.stageLookups[i]))
	}
	set("stagecache.bytes", a.stageBytes-b.stageBytes)
	set("hintcache.adoptions", a.adoptions-b.adoptions)
	set("hintcache.steps_saved", a.saved-b.saved)
	set("explore.variants", a.sweptVariants-b.sweptVariants)
	set("explore.variant_cache_hits", a.variantHits-b.variantHits)

	arts := float64(max(1, artifacts))
	set("server.heap_mb", a.heapBytes/1e6)
	set("server.goroutines", a.goroutines)
	set("server.gc_cycles", a.gcs-b.gcs)
	set("server.gc_pause_ms", (a.pauseNS-b.pauseNS)/1e6)
	set("server.alloc_kb_per_artifact", (a.allocBytes-b.allocBytes)/1024/arts)
	set("server.mallocs_per_artifact", (a.mallocs-b.mallocs)/arts)

	set("shard.proxy_calls", a.proxyCalls-b.proxyCalls)
	set("shard.rehashes", a.rehashes-b.rehashes)
	set("shard.hedges", a.hedges-b.hedges)
	set("shard.breaker_trips", a.trips-b.trips)
	set("shard.router_disk_hits", a.routerDiskHits-b.routerDiskHits)
}
