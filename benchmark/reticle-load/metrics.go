package main

// metricDef is one named metric. BENCHMARK.json lists the same names,
// units, directions and bounds; TestBenchmarkJSONMatchesRegistry holds the
// two together.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Doc    string
}

// endToEndDefs are the metrics a user of the compile service sees. Every
// workload reports all of them from its untraced run.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25,
		"wall from exec of the server binaries until prefill and warm-up complete; median of three set-ups; go build excluded"},
	{"artifacts_per_s", "1/s", "higher", 0.25,
		"correct artifacts delivered per second of the window, median over its seconds; /compile = 1, /batch = kernels ok, /explore = variants ok"},
	{"latency_p50_ms", "ms", "lower", 0.25, "client-side request wall, median of each second's requests, median over the window's seconds"},
	{"latency_p90_ms", "ms", "lower", 0.25, "client-side request wall, 90th percentile of each second's requests, median over the window's seconds"},
	{"cpu_ms_per_artifact", "ms", "lower", 0.25,
		"utime+stime of all server and router children (/proc/<pid>/stat) / artifacts, per second of the window, median over its seconds"},
	{"rss_mb", "MB", "lower", 0.20,
		"the children's summed VmRSS, sampled once a second over the window, median: memory held while serving, set-up peaks excluded"},
	{"critical_ns_geomean", "ns", "lower", 0.15,
		"geometric mean of artifact.critical_ns over the workload's quality panel; deterministic per seed"},
	{"prims_per_kernel", "count", "lower", 0.15,
		"mean artifact.luts + artifact.dsps over the workload's quality panel (fabric spent; LUTs alone are 0 on DSP kernels); deterministic per seed"},
}

// perLayerDefs are the metrics of single layers, from the traced run:
// span self times from the in-process replay, counts from /stats deltas.
var perLayerDefs = []metricDef{
	{Name: "ir.parse_us", Unit: "us", Better: "lower", Doc: "ir.Parse of the request's IR text, median"},
	{Name: "ir.parse_mb_per_s", Unit: "MB/s", Better: "higher", Doc: "IR bytes parsed / parse time, over all replays"},
	{Name: "ir.canonical_hash_us", Unit: "us", Better: "lower", Doc: "ir.CanonicalHash, median"},
	{Name: "ir.structural_hash_us", Unit: "us", Better: "lower", Doc: "ir.StructuralHash, median"},
	{Name: "ir.instrs", Unit: "count", Better: "lower", Doc: "mean IR instructions per replayed kernel"},

	{Name: "isel.select_us", Unit: "us", Better: "lower", Doc: "isel.SelectWithLibrary, median"},
	{Name: "isel.asm_instrs", Unit: "count", Better: "lower", Doc: "mean selected assembly instructions per replayed kernel; exact"},
	{Name: "isel.library_build_ms", Unit: "ms", Better: "lower", Doc: "isel.NewLibrary for both families"},

	{Name: "cascade.apply_us", Unit: "us", Better: "lower", Doc: "cascade.Apply, median"},
	{Name: "cascade.chains", Unit: "count", Better: "higher", Doc: "mean cascade chains rewritten per replayed kernel"},

	{Name: "place.place_us", Unit: "us", Better: "lower", Doc: "place.PlaceContext (incl. csp), median"},
	{Name: "place.solver_steps", Unit: "count", Better: "lower", Doc: "server-side solver steps over the traced window (/stats delta)"},
	{Name: "place.degraded", Unit: "count", Better: "lower", Doc: "artifacts marked degraded in the traced window; must stay 0"},

	{Name: "codegen.generate_us", Unit: "us", Better: "lower", Doc: "codegen.Generate + Module.String, median"},
	{Name: "codegen.verilog_bytes", Unit: "B", Better: "lower", Doc: "mean Verilog bytes per replayed kernel; exact"},
	{Name: "codegen.luts", Unit: "count", Better: "lower", Doc: "mean LUTs per replayed kernel"},
	{Name: "codegen.dsps", Unit: "count", Better: "lower", Doc: "mean DSPs per replayed kernel"},

	{Name: "timing.analyze_us", Unit: "us", Better: "lower", Doc: "timing.Analyze, median"},

	{Name: "pipeline.compile_us", Unit: "us", Better: "lower", Doc: "pipeline.Compile whole, memo stores wired, median"},
	{Name: "pipeline.stage_key_us", Unit: "us", Better: "lower", Doc: "the four *KeyFor calls, median"},
	{Name: "pipeline.self_us", Unit: "us", Better: "lower", Doc: "compile_us minus the five stage spans, median of per-request differences"},
	{Name: "pipeline.stages_skipped", Unit: "count", Better: "higher", Doc: "stages served from the stage memo in the traced window (/stats delta)"},
	{Name: "pipeline.select_ms", Unit: "ms", Better: "lower", Doc: "server-side select wall per compiled kernel (/stats delta)"},
	{Name: "pipeline.cascade_ms", Unit: "ms", Better: "lower", Doc: "server-side cascade wall per compiled kernel"},
	{Name: "pipeline.place_ms", Unit: "ms", Better: "lower", Doc: "server-side place wall per compiled kernel"},
	{Name: "pipeline.codegen_ms", Unit: "ms", Better: "lower", Doc: "server-side codegen wall per compiled kernel"},
	{Name: "pipeline.timing_ms", Unit: "ms", Better: "lower", Doc: "server-side timing wall per compiled kernel"},

	{Name: "cache.key_us", Unit: "us", Better: "lower", Doc: "cache.KeyFor, median"},
	{Name: "cache.get_hit_us", Unit: "us", Better: "lower", Doc: "cache.Cache.Get of a resident key, median"},
	{Name: "cache.add_us", Unit: "us", Better: "lower", Doc: "cache.Cache.Add, median"},
	{Name: "cache.hit_rate", Unit: "ratio", Better: "higher", Doc: "artifact LRU (hits+coalesced)/lookups in the traced window"},
	{Name: "cache.evictions", Unit: "count", Better: "lower", Doc: "artifact LRU evictions in the traced window"},
	{Name: "cache.disk_get_us", Unit: "us", Better: "lower", Doc: "cache.Disk.Get of a present key, median"},
	{Name: "cache.disk_put_us", Unit: "us", Better: "lower", Doc: "cache.Disk.Put, median"},
	{Name: "cache.disk_hits", Unit: "count", Better: "higher", Doc: "backend artifact disk-tier hits in the traced window"},

	{Name: "stagecache.lookup_us", Unit: "us", Better: "lower", Doc: "stagecache.Store.Lookup of a present key, median"},
	{Name: "stagecache.store_us", Unit: "us", Better: "lower", Doc: "stagecache.Store.Store, median"},
	{Name: "stagecache.hit_rate.select", Unit: "ratio", Better: "higher", Doc: "select-stage memo hits/lookups in the traced window"},
	{Name: "stagecache.hit_rate.cascade", Unit: "ratio", Better: "higher", Doc: "cascade-stage memo hits/lookups"},
	{Name: "stagecache.hit_rate.place", Unit: "ratio", Better: "higher", Doc: "place-stage memo hits/lookups"},
	{Name: "stagecache.hit_rate.output", Unit: "ratio", Better: "higher", Doc: "output-stage memo hits/lookups"},
	{Name: "stagecache.bytes", Unit: "B", Better: "lower", Doc: "payload bytes stored in the traced window"},

	{Name: "hintcache.lookup_us", Unit: "us", Better: "lower", Doc: "hintcache.Store.Lookup of a present key, median"},
	{Name: "hintcache.adoptions", Unit: "count", Better: "higher", Doc: "placements adopted from the hint cache in the traced window"},
	{Name: "hintcache.steps_saved", Unit: "count", Better: "higher", Doc: "cold solver steps those adoptions avoided"},

	{Name: "batch.kernels_per_s.jobs1", Unit: "1/s", Better: "higher", Doc: "in-process batch.Compile of 16 kernels, one worker"},
	{Name: "batch.kernels_per_s.jobs2", Unit: "1/s", Better: "higher", Doc: "the same with two workers"},
	{Name: "batch.scaling", Unit: "ratio", Better: "higher", Doc: "jobs2 / jobs1"},

	{Name: "explore.enumerate_us", Unit: "us", Better: "lower", Doc: "explore.Enumerate of a small DSP kernel, 12 variants"},
	{Name: "explore.run_ms_cold", Unit: "ms", Better: "lower", Doc: "explore.Run of it, empty stage memo"},
	{Name: "explore.run_ms_warm", Unit: "ms", Better: "lower", Doc: "the same sweep again, stage memo warm"},
	{Name: "explore.variants", Unit: "count", Better: "higher", Doc: "variants swept server-side in the traced window"},
	{Name: "explore.variant_cache_hits", Unit: "count", Better: "higher", Doc: "of those, served from a cache tier"},

	{Name: "server.handler_hit_us", Unit: "us", Better: "lower", Doc: "server.ServeHTTP into a recorder, reply a hit, median"},
	{Name: "server.handler_miss_us", Unit: "us", Better: "lower", Doc: "server.ServeHTTP into a recorder, reply a miss, median"},
	{Name: "server.self_miss_us", Unit: "us", Better: "lower", Doc: "handler_miss_us minus pipeline.compile_us, median of per-request differences"},
	{Name: "server.encode_us", Unit: "us", Better: "lower", Doc: "json.Marshal of server.ArtifactJSON, median"},
	{Name: "server.resp_bytes", Unit: "B", Better: "lower", Doc: "mean reply size in the traced window"},
	{Name: "server.shed", Unit: "count", Better: "lower", Doc: "429 replies in the traced window"},
	{Name: "server.peak_rss_mb", Unit: "MB", Better: "lower", Doc: "sum of the children's VmHWM after the traced window: the high-water mark since exec, set-up included"},
	{Name: "server.heap_mb", Unit: "MB", Better: "lower", Doc: "sum of the children's live heap after the traced window"},
	{Name: "server.gc_cycles", Unit: "count", Better: "lower", Doc: "GC cycles in the traced window, all children"},
	{Name: "server.gc_pause_ms", Unit: "ms", Better: "lower", Doc: "GC pause total in the traced window, all children"},
	{Name: "server.alloc_kb_per_artifact", Unit: "kB", Better: "lower", Doc: "bytes allocated by the children / artifacts"},
	{Name: "server.mallocs_per_artifact", Unit: "count", Better: "lower", Doc: "heap objects allocated by the children / artifacts"},
	{Name: "server.goroutines", Unit: "count", Better: "lower", Doc: "goroutines in the children after the traced window"},

	{Name: "shard.proxy_hop_us", Unit: "us", Better: "lower", Doc: "hot /compile via the router minus the same request to its backend, medians; 0 without a router"},
	{Name: "shard.ring_pick_us", Unit: "us", Better: "lower", Doc: "shard.Ring.Pick, median"},
	{Name: "shard.proxy_calls", Unit: "count", Better: "higher", Doc: "router proxy calls in the traced window"},
	{Name: "shard.rehashes", Unit: "count", Better: "lower", Doc: "proxy attempts beyond the first-choice backend; 0 in a healthy run"},
	{Name: "shard.hedges", Unit: "count", Better: "lower", Doc: "speculative attempts fired (hedging is off by default)"},
	{Name: "shard.breaker_trips", Unit: "count", Better: "lower", Doc: "circuit-breaker trips; 0 in a healthy run"},
	{Name: "shard.router_disk_hits", Unit: "count", Better: "higher", Doc: "requests the router's own disk cache answered (the workload gives the router none)"},

	{Name: "client.latency_p99_ms", Unit: "ms", Better: "lower", Doc: "client-side request wall, 99th percentile, traced window"},
	{Name: "client.latency_p999_ms", Unit: "ms", Better: "lower", Doc: "client-side request wall, 99.9th percentile, traced window"},
	{Name: "client.cpu_share", Unit: "ratio", Better: "lower", Doc: "generator CPU / (generator + children CPU) over the traced window"},
	{Name: "client.error_rate", Unit: "ratio", Better: "lower", Doc: "failed / attempted in the traced run, oracle failures included"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", Doc: "traced minus untraced latency_p50_ms, as a share of untraced, same processes"},
}

var units = func() map[string]string {
	m := map[string]string{}
	for _, defs := range [][]metricDef{endToEndDefs, perLayerDefs} {
		for _, d := range defs {
			m[d.Name] = d.Unit
		}
	}
	return m
}()

// unitOf returns the unit of a registered metric; an unregistered name is
// a bug in this program.
func unitOf(name string) string {
	u, ok := units[name]
	if !ok {
		panic("reticle-load: metric " + name + " is not in the registry")
	}
	return u
}
