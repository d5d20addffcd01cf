package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"reticle/benchmark/kernelgen"
	"reticle/internal/asm"
	"reticle/internal/batch"
	"reticle/internal/cache"
	"reticle/internal/cascade"
	"reticle/internal/codegen"
	"reticle/internal/device"
	"reticle/internal/explore"
	"reticle/internal/hintcache"
	"reticle/internal/ir"
	"reticle/internal/isel"
	"reticle/internal/pipeline"
	"reticle/internal/place"
	"reticle/internal/server"
	"reticle/internal/shard"
	"reticle/internal/stagecache"
	"reticle/internal/target/agilex"
	"reticle/internal/target/ultrascale"
	"reticle/internal/tdl"
	"reticle/internal/timing"
)

// There is no tracing inside the program yet. The traced run records
// spans from this file only: one client span per request around the
// socket round trip, and, for every replayStride-th request, child spans
// around calls into the layers' public functions in the order the server
// makes them. A leaf span's duration is its layer's self time.

// replayStride is how many traced requests share one in-process replay.
const replayStride = 8

// span is one line of trace.jsonl. Parent 0 is the request itself.
type span struct {
	Req     int    `json:"req"`
	Span    int    `json:"span"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func (t *tracer) add(req, parent int, name string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{req, id, parent, name, start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()})
	return id
}

// open starts a span that will have children; close ends it.
func (t *tracer) open(req, parent int, name string) int {
	now := time.Now()
	return t.add(req, parent, name, now, now)
}

func (t *tracer) close(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndNS = time.Since(t.t0).Nanoseconds()
}

// timed records a span around fn and returns its duration.
func (t *tracer) timed(req, parent int, name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(req, parent, name, start, end)
	return end.Sub(start)
}

// medianUS returns the median duration of the spans called name, in
// microseconds; 0 when the run recorded none.
func (t *tracer) medianUS(name string) float64 {
	var us []float64
	for _, s := range t.spans {
		if s.Name == name {
			us = append(us, float64(s.EndNS-s.StartNS)/1e3)
		}
	}
	if len(us) == 0 {
		return 0
	}
	return median(us)
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// buildConfig assembles one family's pipeline config the way
// reticle.NewCompilerWith does, timing the pattern-library build.
func buildConfig(target *tdl.Target, dev *device.Device, cascades map[string]cascade.Variants) (*pipeline.Config, time.Duration, error) {
	t0 := time.Now()
	lib, err := isel.NewLibrary(target)
	if err != nil {
		return nil, 0, err
	}
	return &pipeline.Config{Target: target, Device: dev, Lib: lib, Cascades: cascades}, time.Since(t0), nil
}

// replayer owns the in-process twins of what the children run: one
// pipeline config per family, a server with the children's options, and
// stand-alone cache tiers for store/lookup round trips. The round-trip
// tiers are separate from the ones wired into the configs, so a round
// trip never turns a later pipeline.Compile into a memo hit.
type replayer struct {
	tr        *tracer
	plain     map[string]*pipeline.Config // no memo: the hand-driven stage calls
	wired     map[string]*pipeline.Config // stage memo and hint cache wired, as in the server
	srv       *server.Server
	ring      *shard.Ring
	sharded   bool
	libraryMS float64

	rtStage *stagecache.Store
	rtHints *hintcache.Store
	rtArts  *cache.Cache[[]byte]
	rtDisk  *cache.Disk

	kernels                                       int
	instrs, asmInstrs, chains, vbytes, luts, dsps float64
	parseBytes                                    float64
	parseTime                                     time.Duration
	pipelineSelfUS, serverSelfUS                  []float64
}

func newReplayer(w workload, tr *tracer, dir string) (*replayer, error) {
	rp := &replayer{tr: tr, plain: map[string]*pipeline.Config{}, wired: map[string]*pipeline.Config{},
		ring: shard.NewRing(2, 0), sharded: w.spec.shard}
	usCascades := map[string]cascade.Variants{}
	for base, v := range ultrascale.Cascades() {
		usCascades[base] = cascade.Variants{Co: v.Co, Ci: v.Ci, CoCi: v.CoCi}
	}
	agCascades := map[string]cascade.Variants{}
	for base, v := range agilex.Cascades() {
		agCascades[base] = cascade.Variants{Co: v.Co, Ci: v.Ci, CoCi: v.CoCi}
	}
	us, d1, err := buildConfig(ultrascale.Target(), ultrascale.Device(), usCascades)
	if err != nil {
		return nil, err
	}
	ag, d2, err := buildConfig(agilex.Target(), agilex.Device(), agCascades)
	if err != nil {
		return nil, err
	}
	rp.libraryMS = float64(d1+d2) / float64(time.Millisecond)
	rp.plain[famUltrascale], rp.plain[famAgilex] = us, ag
	memo, hints := stagecache.New(0), hintcache.New(0)
	for name, cfg := range rp.plain {
		cc := *cfg
		cc.StageCache, cc.HintCache = memo, hints
		rp.wired[name] = &cc
	}

	opts := server.Options{CacheEntries: w.spec.cacheEntries, DefaultFamily: famUltrascale, DefaultTimeout: 30 * time.Second}
	if w.spec.disk {
		opts.DiskDir = filepath.Join(dir, "replay-server-disk")
	}
	if rp.srv, err = server.New(opts, rp.plain); err != nil {
		return nil, err
	}
	rp.rtStage, rp.rtHints, rp.rtArts = stagecache.New(0), hintcache.New(0), cache.New[[]byte](0)
	if rp.rtDisk, err = cache.OpenDisk(filepath.Join(dir, "replay-disk"), 0); err != nil {
		return nil, err
	}
	return rp, nil
}

// serve sends one request through the in-process server whole.
func (rp *replayer) serve(r request) (status int, hit bool) {
	rec := httptest.NewRecorder()
	rp.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body)))
	head := rec.Body.Bytes()
	return rec.Code, bytes.Contains(head[:min(len(head), 512)], []byte(`"cache":"hit"`))
}

// replay re-runs one traced request in process. realHit says whether the
// children served it without compiling: a hit takes the hit path only
// (routing functions for a sharded workload, the cache read, the whole
// handler); a miss takes every layer.
func (rp *replayer) replay(ctx context.Context, i int, r request, realHit bool) error {
	tr := rp.tr
	var stageSum, compileDur time.Duration
	if r.path != "/explore" {
		irs, err := kernelIRs(r)
		if err != nil {
			return err
		}
		// Of a /batch, the first kernel the children had not seen.
		k := 0
		for j, hot := range r.hot {
			if hot < 0 {
				k = j
				break
			}
		}
		root := tr.open(i, 0, "replay")
		if !realHit || r.path == "/batch" {
			stageSum, compileDur, err = rp.missPath(ctx, i, root, rp.plain[r.family], rp.wired[r.family], irs[k])
		} else {
			err = rp.hitPath(i, root, rp.plain[r.family], irs[k])
		}
		if err != nil {
			return fmt.Errorf("replay of request %d (%s): %w", i, r.kind, err)
		}
		tr.close(root)
	}

	start := time.Now()
	status, hit := rp.serve(r)
	end := time.Now()
	if status != http.StatusOK {
		return fmt.Errorf("replay of request %d (%s): in-process server answered %d", i, r.kind, status)
	}
	name := "server.handler" + r.path // /batch and /explore whole
	if r.path == "/compile" {
		name = "server.handler_miss"
		if hit {
			name = "server.handler_hit"
		} else if compileDur > 0 {
			rp.pipelineSelfUS = append(rp.pipelineSelfUS, float64(compileDur-stageSum)/1e3)
			rp.serverSelfUS = append(rp.serverSelfUS, float64(end.Sub(start)-compileDur)/1e3)
		}
	}
	tr.add(i, 0, name, start, end)
	return nil
}

// hitPath is what a served hit costs outside the handler: for a sharded
// workload the router parses and hashes the kernel to route it; every
// hit ends in an LRU read.
func (rp *replayer) hitPath(i, root int, cfg *pipeline.Config, src string) error {
	tr := rp.tr
	f, err := ir.Parse(src)
	if err != nil {
		return err
	}
	var key cache.Key
	if rp.sharded {
		tr.timed(i, root, "ir.parse", func() { ir.Parse(src) })
		tr.timed(i, root, "ir.canonical_hash", func() { ir.CanonicalHash(f) })
		tr.timed(i, root, "ir.structural_hash", func() { ir.StructuralHash(f) })
		tr.timed(i, root, "cache.key", func() { key = cache.KeyFor(cfg, f) })
	} else {
		key = cache.KeyFor(cfg, f)
	}
	route := pipeline.HintKeyFor(cfg, f)
	tr.timed(i, root, "shard.ring_pick", func() { rp.ring.Pick(route) })
	rp.rtArts.Add(key, []byte(src))
	tr.timed(i, root, "cache.get_hit", func() { rp.rtArts.Get(key) })
	return nil
}

// missPath drives one kernel through every layer the server's miss path
// calls, in its order, each call under its own span; then through
// pipeline.Compile whole. It returns the sum of the five stage spans and
// the duration of the whole compile.
func (rp *replayer) missPath(ctx context.Context, i, root int, cfg, wired *pipeline.Config, src string) (stageSum, compileDur time.Duration, err error) {
	tr := rp.tr
	var f *ir.Func
	rp.parseTime += tr.timed(i, root, "ir.parse", func() { f, err = ir.Parse(src) })
	if err != nil {
		return 0, 0, err
	}
	rp.parseBytes += float64(len(src))
	tr.timed(i, root, "ir.canonical_hash", func() { ir.CanonicalHash(f) })
	tr.timed(i, root, "ir.structural_hash", func() { ir.StructuralHash(f) })
	var key cache.Key
	tr.timed(i, root, "cache.key", func() { key = cache.KeyFor(cfg, f) })
	route := pipeline.HintKeyFor(cfg, f)
	tr.timed(i, root, "shard.ring_pick", func() { rp.ring.Pick(route) })

	af, err := stage(tr, i, root, "isel.select", &stageSum, func() (*asm.Func, error) {
		return isel.SelectWithLibrary(f, cfg.Lib, isel.Options{})
	})
	if err != nil {
		return 0, 0, err
	}
	var cst cascade.Stats
	opt, err := stage(tr, i, root, "cascade.apply", &stageSum, func() (*asm.Func, error) {
		o, st, err := cascade.Apply(af, cfg.Target, cascade.Options{Cascades: cfg.Cascades, AccPort: "c", MaxChain: cfg.Device.Height})
		cst = st
		return o, err
	})
	if err != nil {
		return 0, 0, err
	}
	placed, err := stage(tr, i, root, "place.place", &stageSum, func() (*place.Result, error) {
		return place.PlaceContext(ctx, opt, cfg.Device, place.Options{})
	})
	if err != nil {
		return 0, 0, err
	}
	var cgStats codegen.Stats
	verilog, err := stage(tr, i, root, "codegen.generate", &stageSum, func() (string, error) {
		mod, st, err := codegen.Generate(placed.Fn, cfg.Target)
		if err != nil {
			return "", err
		}
		cgStats = st
		return mod.String(), nil
	})
	if err != nil {
		return 0, 0, err
	}
	rep, err := stage(tr, i, root, "timing.analyze", &stageSum, func() (timing.Report, error) {
		return timing.Analyze(placed.Fn, cfg.Target, cfg.Device, timing.DefaultOptions())
	})
	if err != nil {
		return 0, 0, err
	}

	var selKey string
	tr.timed(i, root, "pipeline.stage_keys", func() {
		selKey = pipeline.SelectKeyFor(cfg, f)
		pipeline.CascadeKeyFor(cfg, af)
		pipeline.PlaceKeyFor(cfg, opt)
		pipeline.OutputKeyFor(cfg, placed.Fn)
	})
	wire := server.ArtifactJSON{
		Asm: opt.String(), Placed: placed.Fn.String(), Verilog: verilog,
		LUTs: cgStats.Luts, DSPs: cgStats.Dsps, FFs: cgStats.FFs, Carries: cgStats.Carries,
		CriticalNs: rep.CriticalNs, FMaxMHz: rep.FMaxMHz,
		CascadeChains: cst.Chains, SolverSteps: placed.SolverSteps,
	}
	var rendered []byte
	tr.timed(i, root, "server.encode", func() { rendered, err = json.Marshal(wire) })
	if err != nil {
		return 0, 0, err
	}

	// Store/lookup round trips on each cache tier, with this kernel's own
	// payloads and keys.
	payload := []byte(wire.Asm)
	tr.timed(i, root, "stagecache.store", func() { rp.rtStage.Store(ctx, pipeline.StageSelect, selKey, payload) })
	tr.timed(i, root, "stagecache.lookup", func() { rp.rtStage.Lookup(ctx, pipeline.StageSelect, selKey) })
	if placed.Anchors != nil {
		rp.rtHints.Record(ctx, route, placed.Anchors)
		tr.timed(i, root, "hintcache.lookup", func() { rp.rtHints.Lookup(ctx, route) })
	}
	tr.timed(i, root, "cache.add", func() { rp.rtArts.Add(key, rendered) })
	tr.timed(i, root, "cache.get_hit", func() { rp.rtArts.Get(key) })
	tr.timed(i, root, "cache.disk_put", func() { err = rp.rtDisk.Put(ctx, key, rendered) })
	if err != nil {
		return 0, 0, err
	}
	tr.timed(i, root, "cache.disk_get", func() { rp.rtDisk.Get(ctx, key) })

	compileDur = tr.timed(i, root, "pipeline.compile", func() { _, err = pipeline.Compile(ctx, wired, f) })
	if err != nil {
		return 0, 0, err
	}

	rp.kernels++
	rp.instrs += float64(len(f.Body))
	rp.asmInstrs += float64(len(af.Body))
	rp.chains += float64(cst.Chains)
	rp.vbytes += float64(len(verilog))
	rp.luts += float64(cgStats.Luts)
	rp.dsps += float64(cgStats.Dsps)
	return stageSum, compileDur, nil
}

// stage runs one pipeline stage under a span and adds its duration to sum.
func stage[T any](tr *tracer, i, root int, name string, sum *time.Duration, fn func() (T, error)) (out T, err error) {
	*sum += tr.timed(i, root, name, func() { out, err = fn() })
	return out, err
}

// proxyHop measures what the router adds to a hot /compile: the same
// resident kernel requested through the router and straight from the
// backend that owns it, one connection, medians of five.
func proxyHop(cl *cluster, rp *replayer, prefill []request) (float64, error) {
	callers := map[string]*caller{}
	defer func() {
		for _, c := range callers {
			c.close()
		}
	}()
	var buf bytes.Buffer
	timeOf := func(base string, r request) (float64, error) {
		if callers[base] == nil {
			callers[base] = newCaller(base)
		}
		var us []float64
		for n := 0; n < 5; n++ {
			t0 := time.Now()
			if status := callers[base].post(r.path, r.body, &buf); status != http.StatusOK {
				return 0, fmt.Errorf("proxy-hop probe: status %d from %s", status, base)
			}
			us = append(us, float64(time.Since(t0))/1e3)
		}
		return median(us), nil
	}
	var hops []float64
	for _, r := range prefill[:min(len(prefill), 32)] {
		if r.kind != kindHot {
			continue
		}
		irs, err := kernelIRs(r)
		if err != nil {
			return 0, err
		}
		f, err := ir.Parse(irs[0])
		if err != nil {
			return 0, err
		}
		owner := rp.ring.Owner(pipeline.HintKeyFor(rp.plain[r.family], f))
		via, err := timeOf(cl.front, r)
		if err != nil {
			return 0, err
		}
		direct, err := timeOf(cl.backends[owner], r)
		if err != nil {
			return 0, err
		}
		hops = append(hops, via-direct)
	}
	if len(hops) == 0 {
		return 0, nil
	}
	return median(hops), nil
}

// microBatch times in-process batch.Compile of the schedule's first 16
// /compile kernels with one worker and with two.
func microBatch(ctx context.Context, rp *replayer, sched []request, set func(string, float64)) error {
	var jobs []batch.Job
	for _, r := range sched {
		if r.path != "/compile" {
			continue
		}
		irs, err := kernelIRs(r)
		if err != nil {
			return err
		}
		f, err := ir.Parse(irs[0])
		if err != nil {
			return err
		}
		jobs = append(jobs, batch.Job{Func: f})
		if len(jobs) == 16 {
			break
		}
	}
	// The first pass after the replay runs several times slower than any
	// later one, whatever its worker count, so one pass is thrown away and
	// each setting is the median of three alternating passes.
	var rates [2][]float64
	for pass := 0; pass < 7; pass++ {
		n := (pass + 1) % 2
		_, st, err := batch.Compile(ctx, rp.plain[famUltrascale], jobs, batch.Options{Jobs: n + 1})
		if err != nil {
			return err
		}
		if st.Failed > 0 {
			return fmt.Errorf("batch microbenchmark: %d of %d kernels failed", st.Failed, st.Kernels)
		}
		if pass > 0 {
			rates[n] = append(rates[n], st.KernelsPerSec)
		}
	}
	jobs1, jobs2 := median(rates[0]), median(rates[1])
	set("batch.kernels_per_s.jobs1", jobs1)
	set("batch.kernels_per_s.jobs2", jobs2)
	set("batch.scaling", ratio(jobs2, jobs1))
	return nil
}

// microExplore times explore.Enumerate and a 12-variant explore.Run of a
// small DSP kernel, first with an empty stage memo, then again warm.
func microExplore(ctx context.Context, rp *replayer, seed int64, set func(string, float64)) error {
	k := kernelgen.New(seed).SmallDSP()
	var enumUS []float64
	for n := 0; n < 5; n++ {
		t0 := time.Now()
		if _, err := explore.Enumerate(k.F, 12); err != nil {
			return err
		}
		enumUS = append(enumUS, float64(time.Since(t0))/1e3)
	}
	set("explore.enumerate_us", median(enumUS))
	cfg := *rp.plain[famUltrascale]
	cfg.StageCache, cfg.HintCache = stagecache.New(0), hintcache.New(0)
	for _, name := range []string{"explore.run_ms_cold", "explore.run_ms_warm"} {
		t0 := time.Now()
		res, err := explore.Run(ctx, &cfg, k.F, explore.Options{MaxVariants: 12, Jobs: numClients()})
		if err != nil {
			return err
		}
		if res.Partial {
			return fmt.Errorf("explore microbenchmark: partial sweep")
		}
		set(name, float64(time.Since(t0))/1e6)
	}
	return nil
}

// runTraced is the traced variant of a run: an untraced reference window
// over the first eighth of the schedule, a traced window over the next
// quarter (bounded by count, so server-side counts repeat exactly for a
// seed), /stats read before and after it, the oracle, then the in-process
// replay of every replayStride-th traced request, the proxy-hop probe
// and the batch and explore microbenchmarks. It fills every per-layer
// metric and writes trace.jsonl.
func runTraced(ctx context.Context, e env, w workload, seed int64, seconds float64, pl *plan, cl *cluster, refs [][]byte,
	keep func(int) bool, fails *failureLog, res *runResult) error {
	tr := &tracer{t0: time.Now()}
	rp, err := newReplayer(w, tr, cl.dir)
	if err != nil {
		return err
	}
	for _, r := range pl.prefill {
		if status, _ := rp.serve(r); status != http.StatusOK {
			return fmt.Errorf("in-process prefill (%s): status %d", r.kind, status)
		}
	}

	refCount, tracedCount := len(pl.sched)/8, len(pl.sched)/4
	bound := time.Duration(3 * seconds * float64(time.Second))
	win0, st0, err := measure(ctx, cl, pl.sched, 0, refCount, bound, keep, nil, fails)
	if err != nil {
		return err
	}
	before, err := snapStats(cl)
	if err != nil {
		return err
	}
	t0 := time.Now()
	win, st, err := measure(ctx, cl, pl.sched, refCount, tracedCount, bound, keep, nil, fails)
	if err != nil {
		return err
	}
	after, err := snapStats(cl)
	if err != nil {
		return err
	}
	// The client spans are the latency records every run keeps, so the
	// traced window costs the program nothing extra yet; overhead_pct then
	// reads the noise floor between two back-to-back windows.
	for i := refCount; i < win.done; i++ {
		o := &win.outs[i]
		tr.add(i, 0, "client"+pl.sched[i].path, t0.Add(o.start), t0.Add(o.start+o.latency))
	}
	checkReferences(seed, pl, refs, fails)
	checkWindow(seed, pl, refs, win0, 0, fails)
	checkWindow(seed, pl, refs, win, refCount, fails)

	set := func(name string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unitOf(name)} }
	degraded := 0
	for _, o := range win.outs[refCount:win.done] {
		degraded += o.degraded
	}
	for i := refCount; i < win.done; i += replayStride {
		if o := &win.outs[i]; o.status == http.StatusOK {
			if err := rp.replay(ctx, i, pl.sched[i], o.hit); err != nil {
				return err
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}

	for _, name := range []string{"ir.parse", "ir.canonical_hash", "ir.structural_hash", "isel.select",
		"cascade.apply", "place.place", "codegen.generate", "timing.analyze", "pipeline.compile",
		"cache.get_hit", "cache.add", "cache.disk_get", "cache.disk_put", "stagecache.lookup",
		"stagecache.store", "hintcache.lookup", "server.handler_hit", "server.handler_miss",
		"server.encode", "shard.ring_pick"} {
		set(name+"_us", tr.medianUS(name))
	}
	set("cache.key_us", tr.medianUS("cache.key"))
	set("pipeline.stage_key_us", tr.medianUS("pipeline.stage_keys"))
	set("pipeline.self_us", medianOrZero(rp.pipelineSelfUS))
	set("server.self_miss_us", medianOrZero(rp.serverSelfUS))
	set("ir.parse_mb_per_s", ratio(rp.parseBytes/1e6, rp.parseTime.Seconds()))
	n := float64(rp.kernels)
	set("ir.instrs", ratio(rp.instrs, n))
	set("isel.asm_instrs", ratio(rp.asmInstrs, n))
	set("cascade.chains", ratio(rp.chains, n))
	set("codegen.verilog_bytes", ratio(rp.vbytes, n))
	set("codegen.luts", ratio(rp.luts, n))
	set("codegen.dsps", ratio(rp.dsps, n))
	set("isel.library_build_ms", rp.libraryMS)
	set("place.degraded", float64(degraded))

	layerCounts(before, after, st.artifacts, set)
	set("server.peak_rss_mb", st.peakRSSMB)
	set("server.resp_bytes", st.respBytes)
	set("server.shed", float64(st.shed))
	set("client.latency_p99_ms", quantile(st.lat, 0.99))
	set("client.latency_p999_ms", quantile(st.lat, 0.999))
	set("client.cpu_share", ratio(st.clientCPU, st.clientCPU+st.serverCPU))
	set("trace.overhead_pct", 100*ratio(quantile(st.lat, 0.5)-quantile(st0.lat, 0.5), quantile(st0.lat, 0.5)))

	hop := 0.0
	if w.spec.shard {
		if hop, err = proxyHop(cl, rp, pl.prefill); err != nil {
			return err
		}
	}
	set("shard.proxy_hop_us", hop)
	if err := microBatch(ctx, rp, pl.sched, set); err != nil {
		return err
	}
	if err := microExplore(ctx, rp, seed, set); err != nil {
		return err
	}

	res.Attempted = st0.attempted + st.attempted
	set("client.error_rate", ratio(float64(fails.n), float64(res.Attempted)))
	sort.SliceStable(tr.spans, func(a, b int) bool { return tr.spans[a].Req < tr.spans[b].Req })
	return tr.write(filepath.Join(e.workDir, "trace.jsonl"))
}

func medianOrZero(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}
