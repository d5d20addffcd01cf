package shard

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"reticle/internal/cache"
	"reticle/internal/ir"
	"reticle/internal/pipeline"
	"reticle/internal/rerr"
	"reticle/internal/server"
)

// routeJob is one deduped kernel to proxy: its forward body, and the
// shared outcome every duplicate kernel copies once done is closed.
type routeJob struct {
	key      cache.Key // canonical artifact key: dedupe + router disk cache
	routeKey cache.Key // structural hint key: ring placement (see proxyKernel)
	fwd      []byte
	done     chan struct{}
	// Written before done closes, read only after.
	res      server.BatchKernelResultWire // Name left empty; per-kernel names overlay it
	compiled bool                         // backend answered 200 with cache "miss"
}

// batchPlan is the routed plan for one /batch request: per-kernel
// results with parse failures and router-disk hits already resolved,
// plus the deduped jobs that must cross the network.
type batchPlan struct {
	results []server.BatchKernelResultWire
	jobIdx  []int // per kernel: index into jobs, or -1 when resolved
	jobs    []*routeJob
}

// planBatch parses every kernel (per-kernel errors never fail the
// batch, matching the backend contract), serves router-disk hits
// locally, and dedupes the remaining kernels by cache key so a sweep
// with duplicates crosses the network once per unique kernel.
func (rt *Router) planBatch(r *http.Request, famName string, cfg *pipeline.Config, req server.BatchRequest) batchPlan {
	plan := batchPlan{
		results: make([]server.BatchKernelResultWire, len(req.Kernels)),
		jobIdx:  make([]int, len(req.Kernels)),
	}
	jobByKey := map[cache.Key]int{}
	for i, k := range req.Kernels {
		plan.jobIdx[i] = -1
		name := k.Name
		f, perr := ir.Parse(k.IR)
		if perr == nil && name == "" {
			name = f.Name
		}
		plan.results[i] = server.BatchKernelResultWire{Name: name}
		if perr != nil {
			plan.results[i].Error = fmt.Sprintf("parse: %v", perr)
			plan.results[i].ErrorCode = "parse_failed"
			continue
		}
		key := cache.KeyFor(cfg, f)
		if raw, ok := rt.diskGet(r.Context(), key); ok {
			plan.results[i].OK = true
			plan.results[i].Cache = "hit"
			plan.results[i].Artifact = raw
			continue
		}
		if j, queued := jobByKey[key]; queued {
			plan.jobIdx[i] = j
			continue
		}
		fwd, err := json.Marshal(server.CompileRequest{
			Name: name, Family: famName, IR: k.IR, TimeoutMS: req.TimeoutMS,
		})
		if err != nil {
			plan.results[i].Error = "marshal forward request"
			plan.results[i].ErrorCode = "internal_error"
			continue
		}
		jobByKey[key] = len(plan.jobs)
		plan.jobIdx[i] = len(plan.jobs)
		plan.jobs = append(plan.jobs, &routeJob{
			key:      key,
			routeKey: cache.Key(pipeline.HintKeyFor(cfg, f)),
			fwd:      fwd,
			done:     make(chan struct{}),
		})
	}
	return plan
}

// runJob proxies one deduped kernel and records its shared outcome.
// Panics (an armed panic fault, a bug) are contained to a typed
// per-kernel failure: workers run outside the handler's recover, and a
// batch must never die to one kernel. Each job gets its own deadline
// from the client's timeout_ms (stamped downstream by the proxy layer),
// so one wedged kernel cannot silently burn the whole batch's budget.
func (rt *Router) runJob(r *http.Request, timeoutMS int64, j *routeJob) {
	defer close(j.done)
	defer func() {
		if rec := recover(); rec != nil {
			j.res = server.BatchKernelResultWire{
				Error:     "internal panic while routing the kernel",
				ErrorCode: "internal_panic",
			}
		}
	}()
	ctx, cancel := rt.requestCtx(r, timeoutMS)
	defer cancel()
	out := rt.proxyKernel(ctx, j.routeKey, "/compile", j.fwd)
	if out.err != nil {
		j.res.Error = rerr.Message(out.err)
		j.res.ErrorCode = rerr.CodeOf(out.err)
		return
	}
	if out.status == http.StatusOK {
		// The artifact is a slice of the backend's own bytes, spliced into
		// this batch's framing as it stands.
		mark, artifact, ok := server.ParseCompileFrame(out.body)
		if !ok {
			j.res.Error = "backend returned an unreadable response"
			j.res.ErrorCode = "backend_error"
			return
		}
		j.res.OK = true
		j.res.Cache = mark
		j.res.Artifact = artifact
		j.compiled = mark == "miss"
		rt.diskPut(r.Context(), j.key, artifact)
		return
	}
	var er server.ErrorResponse
	if err := json.Unmarshal(out.body, &er); err != nil || er.Error == "" {
		j.res.Error = fmt.Sprintf("backend answered status %d", out.status)
		j.res.ErrorCode = "backend_error"
		return
	}
	j.res.Error = er.Error
	j.res.ErrorCode = er.ErrorCode
	if j.res.ErrorCode == "" {
		j.res.ErrorCode = "backend_error"
	}
}

// overlay copies a job's shared outcome onto kernel i, keeping the
// kernel's own name.
func (plan *batchPlan) overlay(i int) {
	j := plan.jobIdx[i]
	if j < 0 {
		return
	}
	name := plan.results[i].Name
	plan.results[i] = plan.jobs[j].res
	plan.results[i].Name = name
}

// stats aggregates the footer counters once every job has finished.
func (plan *batchPlan) stats(wall time.Duration) server.BatchStatsJSON {
	st := server.BatchStatsJSON{Kernels: len(plan.results), WallNS: wall.Nanoseconds()}
	for i := range plan.results {
		if plan.results[i].OK {
			st.Succeeded++
			if server.ArtifactDegraded(plan.results[i].Artifact) {
				st.Degraded++
			}
		} else {
			st.Failed++
		}
	}
	for _, j := range plan.jobs {
		if j.compiled {
			st.Compiled++
		}
	}
	if wall > 0 {
		st.KernelsPerSec = float64(st.Kernels) / wall.Seconds()
	}
	return st
}

func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req server.BatchRequest
	if !server.DecodeJSON(w, r, rt.opts.MaxBodyBytes, &req) {
		return
	}
	famName, cfg, err := rt.Family(req.Family)
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(req.Kernels) == 0 {
		server.WriteError(w, http.StatusBadRequest, "batch: no kernels")
		return
	}
	if req.Jobs < 0 {
		server.WriteError(w, http.StatusBadRequest, "batch: jobs must be >= 0")
		return
	}
	if req.TimeoutMS < 0 {
		server.WriteError(w, http.StatusBadRequest, "batch: timeout_ms must be >= 0")
		return
	}
	jobs := req.Jobs
	if jobs == 0 {
		jobs = rt.opts.Jobs
	}

	start := time.Now()
	plan := rt.planBatch(r, famName, cfg, req)

	// Bounded fan-out: `jobs` proxy workers pull deduped kernels off a
	// queue; each job's outcome is published exactly once via its done
	// channel, so the emitters below never race a worker. A worker can
	// never do more than one job's work at once, so the client-supplied
	// count is clamped to the deduped job count — without this a request
	// claiming {"jobs": 1e9} would spawn a billion idle goroutines.
	if jobs > len(plan.jobs) {
		jobs = len(plan.jobs)
	}
	queue := make(chan *routeJob)
	for g := 0; g < jobs; g++ {
		go func() {
			for j := range queue {
				rt.runJob(r, req.TimeoutMS, j)
			}
		}()
	}
	go func() {
		defer close(queue)
		for i, j := range plan.jobs {
			select {
			case queue <- j:
			case <-r.Context().Done():
				// Resolve this job and every later undispatched one as a
				// typed cancellation: each done must still close exactly
				// once, or the emitters below block forever and leak the
				// handler on every mid-dispatch disconnect.
				for _, rest := range plan.jobs[i:] {
					rest.res.Error = "request cancelled before the kernel was routed"
					rest.res.ErrorCode = "cancelled"
					close(rest.done)
				}
				return
			}
		}
	}()

	// One ordered result loop; the framing (NDJSON lines as each kernel's
	// proxy answers, or their buffered splice) is the backends' own, so a
	// client cannot tell which tier it is talking to. Every job has a
	// kernel waiting on it, so the footer is written after the last one.
	frame := server.NewBatchFrame(w, req.Stream || r.Header.Get("Accept") == server.NDJSONContentType, famName)
	for i := range plan.results {
		if j := plan.jobIdx[i]; j >= 0 {
			<-plan.jobs[j].done
			plan.overlay(i)
		}
		if frame.Result(plan.results[i]) != nil {
			return // client gone; the workers are bounded by the request context
		}
	}
	frame.Close(plan.stats(time.Since(start)))
}
