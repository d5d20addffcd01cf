package shard

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"reticle/internal/batch"
	"reticle/internal/rerr"
	"reticle/internal/server"
)

// batchJobs bounds a /batch's concurrent per-kernel proxies when the
// request sets no jobs.
const batchJobs = 8

// Batch fans the distinct misses of a /batch the edge planned (the
// router's local store is its disk tier) out as /compile proxies, at most
// `jobs` (else batchJobs) at once. Each kernel's proxy walk fills its
// sub-account, its attempts carrying the request's id suffixed with the
// kernel's index. The footer's wall time and rate are the router's.
func (rt *Router) Batch(ctx context.Context, cancel context.CancelFunc, w http.ResponseWriter, acct *server.Account, plan *server.BatchPlan) error {
	start := time.Now()
	var fwds [][]byte
	if len(plan.Misses) > 0 {
		fwds = plan.ForwardKernels()
	}
	fan := batch.FanOut(ctx, len(plan.Misses), cmp.Or(plan.Options.Jobs, batchJobs),
		func(j int) server.Outcome {
			m := plan.Misses[j]
			return rt.routeMiss(ctx, &plan.Subs[j], plan, m, fwds[m.Index], acct.ID+"/"+strconv.Itoa(m.Index))
		},
		func(_ int, cause error) server.Outcome {
			// Workers run outside the handler's recover, and a batch must
			// never die to one kernel.
			if rerr.CodeOf(cause) == "internal_panic" {
				return server.Outcome{Err: failed("internal panic while routing the kernel", "internal_panic")}
			}
			return server.Outcome{Err: failed("request cancelled before the kernel was routed", "cancelled")}
		})
	plan.Answer(w, cancel, fan.Wait, func(st *server.BatchStatsJSON) {
		fan.Drain()
		wall := time.Since(start)
		st.WallNS = wall.Nanoseconds()
		if wall > 0 {
			st.KernelsPerSec = float64(st.Kernels) / wall.Seconds()
		}
	})
	return nil
}

// failed is the failure of a kernel that never got an artifact, as its
// /batch result shows it: msg and code.
func failed(msg, code string) error { return rerr.New(rerr.Permanent, code, msg) }

// routeMiss proxies one deduped kernel as a /compile of fwd, routed by
// its text key (see proxyKernel), into the kernel's sub-account, its
// attempts carrying id. Each kernel gets its own deadline from the
// client's timeout_ms (stamped downstream by the proxy layer), so one
// wedged kernel cannot silently burn the whole batch's budget. The
// router does not parse: a kernel whose IR does not parse is the
// backend's 400, and every other check ran at the router's front door,
// so a 400 is that kernel's parse_failed result. A failure names the
// kernel as the backend parsed it, for a kernel sent unnamed. The
// outcome keeps the answer's buffer, which the edge puts back once the
// batch is written.
func (rt *Router) routeMiss(ctx context.Context, acct *server.Account, plan *server.BatchPlan, m server.BatchMiss, fwd []byte, id string) server.Outcome {
	kctx, cancel := plan.Within(ctx, plan.Options.KernelTimeout)
	defer cancel()
	out := rt.proxyKernel(kctx, acct, id, m.Key, forward{"/compile", "", fwd})
	switch {
	case out.Err != nil:
		return out
	case out.Status == http.StatusOK:
		// The artifact is a slice of the backend's own bytes, spliced into
		// this batch's framing as it stands.
		ans, degraded, ok := server.ParseCompileFrame(out.Body)
		if !ok {
			out.Err = failed("backend returned an unreadable response", "backend_error")
			return out
		}
		rt.diskPut(ctx, plan.Kernels[m.Index], ans, degraded)
		out.CompileResponseWire, out.Degraded = ans, degraded
		return out
	}
	var er server.ErrorResponse
	if err := json.Unmarshal(out.Body, &er); err != nil || er.Error == "" {
		out.Err = failed(fmt.Sprintf("backend answered status %d", out.Status), "backend_error")
		return out
	}
	switch {
	case er.ErrorCode != "":
	case out.Status == http.StatusBadRequest:
		er.ErrorCode = "parse_failed"
	default:
		er.ErrorCode = "backend_error"
	}
	out.Name, out.Err = er.Name, failed(er.Error, er.ErrorCode)
	return out
}
