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

// routed is one deduped kernel's shared outcome, the miss's result for
// BatchPlan.Answer. An artifact is a slice of the backend's answer, held
// in out's buffer until the handler has written the batch out.
type routed struct {
	res      server.BatchKernelResultWire // Name and Cache are the backend's, when it answered 200
	degraded bool                         // the artifact carries the degraded mark
	out      proxyOutcome
}

// failed is the routed outcome of a kernel that never got an artifact.
func failed(msg, code string) routed {
	return routed{res: server.BatchKernelResultWire{Error: msg, ErrorCode: code}}
}

// routeMiss proxies one deduped kernel as a /compile of fwd, routed by
// its text key (see proxyKernel), into the kernel's sub-account, its
// attempts carrying id. Each kernel gets its own deadline from the
// client's timeout_ms (stamped downstream by the proxy layer), so one
// wedged kernel cannot silently burn the whole batch's budget. The
// router does not parse: a kernel whose IR does not parse is the
// backend's 400, and every other check ran at the router's front door,
// so a 400 is that kernel's parse_failed result. A failure names the
// kernel as the backend parsed it, for a kernel sent unnamed.
func (rt *Router) routeMiss(ctx context.Context, acct *server.Account, plan *server.BatchPlan, m server.BatchMiss, fwd []byte, id string) routed {
	kctx, cancel := plan.Within(ctx, plan.Options.KernelTimeout)
	defer cancel()
	out := rt.proxyKernel(kctx, acct, id, m.Key, forward{"/compile", "", fwd})
	if out.err != nil {
		return failed(rerr.Message(out.err), rerr.CodeOf(out.err))
	}
	if out.status == http.StatusOK {
		// The artifact is a slice of the backend's own bytes, spliced into
		// this batch's framing as it stands.
		ans, degraded, ok := server.ParseCompileFrame(out.body)
		if !ok {
			return failed("backend returned an unreadable response", "backend_error")
		}
		rt.diskPut(ctx, plan.Kernels[m.Index], ans, degraded)
		return routed{degraded: degraded, out: out,
			res: server.BatchKernelResultWire{Name: ans.Name, OK: true, Cache: ans.Cache, Artifact: ans.Artifact}}
	}
	defer out.release()
	var er server.ErrorResponse
	if err := json.Unmarshal(out.body, &er); err != nil || er.Error == "" {
		return failed(fmt.Sprintf("backend answered status %d", out.status), "backend_error")
	}
	switch {
	case er.ErrorCode != "":
	case out.status == http.StatusBadRequest:
		er.ErrorCode = "parse_failed"
	default:
		er.ErrorCode = "backend_error"
	}
	return routed{res: server.BatchKernelResultWire{Name: er.Name, Error: er.Error, ErrorCode: er.ErrorCode}}
}

// handleBatch plans the request exactly as a backend does (the router's
// local store is its disk tier) and fans the distinct misses out as
// /compile proxies, at most `jobs` (else batchJobs) at once. The answer — NDJSON lines as
// each kernel's proxy answers, or their buffered splice — is written by
// the backends' own BatchPlan.Answer, so a client cannot tell which tier
// it is talking to; the footer's wall time is the router's. Each kernel's
// proxy walk fills a sub-account; they join the request's once the
// fan-out has drained.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	acct := server.AccountOf(w)
	start := time.Now()
	plan, ok := server.PlanBatch(w, r, rt.FamilySet, rt.diskGet)
	if !ok {
		return
	}
	ctx, cancel := plan.Within(r.Context(), 0)
	defer cancel()
	acct.Deadline, _ = ctx.Deadline()
	var fwds [][]byte
	if len(plan.Misses) > 0 {
		fwds = plan.ForwardKernels()
	}
	subs := make([]server.Account, len(plan.Misses)) // [j] is written by miss j's worker, read once the fan-out has drained
	fan := batch.FanOut(ctx, len(plan.Misses), cmp.Or(plan.Options.Jobs, batchJobs),
		func(j int) routed {
			m := plan.Misses[j]
			return rt.routeMiss(ctx, &subs[j], plan, m, fwds[m.Index], acct.ID+"/"+strconv.Itoa(m.Index))
		},
		func(_ int, cause error) routed {
			// Workers run outside the handler's recover, and a batch must
			// never die to one kernel.
			if rerr.CodeOf(cause) == "internal_panic" {
				return failed("internal panic while routing the kernel", "internal_panic")
			}
			return failed("request cancelled before the kernel was routed", "cancelled")
		})

	// The relayed artifacts are written out of their answers' buffers, so
	// those go back only once the frame is closed or the client is gone.
	defer func() {
		for _, out := range fan.Drain() {
			out.out.release()
		}
	}()
	plan.Answer(w, cancel, func(j int) (server.BatchKernelResultWire, bool) {
		out := fan.Wait(j)
		return out.res, out.degraded
	}, func(st *server.BatchStatsJSON) {
		fan.Drain()
		acct.Merge(subs...)
		wall := time.Since(start)
		st.WallNS = wall.Nanoseconds()
		if wall > 0 {
			st.KernelsPerSec = float64(st.Kernels) / wall.Seconds()
		}
	})
}
