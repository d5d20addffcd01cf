// The tail-tolerant proxy core (DESIGN.md §14). proxyKernel routes one
// serialized request body across the ring with three defenses the plain
// re-hash walk lacks:
//
//   - Circuit breakers: each backend's proxy outcome stream feeds a
//     per-backend breaker; an open breaker removes the backend from the
//     normal walk, so a backend that is up-but-sick (slow, erroring)
//     stops charging every request its timeout. When every breaker
//     refuses, a last-resort pass ignores them — availability beats
//     breaker hygiene on total-trip.
//   - Hedged requests: for idempotent /compile proxies, if the primary
//     has not answered within Options.HedgeAfter, one speculative
//     attempt races it on the next ring backend; first success wins and
//     the loser is cancelled. A global budget caps hedges at ~10% of
//     proxy calls so hedging can only ever trim the tail, never double
//     the load of an already-melting ring.
//   - Deadline budgets: the remaining context budget is checked before
//     every dispatch, retry, and hedge, and each attempt stamps its
//     absolute deadline downstream as the X-Reticle-Deadline header, so
//     a 2s client budget can never commission 30s of backend work.
//
// Outcome recording is collector-side: only results the walk actually
// received are scored against liveness marks and breakers. A hedge
// loser cancelled after the winner answered is dropped unrecorded —
// a cancelled attempt says nothing about the backend's health.
package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"reticle/internal/cache"
	"reticle/internal/rerr"
	"reticle/internal/server"
)

// minDispatchBudget is the smallest remaining deadline budget worth
// spending a network attempt on: below this, the attempt would expire
// in flight, so the router fails fast with a typed 504 instead.
const minDispatchBudget = 2 * time.Millisecond

// deadlineBudgetErr returns the typed deadline error when ctx has too
// little budget left to dispatch another attempt, nil otherwise.
func deadlineBudgetErr(ctx context.Context) error {
	dl, ok := ctx.Deadline()
	if !ok || time.Until(dl) >= minDispatchBudget {
		return nil
	}
	return rerr.DeadlineBudget("deadline_exhausted",
		"deadline budget exhausted before the request could be dispatched")
}

// attemptResult is one proxy attempt's raw outcome, scored by the
// collector (proxyWalk.classify), never by the goroutine that ran it.
type attemptResult struct {
	bi         int
	hedged     bool
	status     int
	body       []byte
	buf        *bytes.Buffer // pooled, holding body; it goes back only through the outcome it becomes
	retryAfter string
	err        error
	// ownBudget: the deadline stamped on this attempt was the request's
	// own, not the tighter per-attempt ProxyTimeout.
	ownBudget bool
}

// forward is one request as the router sends it on: the path, the
// client's Accept header, and the body.
type forward struct {
	path, accept string
	body         []byte
}

// proxyWalk is the per-request state of one proxyKernel ring walk.
type proxyWalk struct {
	rt        *Router
	ctx       context.Context
	acct      *server.Account // the request's, or its /batch kernel's; written by the walk's goroutine only
	id        string          // the request id its attempts extend
	fwd       forward
	order     []int
	hedgeOK   bool  // path is idempotent and hedging is configured
	raced     bool  // the one hedge race per request has been spent
	attempts  int   // walk steps taken (rehash accounting)
	lastErr   error // most recent attempt failure
	budgetErr error // set when the deadline budget ran out mid-walk
}

// proxyKernel routes one forward — its body to its path — by routeKey:
// the ring's preference order is walked live-and-breaker-closed first,
// then dead-marked (liveness marks are advisory and a peer may have
// restarted), then — only if no attempt was possible at all — once more
// ignoring the breakers. Each transport failure marks the backend dead,
// feeds its breaker, and re-hashes onto the next peer; only when every
// pass is exhausted does the request fail with a typed transient error
// the client can retry. Backend 502/503/504 answers count as refusals
// too (a draining or overloaded peer re-hashes) — except a backend's
// typed 504 deadline_exceeded on the request's own budget, which ends
// the walk as the router's typed 504 deadline_exhausted, penalty-free
// (see classify); every other status,
// including 429 (relayed with its Retry-After — re-hashing a shed would
// amplify load on an overloaded ring) and per-kernel 4xx/422/500, is
// the backend's authoritative answer and is relayed as-is.
//
// The handlers route by the kernel's text key (pipeline.TextKeyFor),
// which the front door derives without a parse: the same text always
// lands on the same backend. An edited kernel is new text, so it may
// land on a backend that holds none of its predecessor's placement
// hints; measured on shard-mixed, that locality cost less than the parse
// it took to keep it (DESIGN.md §11).
//
// The walk's attempts, rehashes, hedges and outcome go on acct; attempt
// n carries the request id id+".an" downstream.
func (rt *Router) proxyKernel(ctx context.Context, acct *server.Account, id string, routeKey cache.Key, fwd forward) server.Outcome {
	rt.proxyCalls.Add(1)
	if ferr := FaultPick.Fire(ctx); ferr != nil {
		return server.Outcome{Err: rerr.Wrap(rerr.ClassOf(ferr), "shard_route_failed",
			"routing failed before any backend was tried", ferr)}
	}
	if err := deadlineBudgetErr(ctx); err != nil {
		return server.Outcome{Err: err}
	}
	w := &proxyWalk{
		rt: rt, ctx: ctx, acct: acct, id: id, fwd: fwd,
		order:   rt.ring.Pick(string(routeKey)),
		hedgeOK: fwd.path == "/compile" && rt.opts.HedgeAfter > 0,
	}
	// Three passes over the ring's preference order, differing only in
	// who is admitted: backends believed alive whose breaker admits
	// traffic; then dead-marked ones (breaker still consulted); then, only
	// if nothing was attempted at all because every breaker refused,
	// everyone — availability beats breaker hygiene, and an open breaker
	// swallows the Records, so that walk teaches it nothing.
	breakerAdmits := func(alive bool) func(*backend) (bool, bool) {
		return func(b *backend) (bool, bool) {
			if b.alive.Load() != alive {
				return false, false
			}
			return b.br.allow()
		}
	}
	passes := [...]func(*backend) (allowed, probe bool){
		breakerAdmits(true),
		breakerAdmits(false),
		func(*backend) (bool, bool) { return true, false },
	}
	for pass, admit := range passes {
		if pass > 0 && w.stop() || pass == len(passes)-1 && w.attempts > 0 {
			break
		}
		for _, bi := range w.order {
			allowed, probe := admit(rt.backends[bi])
			if !allowed {
				continue
			}
			if out, done := w.attempt(bi, probe); done {
				return out
			}
			if w.stop() {
				break
			}
		}
	}
	if w.budgetErr == nil && errors.Is(ctx.Err(), context.DeadlineExceeded) {
		// The deadline fired between attempts (e.g. while a backend was
		// burning the last of the budget): same story as failing the
		// pre-dispatch check.
		w.budgetErr = rerr.DeadlineBudget("deadline_exhausted",
			"deadline budget exhausted while walking the ring")
	}
	if w.budgetErr != nil {
		// The deadline ran out mid-walk: a typed 504, not an outage —
		// the ring may be perfectly healthy.
		return server.Outcome{Err: w.budgetErr}
	}
	acct.N[server.Outages]++
	if cerr := ctx.Err(); cerr != nil && w.lastErr == nil {
		w.lastErr = cerr
	}
	return server.Outcome{Err: rerr.Wrap(rerr.Transient, "no_live_backends",
		"no live backend could serve the request", w.lastErr)}
}

// stop reports whether the walk should give up dispatching: the request
// context died or the deadline budget ran out.
func (w *proxyWalk) stop() bool {
	return w.ctx.Err() != nil || w.budgetErr != nil
}

// attempt dispatches one walk step against backend bi: a plain attempt,
// or — for the first step of a hedgeable request with an eligible hedge
// peer — a primary/hedge race. probe marks a half-open breaker grant. A
// step the deadline budget refuses is not taken, so it is no rehash; a
// probe its fault fails is, since the last-resort pass gates on it.
func (w *proxyWalk) attempt(bi int, probe bool) (server.Outcome, bool) {
	rt := w.rt
	if err := deadlineBudgetErr(w.ctx); err != nil {
		w.budgetErr = err
		return server.Outcome{}, false
	}
	if w.attempts > 0 {
		w.acct.N[server.Rehashes]++
	}
	w.attempts++
	if probe {
		if ferr := FaultBreakerProbe.Fire(w.ctx); ferr != nil {
			rt.backends[bi].br.record(false)
			w.lastErr = ferr
			return server.Outcome{}, false
		}
	}
	if w.hedgeOK && !w.raced {
		if hbi := w.hedgeTarget(bi); hbi >= 0 {
			return w.race(bi, hbi)
		}
	}
	return w.classify(rt.postAttempt(w.ctx, bi, false, w.fwd, w.nextID()))
}

// nextID counts one attempt sent and returns the id it carries.
func (w *proxyWalk) nextID() string {
	w.acct.N[server.Attempts]++
	return w.id + ".a" + strconv.Itoa(w.acct.N[server.Attempts])
}

// hedgeTarget picks the hedge peer for primary: the next backend in
// ring order after it that is alive with a closed breaker. Half-open
// backends are skipped — a hedge must not spend (or strand) a breaker's
// single probe grant on a request that may never launch it.
func (w *proxyWalk) hedgeTarget(primary int) int {
	past := false
	for _, bi := range w.order {
		if bi == primary {
			past = true
			continue
		}
		if !past {
			continue
		}
		b := w.rt.backends[bi]
		if b.alive.Load() && b.br.stats().State == breakerClosed {
			return bi
		}
	}
	return -1
}

// race runs the primary attempt and, if it has not answered within
// HedgeAfter (and the global hedge budget and deadline budget admit
// it), one speculative attempt on the hedge peer. The first
// authoritative answer wins and the loser is cancelled; a cancelled
// loser's result is dropped unrecorded. When every launched attempt
// fails, both failures have been scored and the walk continues.
func (w *proxyWalk) race(primary, hedgeBi int) (server.Outcome, bool) {
	rt := w.rt
	w.raced = true
	rctx, rcancel := context.WithCancel(w.ctx)
	defer rcancel()
	// Buffered to the racer count: a loser can always deliver and exit,
	// even after the collector has returned.
	resCh := make(chan attemptResult, 2)
	launched := 1
	primaryID := w.nextID()
	go func() { resCh <- rt.postAttempt(rctx, primary, false, w.fwd, primaryID) }()
	timer := time.NewTimer(rt.opts.HedgeAfter)
	defer timer.Stop()
	hedgeArmed := true
	for launched > 0 {
		select {
		case res := <-resCh:
			launched--
			if out, done := w.classify(res); done {
				if res.hedged {
					w.acct.N[server.HedgeWon]++
				}
				return out, true
			}
		case <-timer.C:
			if !hedgeArmed {
				continue
			}
			hedgeArmed = false
			if !rt.hedgeBudgetOK() || deadlineBudgetErr(w.ctx) != nil {
				continue
			}
			rt.hedges.Add(1)
			w.acct.N[server.Hedged]++
			launched++
			hedgeID := w.nextID()
			go func() { resCh <- rt.postAttempt(rctx, hedgeBi, true, w.fwd, hedgeID) }()
		case <-w.ctx.Done():
			w.lastErr = w.ctx.Err()
			return server.Outcome{}, false
		}
	}
	return server.Outcome{}, false
}

// hedgeBudgetOK enforces the global hedge budget: hedges stay within
// ~10% of proxy calls (with a floor of one so the very first eligible
// request can hedge). The budget is what makes hedging safe to leave
// on: under a healthy ring it trims the tail, under an overloaded ring
// it cannot even double-digit-percent the load.
func (rt *Router) hedgeBudgetOK() bool {
	return rt.hedges.Load() < rt.proxyCalls.Load()/10+1
}

// classify scores one received attempt result against the backend's
// liveness mark and breaker, and decides whether it terminates the walk
// (an authoritative answer) or continues it (transport failure or
// refusal). Runs only on the walk's own goroutine.
func (w *proxyWalk) classify(res attemptResult) (server.Outcome, bool) {
	rt := w.rt
	b := rt.backends[res.bi]
	if res.err != nil {
		if w.ctx.Err() != nil {
			// The request died, taking the attempt with it: that is the
			// client's story, not evidence against the backend.
			w.lastErr = res.err
			return server.Outcome{}, false
		}
		b.br.record(false)
		b.alive.Store(false)
		w.lastErr = res.err
		return server.Outcome{}, false
	}
	if res.ownBudget && backendDeadlineExceeded(res) {
		// A healthy backend reporting that the budget this router stamped
		// on the attempt ran out: the client's story, like a request that
		// died in flight. No breaker sample, no re-hash — a peer would
		// only say the same — and never an outage: the walk ends in the
		// typed 504.
		w.budgetErr = rerr.DeadlineBudget("deadline_exhausted",
			"deadline budget exhausted while a backend was serving the request")
		return server.Outcome{}, false
	}
	if res.status == http.StatusBadGateway || res.status == http.StatusServiceUnavailable ||
		res.status == http.StatusGatewayTimeout {
		b.br.record(false)
		w.lastErr = fmt.Errorf("backend %s answered %d", b.url, res.status)
		return server.Outcome{}, false
	}
	// Authoritative answer: the backend is alive and healthy — including
	// a 429, which is the admission controller doing its job, not a
	// failure; re-hashing or breaker-tripping on sheds would amplify
	// load on an overloaded ring.
	b.br.record(true)
	b.alive.Store(true)
	w.acct.N[server.Proxied]++
	out := server.Outcome{Status: res.status, Body: res.body, Buf: res.buf}
	if res.status == http.StatusTooManyRequests {
		w.acct.N[server.ShedForwarded]++
		out.RetryAfter = res.retryAfter
	}
	return out, true
}

// backendDeadlineExceeded reports whether res is a backend's typed 504
// deadline_exceeded: its own fail-fast on the X-Reticle-Deadline it was
// handed, as opposed to a bare 504 from a proxy or a wedged process.
func backendDeadlineExceeded(res attemptResult) bool {
	if res.status != http.StatusGatewayTimeout {
		return false
	}
	var er server.ErrorResponse
	return json.Unmarshal(res.body, &er) == nil && er.ErrorCode == "deadline_exceeded"
}

// postAttempt performs one proxy attempt against backend bi, stamping
// the attempt's absolute deadline downstream as X-Reticle-Deadline so
// the backend inherits the remaining budget instead of its own default,
// and the attempt's request id beside it. The answer is read into a
// server.RelayBuffer; one that becomes the walk's outcome goes back
// once the edge has written it, any other (a lost hedge, a refusal, a
// failed read) is left to the GC.
func (rt *Router) postAttempt(ctx context.Context, bi int, hedged bool, fwd forward, id string) attemptResult {
	res := attemptResult{bi: bi, hedged: hedged}
	fp := FaultProxy
	if hedged {
		fp = FaultHedge
	}
	if ferr := fp.Fire(ctx); ferr != nil {
		res.err = ferr
		return res
	}
	b := rt.backends[bi]
	actx := ctx
	if rt.opts.ProxyTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, rt.opts.ProxyTimeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(actx, "POST", b.url+fwd.path, bytes.NewReader(fwd.body))
	if err != nil {
		res.err = err
		return res
	}
	req.Header.Set("Content-Type", "application/json")
	if fwd.accept != "" {
		req.Header.Set("Accept", fwd.accept)
	}
	req.Header.Set(server.RequestIDHeader, id)
	if dl, ok := actx.Deadline(); ok {
		req.Header.Set(server.DeadlineHeader, strconv.FormatInt(dl.UnixMilli(), 10))
		cdl, cok := ctx.Deadline()
		res.ownBudget = cok && !dl.Before(cdl)
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		res.err = err
		return res
	}
	defer resp.Body.Close()
	// Read one byte past the cap so an over-limit body is detected and
	// refused as a transport failure (re-hash onto the next peer) instead
	// of being truncated and relayed as a well-formed success. A backend
	// that announced its length (every /compile 200 does) is read into a
	// buffer at least that size, not one grown by doubling.
	respBody := server.RelayBuffer()
	if n := resp.ContentLength; n > 0 && n <= maxProxyResponse {
		respBody.Grow(int(n) + bytes.MinRead)
	}
	if _, err := respBody.ReadFrom(io.LimitReader(resp.Body, maxProxyResponse+1)); err != nil {
		res.err = err
		return res
	}
	if respBody.Len() > maxProxyResponse {
		res.err = fmt.Errorf("backend %s response exceeds %d bytes", b.url, maxProxyResponse)
		return res
	}
	res.status = resp.StatusCode
	res.body, res.buf = respBody.Bytes(), respBody
	res.retryAfter = resp.Header.Get("Retry-After")
	return res
}
