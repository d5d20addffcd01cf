package shard

import (
	"encoding/json"
	"fmt"
	"net/http"

	"reticle/internal/cache"
	"reticle/internal/ir"
	"reticle/internal/pipeline"
	"reticle/internal/server"
)

// handleExplore proxies one design-space sweep to a single backend,
// routed by the kernel's structural hint key — the same steering
// /compile uses. Every variant of one kernel shares that structural
// key's canonical subtrees and placement-hint neighborhood, so the
// whole sweep lands on the backend most likely to hold them warm, and
// repeated sweeps of the same kernel keep landing there.
//
// The backend's answer — buffered JSON or a complete NDJSON stream —
// is relayed verbatim; the router never re-scores a sweep. Sweep
// results are not persisted in the router's disk cache: the backend
// caches the per-variant artifacts, so a re-sweep is cheap where it
// matters, and frontier bodies are not addressable by artifact key.
func (rt *Router) handleExplore(w http.ResponseWriter, r *http.Request) {
	var req server.ExploreRequest
	if !server.DecodeJSON(w, r, rt.opts.MaxBodyBytes, &req) {
		return
	}
	famName, cfg, err := rt.Family(req.Family)
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	timeout, ok := server.RequestTimeout(w, req.TimeoutMS)
	if !ok {
		return
	}
	f, err := ir.Parse(req.IR)
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, fmt.Sprintf("parse: %v", err))
		return
	}
	routeKey := cache.Key(pipeline.HintKeyFor(cfg, f))
	name := req.Name
	if name == "" {
		name = f.Name
	}
	// Fold the Accept-header streaming trigger into the forwarded body:
	// the proxy does not forward request headers.
	stream := req.Stream || r.Header.Get("Accept") == server.NDJSONContentType

	fwd, err := json.Marshal(server.ExploreRequest{
		Name: name, Family: famName, IR: req.IR, TimeoutMS: req.TimeoutMS,
		Jobs: req.Jobs, MaxVariants: req.MaxVariants, Stream: stream,
	})
	if err != nil {
		server.WriteError(w, http.StatusInternalServerError, "marshal forward request")
		return
	}
	out, ok := rt.relay(w, r, timeout, routeKey, "/explore", fwd)
	if !ok {
		return
	}
	ct := "application/json"
	if stream && out.status == http.StatusOK {
		ct = server.NDJSONContentType
	}
	w.Header().Set("Content-Type", ct)
	w.WriteHeader(out.status)
	w.Write(out.body)
}
