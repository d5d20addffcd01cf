package shard

import (
	"net/http"

	"reticle/internal/server"
)

// handleExplore proxies one design-space sweep to a single backend,
// routed by the kernel's text key — the same steering /compile uses.
// Every variant of one kernel shares its canonical subtrees, so the whole
// sweep lands on one backend, and repeated sweeps of the same kernel, and
// /compiles of it, keep landing there.
//
// The backend's answer — buffered JSON or a complete NDJSON stream —
// is relayed verbatim; the router never re-scores a sweep. Sweep
// results are not persisted in the router's disk cache: the backend
// caches the per-variant artifacts, so a re-sweep is cheap where it
// matters, and frontier bodies are not addressable by artifact key.
func (rt *Router) handleExplore(w http.ResponseWriter, r *http.Request) {
	q, ok := rt.Door(w, r)
	if !ok {
		return
	}
	out, ok := rt.relay(w, r, q)
	if !ok {
		return
	}
	defer out.release()
	ct := "application/json"
	if q.Stream && out.status == http.StatusOK {
		ct = server.NDJSONContentType
	}
	w.Header().Set("Content-Type", ct)
	w.WriteHeader(out.status)
	w.Write(out.body)
}
