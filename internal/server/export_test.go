package server

import (
	"net"
	"net/http"

	"reticle/internal/pipeline"
)

// ArtifactJSONOf is what render marshals into the served artifact bytes,
// for the equal-key property.
func ArtifactJSONOf(art *pipeline.Artifact) ArtifactJSON { return artifactJSON(art) }

// SetOnCompileStart installs the test hook invoked as a kernel enters
// the pipeline, letting the drain suite synchronize Shutdown with an
// in-flight compile. Install before traffic, and restore nil after.
func SetOnCompileStart(f func()) { onCompileStart = f }

// NumCounters is the number of an account's integer counters.
const NumCounters = numCounters

// CounterKey is counter c's log key.
func CounterKey(c Counter) string { return counterKeys[c] }

// Start listens on addr (":0" picks a free port) and serves in the
// background. The bound address is returned so callers can dial it.
func (s *Server) Start(addr string) (net.Addr, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.hs = &http.Server{Handler: s}
	go s.hs.Serve(l)
	return l.Addr(), nil
}
