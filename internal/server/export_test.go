package server

import (
	"encoding/json"

	"reticle/internal/pipeline"
)

// ArtifactJSONOf is what render marshals into the served artifact bytes,
// for the equal-key property.
func ArtifactJSONOf(art *pipeline.Artifact) ArtifactJSON { return artifactJSON(art) }

// MaxBodyBytes is the request body limit both tiers share.
const MaxBodyBytes = maxBodyBytes

// SetOnCompileStart installs the test hook invoked as a kernel enters
// the pipeline, letting the drain suite synchronize Shutdown with an
// in-flight compile. Install before traffic, and restore nil after.
func SetOnCompileStart(f func()) { onCompileStart = f }

// NumCounters is the number of an account's integer counters.
const NumCounters = numCounters

// CounterKey is counter c's log key.
func CounterKey(c Counter) string { return counterKeys[c] }

// SliceKernels is the scan ForwardKernels reads a /batch body's kernels
// with before it falls back to a decode.
func SliceKernels(body []byte) ([]json.RawMessage, bool) { return sliceKernels(body) }

// AppendMembers is how a routing tier appends members to a forwarded
// object.
func AppendMembers(obj []byte, members string) []byte { return appendMembers(obj, members) }

// ReadCompileRequest is the plain /compile body reader Admit tries before
// decodeBody.
func ReadCompileRequest(body []byte) (CompileRequest, bool) {
	var in CompileRequest
	ok := readCompileRequest(body, &in)
	return in, ok
}

// DecodeBody is the decoder Admit falls back to.
func DecodeBody(body []byte, dst any) error { return decodeBody(body, dst) }
