// Stage-level memoization (DESIGN.md §15): each pipeline stage boundary
// consults a content-addressed per-stage memo before recomputing. The
// memo key for a stage is a SHA-256 over (stage tag, the stage's exact
// input text, the slice of the config fingerprint that stage can
// observe), so two compiles that present a stage with byte-identical
// input under output-equivalent options share its result — a nocascade
// explore variant reuses the base variant's instruction selection, a
// batch of kernels that converge after cascading share one placement,
// and a re-sweep forks at the first stage whose input actually changed.
//
// The concrete store lives in internal/stagecache (it cannot live here:
// internal/cache imports pipeline for the artifact key, and the store
// is built on internal/cache). The memo is strictly an accelerator; the
// rules that keep it one are the driver's (stages.go).
package pipeline

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Stage names, as they appear in per-stage memo counters and the
// service's /stats stage_cache section. Codegen and timing analysis are
// fused into one "output" stage: both are pure functions of the placed
// assembly and the (target, device) pair, so they share one key.
const (
	StageSelect  = "select"
	StageCascade = "cascade"
	StagePlace   = "place"
	StageOutput  = "output"
)

// StageCache is the cross-request per-stage memo the pipeline consults
// at each stage boundary (see internal/stagecache for the
// implementation). Defined here as an interface for the same reason as
// HintCache: internal/cache imports pipeline, so the concrete store
// must live downstream of this package. Implementations must be safe
// for concurrent use; Lookup must degrade to a miss and Store to a
// no-op on any internal failure. Payloads handed to Store must be
// treated as immutable from then on.
type StageCache interface {
	// Lookup returns the payload stored under (stage, key), or ok=false.
	Lookup(ctx context.Context, stage, key string) ([]byte, bool)
	// Store records a stage result. Implementations may drop it.
	Store(ctx context.Context, stage, key string, payload []byte)
}

// The cascade and output rows store text frames: a header line that
// opens with the row's magic, then the row's text verbatim, so neither
// the assembly nor the Verilog is escaped on the way in or out. A
// payload without the magic is a miss that the recompute overwrites
// (invariant 2).
const (
	cascadeMagic = "reticle-cascade/1 "
	outputMagic  = "reticle-output/1 "
)

// cascadeFrame is the cascade row's payload: the magic and the
// rewritten-chain count on one line, then the optimized assembly.
func cascadeFrame(chains int, asm string) []byte {
	b := make([]byte, 0, len(cascadeMagic)+8+len(asm))
	b = append(b, cascadeMagic...)
	b = strconv.AppendInt(b, int64(chains), 10)
	b = append(b, '\n')
	return append(b, asm...)
}

// parseCascadeFrame splits a cascade payload; ok is false when it is
// not one.
func parseCascadeFrame(payload []byte) (chains int, asm string, ok bool) {
	header, body, ok := frameHeader(payload, cascadeMagic)
	if !ok {
		return 0, "", false
	}
	n, err := strconv.Atoi(header)
	if err != nil {
		return 0, "", false
	}
	return n, string(body), true
}

// frameHeader checks the magic and splits off the rest of the header
// line from the body.
func frameHeader(payload []byte, magic string) (header string, body []byte, ok bool) {
	if !bytes.HasPrefix(payload, []byte(magic)) {
		return "", nil, false
	}
	rest := payload[len(magic):]
	nl := bytes.IndexByte(rest, '\n')
	if nl < 0 {
		return "", nil, false
	}
	return string(rest[:nl]), rest[nl+1:], true
}

// outputEntry is what the fused codegen+timing row contributes to an
// artifact, the Verilog as its rendered text.
type outputEntry struct {
	Verilog      string
	LUTs         int
	DSPs         int
	FFs          int
	Carries      int
	CriticalNs   float64
	FMaxMHz      float64
	CriticalPath []string
}

// frame encodes the output row's payload: the magic, then on the same
// line the four counts, critical_ns and fmax_mhz in the shortest form
// that parses back to the same float, and the critical path, all
// space-separated; then the Verilog. A path name that would not survive
// the split is an error, and the row is not stored.
func (o *outputEntry) frame() ([]byte, error) {
	b := make([]byte, 0, len(outputMagic)+64+16*len(o.CriticalPath)+len(o.Verilog))
	b = append(b, outputMagic...)
	for _, n := range [...]int{o.LUTs, o.DSPs, o.FFs, o.Carries} {
		b = strconv.AppendInt(b, int64(n), 10)
		b = append(b, ' ')
	}
	b = strconv.AppendFloat(b, o.CriticalNs, 'g', -1, 64)
	b = append(b, ' ')
	b = strconv.AppendFloat(b, o.FMaxMHz, 'g', -1, 64)
	for _, name := range o.CriticalPath {
		if name == "" || strings.ContainsAny(name, " \n") {
			return nil, fmt.Errorf("pipeline: critical path name %q cannot be framed", name)
		}
		b = append(b, ' ')
		b = append(b, name...)
	}
	b = append(b, '\n')
	return append(b, o.Verilog...), nil
}

// parse installs an output payload as *o if it is one, with Verilog.
func (o *outputEntry) parse(payload []byte) bool {
	header, body, ok := frameHeader(payload, outputMagic)
	if !ok || len(body) == 0 {
		return false
	}
	f := strings.Split(header, " ")
	if len(f) < 6 {
		return false
	}
	var e outputEntry
	for i, n := range [...]*int{&e.LUTs, &e.DSPs, &e.FFs, &e.Carries} {
		v, err := strconv.Atoi(f[i])
		if err != nil {
			return false
		}
		*n = v
	}
	for i, x := range [...]*float64{&e.CriticalNs, &e.FMaxMHz} {
		v, err := strconv.ParseFloat(f[4+i], 64)
		if err != nil {
			return false
		}
		*x = v
	}
	if len(f) > 6 {
		e.CriticalPath = f[6:]
		if slices.Contains(e.CriticalPath, "") {
			return false
		}
	}
	e.Verilog = string(body)
	*o = e
	return true
}
