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

import "context"

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

// cascadeEntry is the cascade stage's memo payload: the optimized
// assembly plus the rewritten-chain count the artifact reports.
type cascadeEntry struct {
	Asm    string `json:"asm"`
	Chains int    `json:"chains"`
}

// outputEntry is the fused codegen+timing payload: everything the last
// two stages contribute to an artifact, the Verilog as its rendered text.
type outputEntry struct {
	Verilog      string   `json:"verilog"`
	LUTs         int      `json:"luts"`
	DSPs         int      `json:"dsps"`
	FFs          int      `json:"ffs"`
	Carries      int      `json:"carries"`
	CriticalNs   float64  `json:"critical_ns"`
	FMaxMHz      float64  `json:"fmax_mhz"`
	CriticalPath []string `json:"critical_path,omitempty"`
}
