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
	"context"
	"fmt"

	"reticle/internal/asm"
	"reticle/internal/ir"
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

// selectFingerprint is the slice of the config that instruction
// selection can observe: the target family (which subsumes the pattern
// library — Validate pins Lib.Target == Target, and the library is
// derived deterministically from the target description) and the
// Greedy flag. Device, cascade, and placement options cannot change the
// selected assembly, so they are deliberately absent: a bind/nocascade
// variant shares the base variant's selection.
func (cfg *Config) selectFingerprint() string {
	return fmt.Sprintf("target=%s;greedy=%t", cfg.Target.Name, cfg.Greedy)
}

// cascadeFingerprint is what the layout optimizer can observe: the
// target (which subsumes the cascade variant metadata) and the chain
// bound, which is the device height. The stage is only consulted when
// the pass actually runs, so NoCascade is not part of the key.
func (cfg *Config) cascadeFingerprint() string {
	return fmt.Sprintf("target=%s;maxchain=%d", cfg.Target.Name, cfg.Device.Height)
}

// placeFingerprint is what placement can observe: the device and the
// option flags that change a solved layout. SolverTimeout is excluded
// for the same reason it is excluded from Fingerprint: it cannot change
// a non-degraded placement, and degraded placements are never stored,
// so a memoized placement is byte-identical under any timeout.
func (cfg *Config) placeFingerprint() string {
	fp := fmt.Sprintf("device=%s;shrink=%t;timingdriven=%t",
		cfg.Device.Name, cfg.Shrink, cfg.TimingDriven)
	if cfg.MaxSolverSteps != 0 {
		fp += fmt.Sprintf(";maxsteps=%d", cfg.MaxSolverSteps)
	}
	return fp
}

// outputFingerprint is what code generation and timing analysis can
// observe: the target (codegen) and device (timing).
func (cfg *Config) outputFingerprint() string {
	return fmt.Sprintf("target=%s;device=%s", cfg.Target.Name, cfg.Device.Name)
}

// stageKey derives the memo key: SHA-256 over the stage tag, the
// stage's exact input text, and the stage-relevant fingerprint slice,
// NUL-separated. The input is the printed source (ir.Func.String for
// selection, asm.Func.String downstream), not ir.CanonicalHash: the
// canonical hash is alpha-invariant, but a memoized stage result embeds
// identifier spellings, so serving it across alpha-renamed kernels
// would break the byte-identity contract. Alpha-equivalent kernels
// still coalesce one level up, in the artifact cache. Lowercase hex, so
// the key doubles as an on-disk filename under DIR/stages.
func stageKey(stage, input, fp string) string {
	return ir.HexSum256(func(b []byte) []byte {
		b = append(append(b, stage...), 0)
		b = append(append(b, input...), 0)
		return append(b, fp...)
	})
}

// SelectKeyFor returns the selection-stage memo key for compiling f
// under cfg. Exported for the key-stability golden tests.
func SelectKeyFor(cfg *Config, f *ir.Func) string {
	return stageKey(StageSelect, f.String(), cfg.selectFingerprint())
}

// CascadeKeyFor returns the cascade-stage memo key for the selected
// assembly af under cfg.
func CascadeKeyFor(cfg *Config, af *asm.Func) string {
	return stageKey(StageCascade, af.String(), cfg.cascadeFingerprint())
}

// PlaceKeyFor returns the placement-stage memo key for the
// layout-optimized assembly af under cfg.
func PlaceKeyFor(cfg *Config, af *asm.Func) string {
	return stageKey(StagePlace, af.String(), cfg.placeFingerprint())
}

// OutputKeyFor returns the fused codegen+timing memo key for the placed
// assembly under cfg.
func OutputKeyFor(cfg *Config, placed *asm.Func) string {
	return stageKey(StageOutput, placed.String(), cfg.outputFingerprint())
}

// cascadeEntry is the cascade stage's memo payload: the optimized
// assembly plus the rewritten-chain count the artifact reports.
type cascadeEntry struct {
	Asm    string `json:"asm"`
	Chains int    `json:"chains"`
}

// outputEntry is the fused codegen+timing payload: everything the last
// two stages contribute to an artifact. The Verilog rides as its
// rendered text; the structural Module AST is not reconstructed on a
// hit (Artifact.Module is nil), which only in-process callers that
// wire a StageCache themselves can observe.
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
