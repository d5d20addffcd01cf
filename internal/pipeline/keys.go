// Keys by construction (DESIGN.md §8 "Keys"): keyFields is the one place
// that says which Config field which cache key may observe. The config
// fingerprint behind the artifact and hint keys, the four stage-memo
// fingerprints, the predicates that decide whether a row of the stage
// table runs, the reflection test's list of fields that sit in no key,
// and the table in DESIGN.md are all derived from it, and every key is
// hashed by keyOf.
package pipeline

import (
	"strconv"

	"reticle/internal/asm"
	"reticle/internal/ir"
)

// keySet is a set of cache keys.
type keySet uint8

const (
	// keyArtifact is the whole-compile trio: cache.KeyFor over the
	// canonical hash, HintKeyFor over the structural hash and TextKeyFor
	// over the text.
	keyArtifact keySet = 1 << iota
	keySelect
	keyCascade
	keyPlace
	keyOutput
)

// keyField is one row of the table: a name=value pair some keys render, or
// a Config field no key renders.
type keyField struct {
	name   string                       // as rendered; empty for a row in no key
	reads  string                       // the Config field the row reads; every field has a row
	keys   keySet                       // the keys that render the row
	render func([]byte, *Config) []byte // appends the value
	// omitZero drops a pair whose value renders as 0, so keys minted
	// before the field existed keep their bytes.
	omitZero bool
	why      string             // for a row in no key: what makes that safe
	gates    keySet             // the stage-table rows that do not run while off holds
	off      func(*Config) bool // set where gates is
}

// keyFields is ordered: a key renders its rows in this order. The family
// name subsumes the pattern library and the cascade metadata; all the
// layout optimizer sees of the device is its chain bound; a step budget
// changes which kernels degrade to the greedy fallback. Under TimingDriven
// the place row reads Target too (refinement times each move) without
// keying it: ROADMAP 7(b).
var keyFields = [...]keyField{
	{name: "target", reads: "Target", keys: keyArtifact | keySelect | keyCascade | keyOutput, render: text((*Config).targetName)},
	{name: "device", reads: "Device", keys: keyArtifact | keyPlace | keyOutput, render: text((*Config).deviceName)},
	{name: "maxchain", reads: "Device", keys: keyCascade, render: number(func(c *Config) int { return c.Device.Height })},
	{name: "nocascade", reads: "NoCascade", keys: keyArtifact, render: boolean(noCascade), gates: keyCascade, off: noCascade},
	{name: "shrink", reads: "Shrink", keys: keyArtifact | keyPlace, render: boolean(func(c *Config) bool { return c.Shrink })},
	{name: "greedy", reads: "Greedy", keys: keyArtifact | keySelect, render: boolean(func(c *Config) bool { return c.Greedy })},
	{name: "timingdriven", reads: "TimingDriven", keys: keyArtifact | keyPlace, render: boolean(func(c *Config) bool { return c.TimingDriven })},
	{name: "maxsteps", reads: "MaxSolverSteps", keys: keyArtifact | keyPlace, render: number(func(c *Config) int { return c.MaxSolverSteps }), omitZero: true},
	{reads: "Lib", why: "derived deterministically from Target; Validate pins Lib.Target == Target"},
	{reads: "Cascades", why: "derived deterministically from Target", gates: keyCascade, off: func(c *Config) bool { return len(c.Cascades) == 0 }},
	{reads: "SolverTimeout", why: "a budget decides whether a compile degrades, never what a non-degraded one produces, and degraded results are never stored or cached"},
	{reads: "HintCache", why: "adoption is signature-checked and revalidated inside internal/place"},
	{reads: "StageCache", why: "every payload is decoded and validated before use"},
}

func text(get func(*Config) string) func([]byte, *Config) []byte {
	return func(b []byte, c *Config) []byte { return append(b, get(c)...) }
}

func number(get func(*Config) int) func([]byte, *Config) []byte {
	return func(b []byte, c *Config) []byte { return strconv.AppendInt(b, int64(get(c)), 10) }
}

func boolean(get func(*Config) bool) func([]byte, *Config) []byte {
	return func(b []byte, c *Config) []byte { return strconv.AppendBool(b, get(c)) }
}

func noCascade(cfg *Config) bool { return cfg.NoCascade }

// appendFingerprint renders a nil Target or Device as empty.
func (cfg *Config) targetName() string {
	if cfg.Target == nil {
		return ""
	}
	return cfg.Target.Name
}

func (cfg *Config) deviceName() string {
	if cfg.Device == nil {
		return ""
	}
	return cfg.Device.Name
}

// appendFingerprint appends the rows k observes as name=value pairs
// joined by ';'.
func appendFingerprint(b []byte, cfg *Config, k keySet) []byte {
	start := len(b)
	for i := range keyFields {
		f := &keyFields[i]
		if f.keys&k == 0 {
			continue
		}
		pair := len(b)
		if pair > start {
			b = append(b, ';')
		}
		b = append(b, f.name...)
		b = append(b, '=')
		value := len(b)
		b = f.render(b, cfg)
		if f.omitZero && string(b[value:]) == "0" {
			b = b[:pair]
		}
	}
	return b
}

// runs reports whether the stage-table row keyed by k runs under cfg.
func runs(cfg *Config, k keySet) bool {
	for i := range keyFields {
		if f := &keyFields[i]; f.gates&k != 0 && f.off(cfg) {
			return false
		}
	}
	return true
}

// keyOf is the one key constructor: lowercase hex SHA-256 over the parts,
// each followed by NUL, then the fingerprint slice k observes. Hex, so a
// key doubles as a file name (cache.Disk names a quarantined record's
// copy after its 8-128 char hex key).
func keyOf(cfg *Config, k keySet, parts ...string) string {
	return ir.HexSum256(func(b []byte) []byte {
		for _, p := range parts {
			b = append(b, p...)
			b = append(b, 0)
		}
		return appendFingerprint(b, cfg, k)
	})
}

// ArtifactKeyFor returns the artifact cache key for compiling f under
// cfg, over ir.CanonicalHash: alpha-renamed kernels share an artifact.
// internal/cache wraps it as cache.KeyFor.
func ArtifactKeyFor(cfg *Config, f *ir.Func) string {
	return keyOf(cfg, keyArtifact, ir.CanonicalHash(f))
}

// HintKeyFor returns the placement hint cache key for compiling f under
// cfg, over ir.StructuralHash (constant values and identifier spellings
// masked). Two compiles with equal hint keys present the placement stage
// with the same problem shape, so one's anchors warm-start the other.
func HintKeyFor(cfg *Config, f *ir.Func) string {
	return keyOf(cfg, keyArtifact, ir.StructuralHash(f))
}

// TextKeyFor returns a routing tier's key for the kernel text src under
// cfg: the exact text, read without a parse, under the artifact key's
// fingerprint. Equal text keys mean equal artifact keys; alpha-renamed or
// re-spaced kernels do not share one. A shard router routes by it, dedupes
// /batch kernels by it and keys its disk tier by it.
func TextKeyFor(cfg *Config, src string) string {
	return keyOf(cfg, keyArtifact, textTag, src)
}

// textTag heads a text key's parts. It is not hex, so no text key hashes
// the bytes of an artifact or hint key.
const textTag = "text"

// The four stage-memo keys hash the stage tag and the stage's exact
// printed input (ir.Func.String for selection, asm.Func.String
// downstream), not ir.CanonicalHash: a memoized stage result embeds
// identifier spellings, so serving it across alpha-renamed kernels would
// break the byte-identity contract. Alpha-equivalent kernels still
// coalesce one level up, in the artifact cache.

// SelectKeyFor returns the selection-stage memo key for compiling f
// under cfg.
func SelectKeyFor(cfg *Config, f *ir.Func) string {
	return keyOf(cfg, keySelect, StageSelect, f.String())
}

// CascadeKeyFor returns the cascade-stage memo key for the selected
// assembly af under cfg.
func CascadeKeyFor(cfg *Config, af *asm.Func) string {
	return keyOf(cfg, keyCascade, StageCascade, af.String())
}

// PlaceKeyFor returns the placement-stage memo key for the
// layout-optimized assembly af under cfg.
func PlaceKeyFor(cfg *Config, af *asm.Func) string {
	return keyOf(cfg, keyPlace, StagePlace, af.String())
}

// OutputKeyFor returns the fused codegen+timing memo key for the placed
// assembly under cfg.
func OutputKeyFor(cfg *Config, placed *asm.Func) string {
	return keyOf(cfg, keyOutput, StageOutput, placed.String())
}
