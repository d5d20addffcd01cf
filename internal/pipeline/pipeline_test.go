package pipeline

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"reticle/internal/asm"
	"reticle/internal/bench"
	"reticle/internal/cascade"
	"reticle/internal/device"
	"reticle/internal/faults"
	"reticle/internal/ir"
	"reticle/internal/isel"
	"reticle/internal/place"
	"reticle/internal/rerr"
	"reticle/internal/target/agilex"
	"reticle/internal/target/ultrascale"
	"reticle/internal/tdl"
)

var update = flag.Bool("update", false, "rewrite the golden stage-key file under testdata/")

// familyConfig builds a full config for one bundled family.
func familyConfig(t testing.TB, family string) *Config {
	t.Helper()
	cfg := &Config{}
	switch family {
	case "ultrascale":
		cfg.Target, cfg.Device = ultrascale.Target(), ultrascale.Device()
		cfg.Cascades = ultrascale.Cascades()
	case "agilex":
		cfg.Target, cfg.Device = agilex.Target(), agilex.Device()
		cfg.Cascades = agilex.Cascades()
	default:
		t.Fatalf("unknown family %q", family)
	}
	lib, err := isel.NewLibrary(cfg.Target)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Lib = lib
	return cfg
}

// tensordot is the test kernel: small enough to compile in
// milliseconds, DSP chains long enough that the cascade row rewrites.
func tensordot(t testing.TB) *ir.Func {
	t.Helper()
	f, err := bench.TensorDot(3, 6)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// memoOp names one StageCache call or entry.
type memoOp struct{ tag, key string }

// recMemo is a recording in-memory StageCache.
type recMemo struct {
	mu      sync.Mutex
	entries map[memoOp][]byte
	lookups []memoOp
	stores  []memoOp
}

func newRecMemo() *recMemo { return &recMemo{entries: map[memoOp][]byte{}} }

func (m *recMemo) Lookup(_ context.Context, stage, key string) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	op := memoOp{stage, key}
	m.lookups = append(m.lookups, op)
	raw, ok := m.entries[op]
	return raw, ok
}

func (m *recMemo) Store(_ context.Context, stage, key string, payload []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	op := memoOp{stage, key}
	m.stores = append(m.stores, op)
	m.entries[op] = payload
}

// reset forgets the recorded calls but keeps the entries.
func (m *recMemo) reset() { m.lookups, m.stores = nil, nil }

func tags(ops []memoOp) string {
	var out []string
	for _, op := range ops {
		out = append(out, op.tag)
	}
	return strings.Join(out, ",")
}

// recHints is a recording in-memory HintCache.
type recHints struct {
	mu               sync.Mutex
	entries          map[string]*place.Anchors
	lookups, records int
}

func newRecHints() *recHints { return &recHints{entries: map[string]*place.Anchors{}} }

func (h *recHints) Lookup(_ context.Context, key string) *place.Anchors {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.lookups++
	return h.entries[key]
}

func (h *recHints) Record(_ context.Context, key string, a *place.Anchors) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.records++
	h.entries[key] = a
}

func mustCompile(t testing.TB, cfg *Config, f *ir.Func) *Artifact {
	t.Helper()
	art, err := Compile(context.Background(), cfg, f)
	if err != nil {
		t.Fatal(err)
	}
	return art
}

// surface renders the deterministic fields of an artifact, the ones
// that reach the wire.
func surface(a *Artifact) string {
	return fmt.Sprintf("asm:%s\nplaced:%s\nverilog:%s\n%d %d %d %d %g %g %d %v %v %q",
		a.AsmText, a.PlacedText, a.Verilog, a.LUTs, a.DSPs, a.FFs, a.Carries,
		a.CriticalNs, a.FMaxMHz, a.CascadeChains, a.CriticalPath, a.Degraded, a.DegradedReason)
}

// TestCarriedTextIsCanonical: the text the artifact carries is exactly
// what printing the program would give, on the cold, fill, and fully
// memoized paths — so nothing downstream needs to print again.
func TestCarriedTextIsCanonical(t *testing.T) {
	f := tensordot(t)
	cfg := familyConfig(t, "ultrascale")
	check := func(path string, a *Artifact) {
		t.Helper()
		if a.AsmText != a.Asm.String() || a.PlacedText != a.Placed.String() {
			t.Errorf("%s: carried text differs from the printed program", path)
		}
	}
	cold := mustCompile(t, cfg, f)
	check("cold", cold)
	if cold.CascadeChains == 0 {
		t.Fatal("test kernel has no cascade chains: the cascade row is not exercised")
	}
	cfg.StageCache = newRecMemo()
	fill := mustCompile(t, cfg, f)
	check("fill", fill)
	warm := mustCompile(t, cfg, f)
	check("warm", warm)
	if surface(fill) != surface(cold) || surface(warm) != surface(cold) {
		t.Error("memoized artifact differs from the cold compile")
	}
}

// TestFaultsFireOnWarmMemo: with every row served from the memo, each
// armed pipeline/* fault still stops the compile with its typed error.
func TestFaultsFireOnWarmMemo(t *testing.T) {
	f := tensordot(t)
	cfg := familyConfig(t, "ultrascale")
	cfg.StageCache = newRecMemo()
	mustCompile(t, cfg, f)
	if warm := mustCompile(t, cfg, f); warm.StagesSkipped != 5 {
		t.Fatalf("memo not warm: skipped %d stages", warm.StagesSkipped)
	}
	points := []faults.Point{FaultSelect, FaultCascade, FaultPlace, FaultCodegen, FaultTiming}
	for _, point := range points {
		plan := faults.NewPlan(map[faults.Point]faults.Injection{point: {Class: rerr.Permanent}})
		_, err := Compile(faults.WithPlan(context.Background(), plan), cfg, f)
		if err == nil {
			t.Errorf("%s: armed fault did not fail the memoized compile", point)
			continue
		}
		if rerr.CodeOf(err) != "fault_injected" || rerr.ClassOf(err) != rerr.Permanent ||
			!strings.Contains(err.Error(), string(point)) {
			t.Errorf("%s: got %v, want that point's typed injected fault", point, err)
		}
		if plan.Fired(point) != 1 {
			t.Errorf("%s: fired %d times, want 1", point, plan.Fired(point))
		}
	}
	// Armed together, the first in pipeline order wins.
	all := map[faults.Point]faults.Injection{}
	for _, point := range points {
		all[point] = faults.Injection{Class: rerr.Transient}
	}
	for i, point := range points {
		_, err := Compile(faults.WithPlan(context.Background(), faults.NewPlan(all)), cfg, f)
		if err == nil || !strings.Contains(err.Error(), string(point)) {
			t.Errorf("armed %v: got %v, want %s first", points[i:], err, point)
		}
		delete(all, point)
	}
}

// TestDegradedNeverStored: a budget-truncated placement stores the rows
// before it and nothing after, and never reaches the hint cache.
func TestDegradedNeverStored(t *testing.T) {
	f := tensordot(t)
	cfg := familyConfig(t, "ultrascale")
	cfg.MaxSolverSteps = 1
	memo, hints := newRecMemo(), newRecHints()
	cfg.StageCache, cfg.HintCache = memo, hints
	art := mustCompile(t, cfg, f)
	if !art.Degraded {
		t.Fatal("one-step solver budget did not degrade")
	}
	if got := tags(memo.stores); got != "select,cascade" {
		t.Errorf("degraded compile stored rows %q, want select,cascade", got)
	}
	if hints.records != 0 {
		t.Errorf("degraded compile recorded %d hint entries", hints.records)
	}
	// The next compile gets a fresh shot at every row from place on.
	memo.reset()
	again := mustCompile(t, cfg, f)
	if again.StagesSkipped != 2 || again.WarmStart != "" {
		t.Errorf("replay after degraded: skipped %d warm %q, want 2 and cold", again.StagesSkipped, again.WarmStart)
	}
}

// TestGarbagePayloadIsRecomputed: whatever sits under a row's key, an
// entry the row cannot decode or validate is a miss that the recompute
// overwrites, and the artifact does not move.
func TestGarbagePayloadIsRecomputed(t *testing.T) {
	f := tensordot(t)
	cfg := familyConfig(t, "ultrascale")
	cold := mustCompile(t, cfg, f)
	memo := newRecMemo()
	cfg.StageCache = memo
	mustCompile(t, cfg, f)
	// The previous format's valid payloads for the two rows that now
	// store text frames: no magic, so a miss like any other.
	oldCascade, err := json.Marshal(jsonCascadeEntry{Asm: cold.AsmText, Chains: cold.CascadeChains})
	if err != nil {
		t.Fatal(err)
	}
	oldOutput, err := json.Marshal(jsonOutputEntry{
		Verilog: cold.Verilog, LUTs: cold.LUTs, DSPs: cold.DSPs, FFs: cold.FFs, Carries: cold.Carries,
		CriticalNs: cold.CriticalNs, FMaxMHz: cold.FMaxMHz, CriticalPath: cold.CriticalPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	garbage := map[string][]string{
		StageSelect: {"\x00not assembly"},
		StageCascade: {"{", `{"asm":"not assembly","chains":3}`, string(oldCascade),
			cascadeMagic + "3", cascadeMagic + "x\n" + cold.AsmText, cascadeMagic + "3\nnot assembly"},
		// Unplaced assembly parses but is not a placement of the input.
		StagePlace: {"\x00not assembly", cold.AsmText},
		StageOutput: {"{", `{"verilog":""}`, string(oldOutput),
			outputMagic + "1 2 3 4 5\nmodule m(); endmodule", outputMagic + "1 2 3 4 5 x\nmodule m(); endmodule",
			outputMagic + "1 2 3 4 5 6\n", outputMagic + "1 2 3 4 5 6", outputMagic + "1 2 3 4 5 6 a  b\nmodule m(); endmodule"},
	}
	for _, op := range append([]memoOp(nil), memo.stores...) {
		good := memo.entries[op]
		for _, bad := range garbage[op.tag] {
			memo.entries[op] = []byte(bad)
			memo.reset()
			art := mustCompile(t, cfg, f)
			if surface(art) != surface(cold) {
				t.Errorf("%s payload %q: artifact differs from cold", op.tag, bad)
			}
			if got := tags(memo.stores); got != op.tag {
				t.Errorf("%s payload %q: recompute stored rows %q, want only %s", op.tag, bad, got, op.tag)
			}
			if string(memo.entries[op]) != string(good) {
				t.Errorf("%s payload %q: entry not healed", op.tag, bad)
			}
			if want := 5 - len(stageTable[rowIndex(op.tag)].steps); art.StagesSkipped != want {
				t.Errorf("%s payload %q: skipped %d stages, want %d", op.tag, bad, art.StagesSkipped, want)
			}
		}
	}
}

// jsonCascadeEntry and jsonOutputEntry are the cascade and output
// payloads as the stage memo stored them before text frames: JSON of
// these shapes, still present in memory or under DIR/stages after an
// upgrade.
type jsonCascadeEntry struct {
	Asm    string `json:"asm"`
	Chains int    `json:"chains"`
}

type jsonOutputEntry struct {
	Verilog      string   `json:"verilog"`
	LUTs         int      `json:"luts"`
	DSPs         int      `json:"dsps"`
	FFs          int      `json:"ffs"`
	Carries      int      `json:"carries"`
	CriticalNs   float64  `json:"critical_ns"`
	FMaxMHz      float64  `json:"fmax_mhz"`
	CriticalPath []string `json:"critical_path,omitempty"`
}

// TestFramesRoundTrip: what a frame encodes decodes to the same entry,
// to the bit for floats, with an empty critical path staying empty; a
// path name the header cannot carry is refused at encode time.
func TestFramesRoundTrip(t *testing.T) {
	for _, e := range []outputEntry{
		{Verilog: "module m();\nendmodule\n", LUTs: 1, DSPs: 2, FFs: 3, Carries: 4,
			CriticalNs: 0.1 + 0.2, FMaxMHz: 1000 / (0.1 + 0.2), CriticalPath: []string{"a", "t0_x", "y"}},
		{Verilog: "m", CriticalNs: math.SmallestNonzeroFloat64, FMaxMHz: math.MaxFloat64},
		{Verilog: "\n\n", CriticalNs: math.Copysign(0, -1), FMaxMHz: math.Inf(1), CriticalPath: []string{"é"}},
	} {
		p, err := e.frame()
		if err != nil {
			t.Fatalf("%+v: %v", e, err)
		}
		var got outputEntry
		if !got.parse(p) {
			t.Fatalf("frame %q does not parse", p)
		}
		if math.Float64bits(got.CriticalNs) != math.Float64bits(e.CriticalNs) ||
			math.Float64bits(got.FMaxMHz) != math.Float64bits(e.FMaxMHz) {
			t.Errorf("floats %v %v came back as %v %v", e.CriticalNs, e.FMaxMHz, got.CriticalNs, got.FMaxMHz)
		}
		if !reflect.DeepEqual(got, e) {
			t.Errorf("round trip: got %+v, want %+v", got, e)
		}
	}
	for _, name := range []string{"", "a b", "a\nb"} {
		if _, err := (&outputEntry{Verilog: "m", CriticalPath: []string{"x", name}}).frame(); err == nil {
			t.Errorf("critical path name %q framed", name)
		}
	}
	for _, c := range []struct {
		chains int
		asm    string
	}{{0, ""}, {3, "def f() -> () {\n}\n"}, {12, "\n"}} {
		chains, asm, ok := parseCascadeFrame(cascadeFrame(c.chains, c.asm))
		if !ok || chains != c.chains || asm != c.asm {
			t.Errorf("cascade frame (%d, %q) came back as (%d, %q, %v)", c.chains, c.asm, chains, asm, ok)
		}
	}
}

func rowIndex(tag string) int {
	for i := range stageTable {
		if stageTable[i].tag == tag {
			return i
		}
	}
	panic("no row " + tag)
}

// TestWarmAccounting: a fully memoized compile skips all five stages
// (four without the cascade row), reports the "stage" warm start, and
// never touches the hint cache; with only the hint cache wired, the
// second compile adopts and does not re-record.
func TestWarmAccounting(t *testing.T) {
	f := tensordot(t)
	for _, tc := range []struct {
		noCascade bool
		rows      string
		skipped   int
	}{
		{false, "select,cascade,place,output", 5},
		{true, "select,place,output", 4},
	} {
		cfg := familyConfig(t, "ultrascale")
		cfg.NoCascade = tc.noCascade
		memo, hints := newRecMemo(), newRecHints()
		cfg.StageCache, cfg.HintCache = memo, hints
		fill := mustCompile(t, cfg, f)
		if fill.StagesSkipped != 0 || fill.WarmStart != "" || tags(memo.stores) != tc.rows {
			t.Errorf("nocascade=%v fill: skipped %d warm %q stored %q", tc.noCascade, fill.StagesSkipped, fill.WarmStart, tags(memo.stores))
		}
		if hints.lookups != 1 || hints.records != 1 {
			t.Errorf("nocascade=%v fill: %d hint lookups, %d records, want 1 and 1", tc.noCascade, hints.lookups, hints.records)
		}
		memo.reset()
		warm := mustCompile(t, cfg, f)
		if warm.StagesSkipped != tc.skipped || warm.WarmStart != "stage" {
			t.Errorf("nocascade=%v warm: skipped %d warm %q, want %d and stage", tc.noCascade, warm.StagesSkipped, warm.WarmStart, tc.skipped)
		}
		if tags(memo.lookups) != tc.rows || len(memo.stores) != 0 {
			t.Errorf("nocascade=%v warm: looked up %q, stored %q", tc.noCascade, tags(memo.lookups), tags(memo.stores))
		}
		if hints.lookups != 1 || hints.records != 1 {
			t.Errorf("nocascade=%v warm: place-memo hit reached the hint cache (%d lookups, %d records)", tc.noCascade, hints.lookups, hints.records)
		}
		if warm.Place != (PlaceStats{}) {
			t.Errorf("nocascade=%v warm: placement counters %+v on a memo hit", tc.noCascade, warm.Place)
		}
	}

	cfg := familyConfig(t, "ultrascale")
	hints := newRecHints()
	cfg.HintCache = hints
	cold := mustCompile(t, cfg, f)
	adopted := mustCompile(t, cfg, f)
	if adopted.WarmStart != "adopted" || adopted.Place.SolverSteps != 0 ||
		adopted.Place.HintCacheHits != 1 || adopted.Place.HintCacheStepsSaved != cold.Place.SolverSteps {
		t.Errorf("hint adoption: warm %q stats %+v", adopted.WarmStart, adopted.Place)
	}
	if hints.lookups != 2 || hints.records != 1 {
		t.Errorf("hint adoption: %d lookups, %d records, want 2 and 1", hints.lookups, hints.records)
	}
	if adopted.StagesSkipped != 0 || surface(adopted) != surface(cold) {
		t.Error("hint adoption changed the artifact or counted skipped stages")
	}
}

// stageKeysOf compiles f through a fresh memo and returns the keys the
// driver stored under, in row order, after checking each against the
// exported *KeyFor function of its row.
func stageKeysOf(t *testing.T, cfg *Config, f *ir.Func) []memoOp {
	t.Helper()
	memo := newRecMemo()
	c := *cfg
	c.StageCache = memo
	art := mustCompile(t, &c, f)
	want := map[string]string{
		StageSelect: SelectKeyFor(cfg, f),
		StagePlace:  PlaceKeyFor(cfg, art.Asm),
		StageOutput: OutputKeyFor(cfg, art.Placed),
	}
	for _, op := range memo.stores {
		if op.tag == StageCascade {
			selected, err := asm.Parse(string(memo.entries[memoOp{StageSelect, want[StageSelect]}]))
			if err != nil {
				t.Fatal(err)
			}
			want[StageCascade] = CascadeKeyFor(cfg, selected)
		}
		if op.key != want[op.tag] {
			t.Errorf("%s: driver stored under %s, exported key function gives %s", op.tag, op.key, want[op.tag])
		}
	}
	return memo.stores
}

// TestGoldenStageKeys pins the four stage keys of one bundled example on
// both families. Entries under DIR/stages outlive restarts, so drift in
// the key schema (a renamed tag, a new fingerprint input, a change to
// the assembly printer) silently orphans every deployed stage entry; it
// must show up as an explicit golden diff. Regenerate deliberately with:
//
//	go test -run TestGoldenStageKeys -update ./internal/pipeline/
func TestGoldenStageKeys(t *testing.T) {
	const example = "macc.ret"
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "programs", example))
	if err != nil {
		t.Fatal(err)
	}
	f, err := ir.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, family := range []string{"agilex", "ultrascale"} {
		for _, op := range stageKeysOf(t, familyConfig(t, family), f) {
			fmt.Fprintf(&got, "%s %s %s %s\n", example, family, op.tag, op.key)
		}
	}
	goldenPath := filepath.Join("testdata", "stagekeys.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if got.String() != string(want) {
		t.Errorf("stage key schema drifted from %s — this orphans every deployed stage entry; "+
			"rerun with -update only if the change is intentional\ngot:\n%swant:\n%s", goldenPath, got.String(), want)
	}
}

// TestStageKeyIsOneHashOfOneBuffer: the key is the SHA-256 of
// tag NUL input NUL fingerprint, and deriving it copies the input once into
// a recycled buffer instead of once per field into fresh ones — the only
// allocation is the returned string.
func TestStageKeyIsOneHashOfOneBuffer(t *testing.T) {
	input, cfg := tensordot(t).String(), familyConfig(t, "ultrascale")
	cfg.MaxSolverSteps = 9
	const fp = "device=xczu3eg;shrink=false;timingdriven=false;maxsteps=9"
	sum := sha256.Sum256([]byte(StagePlace + "\x00" + input + "\x00" + fp))
	if got, want := keyOf(cfg, keyPlace, StagePlace, input), hex.EncodeToString(sum[:]); got != want {
		t.Errorf("keyOf = %s, want %s", got, want)
	}
	if got := testing.AllocsPerRun(50, func() { keyOf(cfg, keyPlace, StagePlace, input) }); got > 2 {
		t.Errorf("keyOf: %v allocations per call, budget 2", got)
	}
}

// TestStoredKeysMatchExported runs the driver-vs-exported key check on
// the cascading kernel too (the golden example has no chain).
func TestStoredKeysMatchExported(t *testing.T) {
	for _, family := range []string{"agilex", "ultrascale"} {
		if got := tags(stageKeysOf(t, familyConfig(t, family), tensordot(t))); got != "select,cascade,place,output" {
			t.Errorf("%s: stored rows %q", family, got)
		}
	}
}

// keyNames labels the keys of keyFields, in the order the generated
// table in DESIGN.md lists them.
var keyNames = []struct {
	key  keySet
	name string
}{
	{keyArtifact, "artifact + hint"},
	{keySelect, StageSelect},
	{keyCascade, StageCascade},
	{keyPlace, StagePlace},
	{keyOutput, StageOutput},
}

// flip changes the named Config field to a value every row reading it
// renders, or gates on, differently.
func flip(t *testing.T, cfg *Config, field string) {
	t.Helper()
	switch x := reflect.ValueOf(cfg).Elem().FieldByName(field).Addr().Interface().(type) {
	case *bool:
		*x = !*x
	case *int:
		*x += 7
	case **tdl.Target:
		*x = agilex.Target()
	case **device.Device:
		*x = agilex.Device()
	case *map[string]cascade.Variants:
		*x = nil
	default:
		t.Errorf("Config.%s (%T): add a flip for this type", field, x)
	}
}

// TestConfigFieldsAreKeyed derives the key-completeness check from
// keyFields. Every Config field is read by some row, and a row in no key
// carries its reason. Flipping a field moves every key a row reading it
// claims, and the run predicate of every stage row it gates. And a field
// some key renders moves the artifact key's fingerprint and at least
// one stage key or run predicate: keyed for one cache only, the other
// would serve a stale hit.
func TestConfigFieldsAreKeyed(t *testing.T) {
	base := familyConfig(t, "ultrascale")
	stageRows := func(cfg *Config) string {
		var b []byte
		for _, k := range keyNames[1:] {
			b = appendFingerprint(b, cfg, k.key)
			b = strconv.AppendBool(append(b, ' '), runs(cfg, k.key))
			b = append(b, '\n')
		}
		return string(b)
	}
	typ := reflect.TypeOf(Config{})
	read := map[string]bool{}
	keyed := map[string]bool{}
	for i := range keyFields {
		row := &keyFields[i]
		read[row.reads] = true
		keyed[row.reads] = keyed[row.reads] || row.keys != 0
		if _, ok := typ.FieldByName(row.reads); !ok {
			t.Errorf("row %d reads Config.%s, which does not exist", i, row.reads)
			continue
		}
		if row.keys == 0 && row.why == "" {
			t.Errorf("Config.%s is in no key and its row gives no reason", row.reads)
		}
		if row.keys|row.gates == 0 {
			continue
		}
		flipped := *base
		flip(t, &flipped, row.reads)
		for _, k := range keyNames {
			if row.keys&k.key != 0 && string(appendFingerprint(nil, base, k.key)) == string(appendFingerprint(nil, &flipped, k.key)) {
				t.Errorf("flipping Config.%s does not move the %s key, which its row %q claims", row.reads, k.name, row.name)
			}
			if row.gates&k.key != 0 && runs(base, k.key) == runs(&flipped, k.key) {
				t.Errorf("flipping Config.%s does not gate the %s row", row.reads, k.name)
			}
		}
	}
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if !read[name] {
			t.Errorf("Config.%s has no row in keyFields (keys.go): say which keys observe it, or why none does", name)
		}
		if !keyed[name] {
			continue
		}
		flipped := *base
		flip(t, &flipped, name)
		if string(appendFingerprint(nil, &flipped, keyArtifact)) == string(appendFingerprint(nil, base, keyArtifact)) {
			t.Errorf("Config.%s is in some key and does not change the artifact key's fingerprint: cached artifacts would go stale", name)
		}
		if stageRows(&flipped) == stageRows(base) {
			t.Errorf("Config.%s is in some key and changes no stage row's fingerprint or run predicate: the stage memo would serve a wrong hit", name)
		}
	}
}

// keysTable renders keyFields as the table DESIGN.md §8 carries.
func keysTable() string {
	var b strings.Builder
	b.WriteString("| field | reads |")
	for _, k := range keyNames {
		b.WriteString(" " + k.name + " |")
	}
	b.WriteString(" why no key needs it |\n|---|---|" + strings.Repeat("---|", len(keyNames)) + "---|\n")
	for i := range keyFields {
		row := &keyFields[i]
		name := "—"
		if row.keys != 0 {
			name = "`" + row.name + "`"
		}
		if row.omitZero {
			name += " (omitted at 0)"
		}
		fmt.Fprintf(&b, "| %s | `%s` |", name, row.reads)
		for _, k := range keyNames {
			switch {
			case row.keys&k.key != 0:
				b.WriteString(" ✓ |")
			case row.gates&k.key != 0:
				b.WriteString(" runs? |")
			default:
				b.WriteString("  |")
			}
		}
		b.WriteString(" " + row.why + " |\n")
	}
	return b.String()
}

// TestKeysTableCurrent pins the "Keys" table of DESIGN.md §8 to
// keyFields, so the document cannot drift from the code again:
//
//	go test -run TestKeysTableCurrent -update ./internal/pipeline/
func TestKeysTableCurrent(t *testing.T) {
	const (
		begin = "<!-- generated by: go test -run TestKeysTableCurrent -update ./internal/pipeline/ -->\n"
		end   = "<!-- end generated -->\n"
	)
	path := filepath.Join("..", "..", "DESIGN.md")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	from := strings.Index(doc, begin)
	if from < 0 {
		t.Fatalf("DESIGN.md has no section %q", strings.TrimSpace(begin))
	}
	from += len(begin)
	size := strings.Index(doc[from:], end)
	if size < 0 {
		t.Fatalf("DESIGN.md: keys table is not closed by %q", strings.TrimSpace(end))
	}
	if *update {
		if err := os.WriteFile(path, []byte(doc[:from]+keysTable()+doc[from+size:]), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if got := doc[from : from+size]; got != keysTable() {
		t.Errorf("DESIGN.md keys table is stale (rerun with -update); keyFields now renders\n%s", keysTable())
	}
}

// TestConcurrentCompilesShareTheTable: the row table is package-level
// state every compile reads; run under -race this checks nothing in it
// is written after init.
func TestConcurrentCompilesShareTheTable(t *testing.T) {
	f := tensordot(t)
	cfg := familyConfig(t, "ultrascale")
	want := surface(mustCompile(t, cfg, f))
	cfg.StageCache, cfg.HintCache = newRecMemo(), newRecHints()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			art, err := Compile(context.Background(), cfg, f)
			if err == nil && surface(art) != want {
				err = errors.New("concurrent compile differs from the serial one")
			}
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
