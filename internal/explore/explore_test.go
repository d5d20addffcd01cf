package explore

import (
	"context"
	"encoding/json"
	"testing"

	"reticle/internal/faults"
	"reticle/internal/ir"
	"reticle/internal/isel"
	"reticle/internal/pipeline"
	"reticle/internal/rerr"
	"reticle/internal/target/ultrascale"
)

const maccSrc = `
def macc(a:i8, b:i8, c:i8, en:bool) -> (y:i8) {
    t0:i8 = mul(a, b) @??;
    t1:i8 = add(t0, c) @??;
    y:i8 = reg[0](t1, en) @??;
}`

const vadd4Src = `
def vadd4(a0:i8, b0:i8, a1:i8, b1:i8, a2:i8, b2:i8, a3:i8, b3:i8) -> (y0:i8, y1:i8, y2:i8, y3:i8) {
    y0:i8 = add(a0, b0) @lut;
    y1:i8 = add(a1, b1) @lut;
    y2:i8 = add(a2, b2) @lut;
    y3:i8 = add(a3, b3) @lut;
}`

func testConfig(t testing.TB) *pipeline.Config {
	t.Helper()
	lib, err := isel.NewLibrary(ultrascale.Target())
	if err != nil {
		t.Fatal(err)
	}
	cascades := ultrascale.Cascades()
	return &pipeline.Config{
		Target:   ultrascale.Target(),
		Device:   ultrascale.Device(),
		Lib:      lib,
		Cascades: cascades,
		Shrink:   true,
	}
}

func parse(t testing.TB, src string) *ir.Func {
	t.Helper()
	f, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestEnumerateLattice pins the lattice shape for the macc kernel:
// deterministic IDs in a fixed order, annotation flips for the two
// arithmetic instructions, duplicates (base vs bind=any on an
// unannotated kernel) removed.
func TestEnumerateLattice(t *testing.T) {
	f := parse(t, maccSrc)
	vs, err := Enumerate(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, v := range vs {
		ids = append(ids, v.ID)
	}
	want := []string{"base", "bind=lut", "bind=dsp", "nocascade", "bind=dsp+nocascade", "flip=t0", "flip=t1"}
	if len(ids) != len(want) {
		t.Fatalf("lattice %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("lattice[%d] = %s, want %s (full: %v)", i, ids[i], want[i], ids)
		}
	}
	// Enumeration is deterministic.
	vs2, err := Enumerate(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vs {
		if vs[i].ID != vs2[i].ID || vs[i].NoCascade != vs2[i].NoCascade {
			t.Fatalf("second enumeration diverges at %d: %+v vs %+v", i, vs[i], vs2[i])
		}
		if ir.CanonicalHash(vs[i].Func) != ir.CanonicalHash(vs2[i].Func) {
			t.Fatalf("variant %s: canonical hash differs across enumerations", vs[i].ID)
		}
	}
}

// TestEnumerateVectorVariants: a kernel with independent same-op lanes
// grows vec=2 and vec=4 entries; the bound truncates the tail.
func TestEnumerateVectorVariants(t *testing.T) {
	f := parse(t, vadd4Src)
	vs, err := Enumerate(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, v := range vs {
		found[v.ID] = true
	}
	for _, id := range []string{"vec=2", "vec=4"} {
		if !found[id] {
			t.Errorf("lattice missing %s: %v", id, found)
		}
	}
	capped, err := Enumerate(f, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(capped) != 3 {
		t.Fatalf("maxVariants=3 returned %d variants", len(capped))
	}
	if capped[0].ID != "base" {
		t.Fatalf("cap must keep the front of the lattice, got %v", capped[0].ID)
	}
}

func TestEnumerateNil(t *testing.T) {
	if _, err := Enumerate(nil, 0); err == nil {
		t.Fatal("nil function: want error")
	}
}

// frontierJSON is the byte-determinism probe: the serialized frontier
// plus per-variant metrics, with no timing/cache fields.
func frontierJSON(t *testing.T, res *Result) string {
	t.Helper()
	type row struct {
		ID       string  `json:"id"`
		OK       bool    `json:"ok"`
		Degraded bool    `json:"degraded"`
		Metrics  Metrics `json:"metrics"`
	}
	var rows []row
	for _, vr := range res.Variants {
		rows = append(rows, row{ID: vr.ID, OK: vr.Ok(), Degraded: vr.Degraded, Metrics: vr.Metrics})
	}
	b, err := json.Marshal(struct {
		Variants []row           `json:"variants"`
		Frontier []FrontierPoint `json:"frontier"`
		Partial  bool            `json:"partial"`
	}{rows, res.Frontier, res.Partial})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRunDeterministicAcrossJobs: a serial sweep and an 8-worker sweep
// serialize to identical bytes — the frontier must not depend on
// compile completion order.
func TestRunDeterministicAcrossJobs(t *testing.T) {
	cfg := testConfig(t)
	f := parse(t, maccSrc)
	serial, err := Run(context.Background(), cfg, f, Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Partial || len(serial.Frontier) == 0 {
		t.Fatalf("serial sweep: partial=%v frontier=%d", serial.Partial, len(serial.Frontier))
	}
	if serial.Stats.Succeeded != len(serial.Variants) || serial.Stats.Variants != len(serial.Variants) {
		t.Fatalf("stats %+v for %d variants", serial.Stats, len(serial.Variants))
	}
	want := frontierJSON(t, serial)
	for round := 0; round < 3; round++ {
		par, err := Run(context.Background(), cfg, f, Options{Jobs: 8})
		if err != nil {
			t.Fatal(err)
		}
		if got := frontierJSON(t, par); got != want {
			t.Fatalf("round %d: jobs=8 sweep differs from serial\n got: %s\nwant: %s", round, got, want)
		}
	}
}

// TestRunFrontierIsPareto: the frontier must be exactly the oracle
// frontier of the sweep's own candidate metrics.
func TestRunFrontierIsPareto(t *testing.T) {
	cfg := testConfig(t)
	res, err := Run(context.Background(), cfg, parse(t, maccSrc), Options{Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	var pts []Point
	for _, vr := range res.Variants {
		if vr.Ok() && !vr.Degraded {
			pts = append(pts, Point{ID: vr.ID, Objectives: vr.Metrics.Objectives()})
		}
	}
	want := oracleFrontier(pts)
	if len(res.Frontier) != len(want) {
		t.Fatalf("frontier size %d, oracle %d", len(res.Frontier), len(want))
	}
	for i, p := range want {
		if res.Frontier[i].ID != p.ID {
			t.Fatalf("frontier[%d] = %s, oracle %s", i, res.Frontier[i].ID, p.ID)
		}
	}
	// Every frontier variant improves on some objective; the base must
	// never dominate a frontier point (or it would have evicted it).
	for _, fp := range res.Frontier {
		m := res.metricsFor(fp.ID)
		if m != fp.Metrics {
			t.Fatalf("frontier %s metrics drifted from variant metrics", fp.ID)
		}
	}
}

// TestRunPartialOnVariantFaults is the package-level chaos contract:
// with the explore/variant point failing a few variants permanently,
// the sweep still returns, marked partial, with the frontier computed
// over the survivors.
func TestRunPartialOnVariantFaults(t *testing.T) {
	cfg := testConfig(t)
	plan := faults.NewPlan(map[faults.Point]faults.Injection{
		FaultVariant: {Class: rerr.Permanent, Times: 2},
	})
	ctx := faults.WithPlan(context.Background(), plan)
	res, err := Run(ctx, cfg, parse(t, maccSrc), Options{Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Fatal("sweep with injected failures not marked partial")
	}
	if res.Stats.Failed != 2 {
		t.Fatalf("stats.Failed = %d, want 2", res.Stats.Failed)
	}
	if len(res.Frontier) == 0 {
		t.Fatal("no frontier over the surviving variants")
	}
	for _, vr := range res.Variants {
		if !vr.Ok() && rerr.CodeOf(vr.Err) != "fault_injected" {
			t.Fatalf("failed variant %s: unexpected code %q", vr.ID, rerr.CodeOf(vr.Err))
		}
	}
	for _, fp := range res.Frontier {
		for _, vr := range res.Variants {
			if vr.ID == fp.ID && !vr.Ok() {
				t.Fatalf("failed variant %s on the frontier", fp.ID)
			}
		}
	}
}

// TestRunTransientFaultRetried: transient variant failures are absorbed
// by the batch retry loop — full frontier, no partial marker.
func TestRunTransientFaultRetried(t *testing.T) {
	cfg := testConfig(t)
	plan := faults.NewPlan(map[faults.Point]faults.Injection{
		FaultVariant: {Class: rerr.Transient, Times: 2},
	})
	ctx := faults.WithPlan(context.Background(), plan)
	res, err := Run(ctx, cfg, parse(t, maccSrc), Options{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial || res.Stats.Failed != 0 {
		t.Fatalf("transient faults escaped the retry loop: %+v", res.Stats)
	}
	if res.Stats.Retried < 2 {
		t.Fatalf("stats.Retried = %d, want >= 2", res.Stats.Retried)
	}
}

// TestRunAllVariantsFailed: when nothing survives, Run surfaces the
// failure as an error instead of an empty frontier.
func TestRunAllVariantsFailed(t *testing.T) {
	cfg := testConfig(t)
	plan := faults.NewPlan(map[faults.Point]faults.Injection{
		FaultVariant: {Class: rerr.Permanent, Times: -1},
	})
	ctx := faults.WithPlan(context.Background(), plan)
	if _, err := Run(ctx, cfg, parse(t, maccSrc), Options{Jobs: 2}); err == nil {
		t.Fatal("all-failed sweep: want error")
	} else if rerr.CodeOf(err) != "fault_injected" {
		t.Fatalf("all-failed sweep: code %q", rerr.CodeOf(err))
	}
}

// TestRunOnResultStreams: a Sweep's Result(i), read in lattice order
// while the pool is still running, sees every variant exactly once with
// the same scored metrics Finish's buffered result carries.
func TestRunOnResultStreams(t *testing.T) {
	cfg := testConfig(t)
	sw, err := Begin(context.Background(), cfg, parse(t, maccSrc), Options{Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]VariantResult{}
	for i := 0; i < sw.Len(); i++ {
		vr := sw.Result(i)
		if vr.Index != i {
			t.Fatalf("Result(%d) returned lattice position %d", i, vr.Index)
		}
		if _, dup := got[vr.ID]; dup {
			t.Fatalf("variant %s delivered twice", vr.ID)
		}
		got[vr.ID] = vr
	}
	res, err := sw.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(res.Variants) {
		t.Fatalf("streamed %d variants, want %d", len(got), len(res.Variants))
	}
	for _, vr := range res.Variants {
		if got[vr.ID].Metrics != vr.Metrics {
			t.Fatalf("variant %s: streamed metrics differ from buffered", vr.ID)
		}
	}
}

// TestRunCacheHitsCounted: a Compile override reporting cache hits
// shows up in stats and per-variant results.
func TestRunCacheHitsCounted(t *testing.T) {
	cfg := testConfig(t)
	res, err := Run(context.Background(), cfg, parse(t, maccSrc), Options{
		Jobs: 2,
		Compile: func(ctx context.Context, vcfg *pipeline.Config, _ int, v Variant) (*pipeline.Artifact, bool, error) {
			art, err := pipeline.Compile(ctx, vcfg, v.Func)
			return art, v.ID == "base", err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CacheHits != 1 {
		t.Fatalf("stats.CacheHits = %d, want 1", res.Stats.CacheHits)
	}
	for _, vr := range res.Variants {
		if vr.CacheHit != (vr.ID == "base") {
			t.Fatalf("variant %s: CacheHit = %v", vr.ID, vr.CacheHit)
		}
	}
}
