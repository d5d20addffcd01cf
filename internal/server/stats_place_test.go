package server_test

import (
	"testing"

	"reticle"
	"reticle/internal/isel"
	"reticle/internal/pipeline"
	"reticle/internal/server"
	"reticle/internal/target/ultrascale"
)

// chainIR is a kernel whose dot-product shape cascades into DSP macro
// chains, so a Shrink-enabled compile exercises probes and warm starts.
const chainIR = `
def dot(a0:i8, b0:i8, a1:i8, b1:i8, a2:i8, b2:i8, a3:i8, b3:i8) -> (y:i8) {
    m0:i8 = mul(a0, b0);
    m1:i8 = mul(a1, b1);
    m2:i8 = mul(a2, b2);
    m3:i8 = mul(a3, b3);
    s0:i8 = add(m0, m1);
    s1:i8 = add(s0, m2);
    y:i8 = add(s1, m3);
}`

// shrinkServer builds a single-family service whose config has Shrink
// enabled, so placement counters flow through artifacts and /stats.
func shrinkServer(t *testing.T) *server.Server {
	t.Helper()
	tgt, dev := ultrascale.Target(), ultrascale.Device()
	lib, err := isel.NewLibrary(tgt)
	if err != nil {
		t.Fatal(err)
	}
	cascades := ultrascale.Cascades()
	cfg := &pipeline.Config{
		Target: tgt, Device: dev, Lib: lib, Cascades: cascades, Shrink: true,
	}
	s, err := server.New(server.Options{}, map[string]*pipeline.Config{"shrink": cfg})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStatsPlaceCounters: placement solver counters must be visible per
// artifact and accumulate in GET /stats across /compile and /batch.
func TestStatsPlaceCounters(t *testing.T) {
	s := shrinkServer(t)

	var cr server.CompileResponse
	if code := post(t, s, "/compile", server.CompileRequest{IR: chainIR}, &cr); code != 200 {
		t.Fatalf("compile status %d", code)
	}
	if cr.Artifact.SolverSteps == 0 {
		t.Fatal("artifact solver_steps = 0, want > 0")
	}
	if cr.Artifact.ShrinkProbes == 0 && cr.Artifact.ProbesSkipped == 0 {
		t.Errorf("shrink config compiled with neither shrink_probes nor probes_skipped: %+v", cr.Artifact)
	}

	var st server.StatsResponse
	if code := get(t, s, "/stats", &st); code != 200 {
		t.Fatalf("stats status %d", code)
	}
	if st.Place.SolverSteps != cr.Artifact.SolverSteps {
		t.Errorf("stats place.solver_steps = %d, want %d", st.Place.SolverSteps, cr.Artifact.SolverSteps)
	}
	if st.Place.ShrinkProbes != cr.Artifact.ShrinkProbes ||
		st.Place.ProbesSkipped != cr.Artifact.ProbesSkipped ||
		st.Place.HintHits != cr.Artifact.HintHits ||
		st.Place.HintTried != cr.Artifact.HintTried {
		t.Errorf("stats place section %+v does not match artifact %+v", st.Place, cr.Artifact)
	}

	// A /batch compile of a distinct kernel accumulates on top. (The
	// /compile kernel would be a cache hit and must not double-count.)
	var br server.BatchResponse
	req := server.BatchRequest{Kernels: []server.BatchKernel{
		{Name: "again", IR: chainIR},
		{Name: "fresh", IR: maccSrc},
	}}
	if code := post(t, s, "/batch", req, &br); code != 200 {
		t.Fatalf("batch status %d", code)
	}
	var st2 server.StatsResponse
	if code := get(t, s, "/stats", &st2); code != 200 {
		t.Fatalf("stats status %d", code)
	}
	fresh := br.Results[1].Artifact
	want := st.Place.SolverSteps + fresh.SolverSteps
	if st2.Place.SolverSteps != want {
		t.Errorf("after batch, stats place.solver_steps = %d, want %d (cache hit must not double-count)",
			st2.Place.SolverSteps, want)
	}
}

// TestDefaultServerStatsHavePlaceSection: even without Shrink, the
// cumulative solver-steps gauge moves on every compiled kernel.
func TestDefaultServerStatsHavePlaceSection(t *testing.T) {
	s := newTestServer(t, reticle.ServerOptions{})
	var cr server.CompileResponse
	if code := post(t, s, "/compile", server.CompileRequest{IR: maccSrc}, &cr); code != 200 {
		t.Fatalf("compile status %d", code)
	}
	var st server.StatsResponse
	if code := get(t, s, "/stats", &st); code != 200 {
		t.Fatalf("stats status %d", code)
	}
	if st.Place.SolverSteps == 0 {
		t.Error("stats place.solver_steps = 0 after a compiled kernel, want > 0")
	}
}
