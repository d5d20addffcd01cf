package main

import (
	"strings"
	"testing"

	"reticle"
	"reticle/internal/asm"
	"reticle/internal/server"
)

const oracleKernel = `def f(a:i8, b:i8, c:i8) -> (y:i8, z:i8) {
    y:i8 = sub(a, b) @lut;
    z:i8 = sub(b, c) @lut;
}`

// goodArtifact compiles oracleKernel in process and renders the fields of
// its artifact the oracle reads.
func goodArtifact(t *testing.T) server.ArtifactJSON {
	t.Helper()
	c, err := reticle.NewCompiler()
	if err != nil {
		t.Fatal(err)
	}
	art, err := c.CompileString(oracleKernel)
	if err != nil {
		t.Fatal(err)
	}
	return server.ArtifactJSON{Asm: art.Asm.String(), Placed: art.Placed.String()}
}

// compute returns the indices of the placed (non-wire) instructions.
func compute(f *asm.Func) []int {
	var out []int
	for i, in := range f.Body {
		if !in.IsWire() {
			out = append(out, i)
		}
	}
	return out
}

// TestOracleCanFail shows the checker failing: a reply whose placed
// assembly puts two instructions in one slot, a reply with two operands
// of a placed instruction swapped, and a degraded reply are all counted
// as failures, while the untouched reply passes.
func TestOracleCanFail(t *testing.T) {
	ft := famTargets()[famUltrascale]
	good := goodArtifact(t)
	if err := checkArtifact(ft, oracleKernel, &good, 1); err != nil {
		t.Fatalf("untouched artifact rejected: %v", err)
	}

	mutate := func(edit func(f *asm.Func, at []int)) server.ArtifactJSON {
		f, err := asm.Parse(good.Placed)
		if err != nil {
			t.Fatal(err)
		}
		at := compute(f)
		if len(at) < 2 {
			t.Fatalf("want two placed instructions, got %d:\n%s", len(at), good.Placed)
		}
		edit(f, at)
		bad := good
		bad.Placed = f.String()
		if bad.Placed == good.Placed {
			t.Fatal("mutation left the placed assembly unchanged")
		}
		return bad
	}
	slot := mutate(func(f *asm.Func, at []int) { f.Body[at[1]].Loc = f.Body[at[0]].Loc })
	swap := mutate(func(f *asm.Func, at []int) {
		args := f.Body[at[0]].Args
		args[0], args[1] = args[1], args[0]
	})
	degraded := good
	degraded.Degraded, degraded.DegradedReason = true, "solver step budget"

	for _, tc := range []struct {
		name string
		art  server.ArtifactJSON
		want string
	}{
		{"corrupted slot", slot, "placement invalid"},
		{"swapped operands", swap, "computes something else"},
		{"degraded", degraded, "degraded"},
	} {
		err := checkArtifact(ft, oracleKernel, &tc.art, 1)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}

	// The same replies through the window checker are counted, not logged.
	req := request{path: "/compile", kind: kindCold, family: famUltrascale, hot: []int{-1},
		body: mustJSON(server.CompileRequest{Family: famUltrascale, IR: oracleKernel})}
	fails := &failureLog{}
	for _, art := range []server.ArtifactJSON{good, slot, swap} {
		body := mustJSON(server.CompileResponse{Family: famUltrascale, Cache: "miss", Artifact: art})
		if err := checkResponse(famTargets(), req, body, 1); err != nil {
			fails.add("%v", err)
		}
	}
	if fails.n != 2 {
		t.Fatalf("window checker counted %d failures of 3 replies, want 2: %v", fails.n, fails.first)
	}
}

func TestSameOutsideCache(t *testing.T) {
	miss := []byte(`{"name":"f","family":"ultrascale","cache":"miss","key":"k","artifact":{"asm":"x"}}`)
	hit := []byte(`{"name":"f","family":"ultrascale","cache":"hit","key":"k","artifact":{"asm":"x"}}`)
	other := []byte(`{"name":"f","family":"ultrascale","cache":"hit","key":"k","artifact":{"asm":"y"}}`)
	if !sameOutsideCache(miss, hit) {
		t.Error("replies differing only in the cache field compare unequal")
	}
	if sameOutsideCache(hit, other) {
		t.Error("replies with different artifacts compare equal")
	}
}

func TestTailField(t *testing.T) {
	body := []byte(`{"artifact":{"verilog":"x \"luts\": 9","luts":12,"dsps":3,"critical_ns":2.5e0,"fmax_mhz":400}}`)
	for name, want := range map[string]float64{"luts": 12, "dsps": 3, "critical_ns": 2.5} {
		if got, ok := tailField(body, name); !ok || got != want {
			t.Errorf("tailField(%s) = %v, %t; want %v", name, got, ok, want)
		}
	}
	if _, ok := tailField(body, "ffs"); ok {
		t.Error("tailField found a field the body does not have")
	}
}
