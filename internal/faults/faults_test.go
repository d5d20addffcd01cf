package faults

import (
	"context"
	"errors"
	"strings"
	"testing"

	"reticle/internal/rerr"
)

var (
	fpAlpha = Register("test/alpha", "unit-test point alpha")
	fpBeta  = Register("test/beta", "unit-test point beta")
)

func TestUnarmedIsFree(t *testing.T) {
	if err := fpAlpha.Fire(context.Background()); err != nil {
		t.Fatalf("unarmed point fired: %v", err)
	}
	if err := fpAlpha.Fire(nil); err != nil { //nolint:staticcheck // nil ctx is part of the contract
		t.Fatalf("nil ctx fired: %v", err)
	}
}

func TestPlanFiresWithClass(t *testing.T) {
	plan := NewPlan(map[Point]Injection{
		fpAlpha: {Class: rerr.Transient},
	})
	ctx := WithPlan(context.Background(), plan)
	err := fpAlpha.Fire(ctx)
	if !errors.Is(err, rerr.ErrTransient) {
		t.Fatalf("err = %v, want transient", err)
	}
	if rerr.CodeOf(err) != "fault_injected" {
		t.Errorf("code = %q", rerr.CodeOf(err))
	}
	if err := fpBeta.Fire(ctx); err != nil {
		t.Errorf("unarmed sibling point fired: %v", err)
	}
	if plan.Fired(fpAlpha) != 1 {
		t.Errorf("fired count = %d, want 1", plan.Fired(fpAlpha))
	}
}

func TestTimesCap(t *testing.T) {
	plan := NewPlan(map[Point]Injection{fpAlpha: {Class: rerr.Exhausted, Times: 2}})
	ctx := WithPlan(context.Background(), plan)
	for i := 0; i < 2; i++ {
		if err := fpAlpha.Fire(ctx); !errors.Is(err, rerr.ErrExhausted) {
			t.Fatalf("fire %d: %v, want exhausted", i, err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := fpAlpha.Fire(ctx); err != nil {
			t.Fatalf("fire past cap returned %v", err)
		}
	}
	// Fired counts actual fires only: the three capped evaluations above
	// must not inflate it past Times.
	if got := plan.Fired(fpAlpha); got != 2 {
		t.Errorf("Fired = %d after capped evaluations, want 2", got)
	}
}

func TestPanicInjection(t *testing.T) {
	plan := NewPlan(map[Point]Injection{fpBeta: {Panic: true}})
	ctx := WithPlan(context.Background(), plan)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("armed panic point did not panic")
		}
		if !strings.Contains(r.(string), "test/beta") {
			t.Errorf("panic value %v does not name the point", r)
		}
	}()
	fpBeta.Fire(ctx)
}

func TestParseSpec(t *testing.T) {
	m, err := ParseSpec("test/alpha=transient:3, test/beta=panic")
	if err != nil {
		t.Fatal(err)
	}
	if inj := m[fpAlpha]; inj.Class != rerr.Transient || inj.Times != 3 {
		t.Errorf("alpha = %+v", inj)
	}
	if inj := m[fpBeta]; !inj.Panic {
		t.Errorf("beta = %+v", inj)
	}
	for _, bad := range []string{"nope", "p=zing", "p=transient:0", "p=transient:x"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

func TestRegistryEnumerates(t *testing.T) {
	points := Points()
	found := 0
	for _, info := range points {
		if info.Name == fpAlpha || info.Name == fpBeta {
			found++
			if info.Desc == "" {
				t.Errorf("%s has no description", info.Name)
			}
		}
	}
	if found != 2 {
		t.Errorf("registry lists %d of the 2 test points", found)
	}
	for i := 1; i < len(points); i++ {
		if points[i-1].Name >= points[i].Name {
			t.Errorf("registry not sorted: %s >= %s", points[i-1].Name, points[i].Name)
		}
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	Register("test/alpha", "dup")
}

// TestEnvSummaryNamesWhatWasArmed: the startup line a daemon logs says
// which of the three a RETICLE_FAULTS value was — a spec that armed
// registered points, one that did not parse (env injection off), or one
// naming a point nothing registers (armed, never fires).
func TestEnvSummaryNamesWhatWasArmed(t *testing.T) {
	for _, tc := range []struct{ spec, want string }{
		{"test/beta=panic,test/alpha=transient:1", "RETICLE_FAULTS armed: test/alpha, test/beta"},
		{"test/alpha=exhuasted", `RETICLE_FAULTS ignored: faults: entry "test/alpha=exhuasted" has unknown class "exhuasted"`},
		{"test/alpha=exhausted,test/alfa=exhausted", "RETICLE_FAULTS armed: test/alfa, test/alpha; not a registered fault point, will never fire: test/alfa"},
	} {
		if got := summarize(ParseSpec(tc.spec)); got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.spec, got, tc.want)
		}
	}
}
