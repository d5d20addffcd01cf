package server_test

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"reticle/internal/cache"
	"reticle/internal/hintcache"
	"reticle/internal/ir"
	"reticle/internal/irgen"
	"reticle/internal/isel"
	"reticle/internal/pipeline"
	"reticle/internal/server"
	"reticle/internal/stagecache"
	"reticle/internal/target/agilex"
	"reticle/internal/target/ultrascale"
)

// Equal key ⇒ equal bytes, as a property (ROADMAP 4(b)). The reflection
// test in internal/pipeline checks that a field a key row reads moves that
// key; it cannot see a field that a second stage also reads but does not
// key. This drives every combination of the option fields the key table
// renders through the real pipeline and fails on any key — the four stage
// keys and the artifact key — that is minted twice over different bytes.

// strictMemo is a StageCache that never serves a hit, so every row runs
// and stores, and that fails on a Store under a key it holds unless the
// payload is byte-equal to the one it holds.
type strictMemo struct {
	t       testing.TB
	what    *string // the compile in progress, for the failure message
	entries map[[2]string]stored
}

type stored struct {
	payload []byte
	by      string
}

func (m *strictMemo) Lookup(context.Context, string, string) ([]byte, bool) { return nil, false }

func (m *strictMemo) Store(_ context.Context, stage, key string, payload []byte) {
	k := [2]string{stage, key}
	if prev, ok := m.entries[k]; ok && !bytes.Equal(prev.payload, payload) {
		m.t.Errorf("%s key %s holds different bytes:\n%s stored\n%s\n%s stores\n%s",
			stage, key, prev.by, prev.payload, *m.what, payload)
		return
	}
	m.entries[k] = stored{payload, *m.what}
}

type optionField struct {
	name   string
	values []any
}

// optionFields lists the bool and int fields of pipeline.Config that move
// Fingerprint() — the option rows of the key table — with the values the
// property sweeps: both for a flag; for a budget, unset and a value large
// enough that no compile here degrades.
func optionFields(t testing.TB, base *pipeline.Config) []optionField {
	t.Helper()
	var out []optionField
	typ := reflect.TypeOf(*base)
	for i := 0; i < typ.NumField(); i++ {
		flipped := *base
		var values []any
		switch x := reflect.ValueOf(&flipped).Elem().Field(i).Addr().Interface().(type) {
		case *bool:
			*x, values = !*x, []any{false, true}
		case *int:
			*x, values = 1<<22, []any{0, 1 << 22}
		default:
			continue
		}
		if flipped.Fingerprint() != base.Fingerprint() {
			out = append(out, optionField{typ.Field(i).Name, values})
		}
	}
	if len(out) < 5 {
		t.Fatalf("found option fields %v; the key table renders at least NoCascade, Shrink, Greedy, TimingDriven and MaxSolverSteps", out)
	}
	return out
}

// optionCombos expands optionFields into every combination.
func optionCombos(t testing.TB, base *pipeline.Config) []pipeline.Config {
	combos := []pipeline.Config{*base}
	for _, field := range optionFields(t, base) {
		var next []pipeline.Config
		for _, cfg := range combos {
			for _, v := range field.values {
				c := cfg
				reflect.ValueOf(&c).Elem().FieldByName(field.name).Set(reflect.ValueOf(v))
				next = append(next, c)
			}
		}
		combos = next
	}
	return combos
}

func equalKeyConfigs(t testing.TB) map[string]*pipeline.Config {
	t.Helper()
	out := map[string]*pipeline.Config{
		"ultrascale": {Target: ultrascale.Target(), Device: ultrascale.Device(), Cascades: ultrascale.Cascades()},
		"agilex":     {Target: agilex.Target(), Device: agilex.Device(), Cascades: agilex.Cascades()},
	}
	for _, cfg := range out {
		lib, err := isel.NewLibrary(cfg.Target)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Lib = lib
	}
	return out
}

// equalKeyEqualPayload compiles f on every family under every option
// combination, twice — the fields no key observes flipped between the
// two: through the strict memo with no hint cache and no SolverTimeout,
// then with a generous SolverTimeout and live hint and stage stores
// shared by all combinations, so later ones adopt what earlier ones
// recorded. Stage payloads are held by the strict memo; what the server
// renders of the artifact (render marshals exactly this struct), less
// wall time and solver accounting, is held under cache.KeyFor.
func equalKeyEqualPayload(t testing.TB, families map[string]*pipeline.Config, f *ir.Func) {
	what := ""
	memo := &strictMemo{t: t, what: &what, entries: map[[2]string]stored{}}
	hints, stages := hintcache.New(0), stagecache.New(0)
	type rendered struct {
		artifact server.ArtifactJSON
		by       string
	}
	artifacts := map[cache.Key]rendered{}
	for _, family := range []string{"ultrascale", "agilex"} {
		base := families[family]
		for _, cfg := range optionCombos(t, base) {
			for _, neutral := range []struct {
				name    string
				timeout time.Duration
				hints   pipeline.HintCache
				stages  pipeline.StageCache
			}{
				{"strict memo", 0, nil, memo},
				{"live caches, solver timeout", time.Minute, hints, stages},
			} {
				cfg := cfg
				cfg.SolverTimeout, cfg.HintCache, cfg.StageCache = neutral.timeout, neutral.hints, neutral.stages
				what = family + " " + cfg.Fingerprint() + " (" + neutral.name + ")"
				art, err := pipeline.Compile(context.Background(), &cfg, f)
				if err != nil {
					break // the generator can emit programs a family cannot place
				}
				if art.Degraded {
					t.Fatalf("%s: degraded (%s); the budgets here are meant not to bind", what, art.DegradedReason)
				}
				key, payload := cache.KeyFor(&cfg, f), detPayload(server.ArtifactJSONOf(art))
				if prev, ok := artifacts[key]; ok && prev.artifact != payload {
					t.Fatalf("artifact key %s renders different bytes:\n%s\n%+v\n%s\n%+v", key, prev.by, prev.artifact, what, payload)
				}
				artifacts[key] = rendered{payload, what}
			}
		}
	}
}

// TestEqualKeyEqualPayload runs the property over every bundled example
// and 200 generated programs.
func TestEqualKeyEqualPayload(t *testing.T) {
	programs := 200
	if testing.Short() {
		programs = 20
	}
	families := equalKeyConfigs(t)
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "programs", "*.ret"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no bundled examples: %v", err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		f, err := ir.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		equalKeyEqualPayload(t, families, f)
	}
	for seed := 0; seed < programs; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		equalKeyEqualPayload(t, families, irgen.Generate(rng, irgen.Config{Instrs: 4 + seed%20, WithVectors: seed%2 == 0}))
	}
}

// FuzzEqualKeyEqualPayload is the same property over programs the fuzzer
// picks by generator seed and size.
func FuzzEqualKeyEqualPayload(f *testing.F) {
	f.Add(int64(0), uint8(8), true)
	f.Add(int64(7), uint8(30), false)
	families := equalKeyConfigs(f)
	f.Fuzz(func(t *testing.T, seed int64, instrs uint8, vectors bool) {
		rng := rand.New(rand.NewSource(seed))
		equalKeyEqualPayload(t, families, irgen.Generate(rng, irgen.Config{Instrs: 1 + int(instrs)%48, WithVectors: vectors}))
	})
}
