// Package faults is the deterministic fault-injection registry behind
// the chaos suites: named fault points at every pipeline stage boundary,
// the cache fill path, the batch worker pool, and the server handlers.
//
// A fault point is declared once at package init:
//
//	var fpFill = faults.Register("cache/fill", "artifact cache fill path")
//
// and armed per test (or per request) through a context:
//
//	ctx = faults.WithPlan(ctx, faults.NewPlan(map[faults.Point]faults.Injection{
//	    fpFill: {Class: rerr.Transient, Times: 1},
//	}))
//
// or process-wide through the environment (used by the smoke script):
//
//	RETICLE_FAULTS="server/admission=exhausted,cache/fill=transient:2"
//
// Production cost: with no plan in the context and no RETICLE_FAULTS,
// Point.Fire is one context lookup and one atomic load — no allocation,
// no lock. Fire is deterministic: an armed injection fires on its first
// Times evaluations (no randomness), so a chaos run is reproducible.
//
// The registry is enumerable (Points), which is what lets the chaos
// sweep assert coverage of *every* fault point rather than a hand-kept
// list that silently rots.
package faults

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"reticle/internal/rerr"
)

// Point names one fault-injection site. Register returns one; the
// string is the stable name used in plans and RETICLE_FAULTS.
type Point string

// Info describes a registered fault point for the chaos sweep.
type Info struct {
	// Name is the point's stable identifier ("pipeline/place", ...).
	Name Point
	// Desc says what failing here simulates.
	Desc string
}

var (
	regMu    sync.Mutex
	registry = map[Point]Info{}
)

// Register declares a fault point. Call it from a package-level var so
// every point exists before any chaos sweep enumerates the registry.
// Registering the same name twice panics: duplicate names would make a
// sweep silently test one site while believing it tested another.
func Register(name, desc string) Point {
	regMu.Lock()
	defer regMu.Unlock()
	p := Point(name)
	if _, dup := registry[p]; dup {
		panic("faults: duplicate fault point " + name)
	}
	registry[p] = Info{Name: p, Desc: desc}
	return p
}

// Points lists every registered fault point, sorted by name.
func Points() []Info {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]Info, 0, len(registry))
	for _, info := range registry {
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Injection configures what an armed point does when hit.
type Injection struct {
	// Class classifies the injected error (rerr.Transient, rerr.Permanent,
	// rerr.Exhausted). Ignored when Panic is set.
	Class rerr.Class
	// Panic makes the point panic instead of returning an error,
	// exercising the recover paths (batch worker, cache compute, HTTP
	// handler).
	Panic bool
	// Times caps how many evaluations fire; 0 means every evaluation.
	Times int
}

// Plan is an armed set of injections with per-point fire counters.
// Build with NewPlan; a Plan is safe for concurrent use.
type Plan struct {
	injections map[Point]Injection
	fired      map[Point]*atomic.Int64
}

// NewPlan arms the given injections.
func NewPlan(injections map[Point]Injection) *Plan {
	p := &Plan{
		injections: make(map[Point]Injection, len(injections)),
		fired:      make(map[Point]*atomic.Int64, len(injections)),
	}
	for point, inj := range injections {
		p.injections[point] = inj
		p.fired[point] = &atomic.Int64{}
	}
	return p
}

// Fired reports how many times the point has fired under this plan.
func (p *Plan) Fired(point Point) int64 {
	if c, ok := p.fired[point]; ok {
		return c.Load()
	}
	return 0
}

// evaluate decides whether point fires, consuming one Times slot. The
// counter records actual fires only: evaluations suppressed by the Times
// cap do not increment it, so Fired never over-reports. The
// compare-and-swap loop keeps the claim of a slot and the count update
// atomic under concurrent evaluation.
func (p *Plan) evaluate(point Point) (Injection, bool) {
	inj, ok := p.injections[point]
	if !ok {
		return Injection{}, false
	}
	ctr := p.fired[point]
	if inj.Times <= 0 {
		ctr.Add(1)
		return inj, true
	}
	for {
		n := ctr.Load()
		if n >= int64(inj.Times) {
			return Injection{}, false
		}
		if ctr.CompareAndSwap(n, n+1) {
			return inj, true
		}
	}
}

type ctxKey struct{}

// WithPlan arms a plan on the context; it flows through the pipeline,
// cache, batch, and server tiers with the request.
func WithPlan(ctx context.Context, p *Plan) context.Context {
	return context.WithValue(ctx, ctxKey{}, p)
}

// planFrom extracts the armed plan, preferring the context over the
// process-wide RETICLE_FAULTS plan.
func planFrom(ctx context.Context) *Plan {
	if ctx != nil {
		if p, ok := ctx.Value(ctxKey{}).(*Plan); ok {
			return p
		}
	}
	return envPlan()
}

var (
	envOnce     sync.Once
	envPlanV    *Plan
	envSummaryV string
)

// envPlan parses RETICLE_FAULTS once. A malformed spec disables env
// injection (EnvSummary says so) rather than killing the process: chaos
// tooling must never be able to take production down by typo.
func envPlan() *Plan {
	envOnce.Do(func() {
		spec := os.Getenv("RETICLE_FAULTS")
		if spec == "" {
			return
		}
		m, err := ParseSpec(spec)
		if envSummaryV = summarize(m, err); err == nil {
			envPlanV = NewPlan(m)
		}
	})
	return envPlanV
}

// EnvSummary is the line a daemon logs at startup about RETICLE_FAULTS,
// so that a mistyped drill cannot pass by arming nothing: empty when the
// variable is unset, else the parse error that disabled env injection or
// the armed points, calling out any that no linked package registers.
func EnvSummary() string {
	envPlan()
	return envSummaryV
}

func summarize(m map[Point]Injection, err error) string {
	if err != nil {
		return "RETICLE_FAULTS ignored: " + err.Error()
	}
	var armed, unknown []string
	regMu.Lock()
	for point := range m {
		armed = append(armed, string(point))
		if _, ok := registry[point]; !ok {
			unknown = append(unknown, string(point))
		}
	}
	regMu.Unlock()
	sort.Strings(armed)
	line := "RETICLE_FAULTS armed: " + strings.Join(armed, ", ")
	if len(unknown) > 0 {
		sort.Strings(unknown)
		line += "; not a registered fault point, will never fire: " + strings.Join(unknown, ", ")
	}
	return line
}

// ParseSpec parses a plan spec: comma-separated point=class entries with
// an optional :N times cap, e.g. "cache/fill=transient:1,server/admission=exhausted".
// Classes: transient, permanent, exhausted, panic.
func ParseSpec(spec string) (map[Point]Injection, error) {
	out := map[Point]Injection{}
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, mode, ok := strings.Cut(entry, "=")
		if !ok {
			return nil, fmt.Errorf("faults: entry %q is not point=class", entry)
		}
		var inj Injection
		if class, times, hasTimes := strings.Cut(mode, ":"); hasTimes {
			n, err := strconv.Atoi(times)
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("faults: entry %q has bad times cap %q", entry, times)
			}
			inj.Times = n
			mode = class
		}
		switch mode {
		case "transient":
			inj.Class = rerr.Transient
		case "permanent":
			inj.Class = rerr.Permanent
		case "exhausted":
			inj.Class = rerr.Exhausted
		case "panic":
			inj.Panic = true
		default:
			return nil, fmt.Errorf("faults: entry %q has unknown class %q", entry, mode)
		}
		out[Point(name)] = inj
	}
	return out, nil
}

// Fire evaluates the point against the armed plan (context first, then
// RETICLE_FAULTS). It returns nil when the point is not armed; an armed
// point returns a classified *rerr.Error or panics (Injection.Panic).
// This is the only call sites need:
//
//	if err := fp.Fire(ctx); err != nil { return err }
func (point Point) Fire(ctx context.Context) error {
	p := planFrom(ctx)
	if p == nil {
		return nil
	}
	inj, fire := p.evaluate(point)
	if !fire {
		return nil
	}
	if inj.Panic {
		panic(fmt.Sprintf("faults: injected panic at %s", point))
	}
	return rerr.New(inj.Class, "fault_injected", fmt.Sprintf("injected %s fault at %s", inj.Class, point))
}
