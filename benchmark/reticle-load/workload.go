package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"reticle/benchmark/kernelgen"
	"reticle/internal/server"
)

// Request kinds, for the oracle and the trace.
const (
	kindCold    = "cold"    // never-before-seen kernel
	kindHot     = "hot"     // working-set kernel, compiled during set-up
	kindTweak   = "tweak"   // constant-tweak edit of a working-set kernel
	kindAppend  = "append"  // one-op-append edit of a working-set kernel
	kindBatch   = "batch"   // /batch of eight kernels, half hot
	kindExplore = "explore" // /explore sweep of a small DSP kernel
)

// request is one pre-marshalled call. The servers receive path and body
// only: never the seed, the workload name or the kind. The oracle and the
// trace read the source IR back out of body, so they check what was sent.
type request struct {
	path   string
	body   []byte
	kind   string
	family string
	// hot holds, per kernel the request carries, its working-set index,
	// or -1 for a kernel the servers have not seen.
	hot []int
}

// workload is one named traffic mix.
type workload struct {
	name string
	why  string
	spec clusterSpec
	// perSecond caps the schedule: seconds*perSecond entries are generated,
	// about twice what the seed commit serves, so a faster program still
	// fills the window. A run that exhausts its schedule ends early.
	perSecond int
	// panelPerSecond sizes the quality panel of a cold workload: the
	// first seconds*panelPerSecond schedule entries, a count every run
	// reaches, carry critical_ns_geomean and prims_per_kernel. Workloads
	// with a working set use its kernels instead.
	panelPerSecond int
	// build draws the plan from the seeded generator.
	build func(g *kernelgen.Gen, n int, smoke bool) *plan
}

// plan is everything one run sends: the working set compiled during
// set-up, the warm-up, and the measured schedule.
type plan struct {
	prefill []request
	warm    []request
	sched   []request
}

const (
	famUltrascale = "ultrascale"
	famAgilex     = "agilex"
)

// drawFamily sends about a quarter of the traffic to the second family.
func drawFamily(r *rand.Rand) string {
	if r.Intn(4) == 0 {
		return famAgilex
	}
	return famUltrascale
}

func mustJSON(v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("marshal request: %v", err)) // request types are strings and ints
	}
	return raw
}

func compileReq(kind, family string, k kernelgen.Kernel, hot int) request {
	return request{
		path:   "/compile",
		body:   mustJSON(server.CompileRequest{Family: family, IR: k.IR}),
		kind:   kind,
		family: family,
		hot:    []int{hot},
	}
}

// lutClass interleaves irgen programs with FSM-shaped kernels, two to one.
func lutClass(g *kernelgen.Gen, i int) kernelgen.Kernel {
	if i%3 == 2 {
		return g.FSM()
	}
	return g.LUT()
}

// workingSet draws n kernels, half DSP class (three ragged tensordots to
// one tensoradd shape) and half LUT class, each pinned to a family, and
// returns them with their prefill requests.
func workingSet(g *kernelgen.Gen, n int) ([]kernelgen.Kernel, []string, []request) {
	ks := make([]kernelgen.Kernel, n)
	fams := make([]string, n)
	reqs := make([]request, n)
	for i := range ks {
		switch {
		case i%2 == 1:
			ks[i] = lutClass(g, i/2)
		case i%8 == 6:
			ks[i] = g.Vec()
		default:
			ks[i] = g.DSP()
		}
		fams[i] = drawFamily(g.Rand())
		reqs[i] = compileReq(kindHot, fams[i], ks[i], i)
	}
	return ks, fams, reqs
}

// zipf draws working-set ranks with exponent 1.2: a few kernels take
// most of the traffic, the tail is touched rarely.
func zipf(r *rand.Rand, n int) *rand.Zipf { return rand.NewZipf(r, 1.2, 1, uint64(n-1)) }

// fill draws the warm-up and then the n-request schedule from one stream.
func (p *plan) fill(warm, n int, draw func(i int) request) *plan {
	for i := 0; i < warm+n; i++ {
		if r := draw(i); i < warm {
			p.warm = append(p.warm, r)
		} else {
			p.sched = append(p.sched, r)
		}
	}
	return p
}

func buildColdDSP(g *kernelgen.Gen, n int, smoke bool) *plan {
	warm := 200
	if smoke {
		warm = 8
	}
	return new(plan).fill(warm, n, func(int) request {
		return compileReq(kindCold, drawFamily(g.Rand()), g.DSP(), -1)
	})
}

func buildColdLUT(g *kernelgen.Gen, n int, smoke bool) *plan {
	warm := 50
	if smoke {
		warm = 4
	}
	return new(plan).fill(warm, n, func(i int) request {
		return compileReq(kindCold, drawFamily(g.Rand()), lutClass(g, i), -1)
	})
}

func buildHotServe(g *kernelgen.Gen, n int, smoke bool) *plan {
	size, warm := 64, 2000
	if smoke {
		size, warm = 8, 50
	}
	_, _, prefill := workingSet(g, size)
	z := zipf(g.Rand(), size)
	return (&plan{prefill: prefill}).fill(warm, n, func(int) request { return prefill[z.Uint64()] })
}

func buildShardMixed(g *kernelgen.Gen, n int, smoke bool) *plan {
	size, pool, warm := 256, 8, 40
	if smoke {
		size, pool, warm = 16, 2, 8
	}
	ks, fams, prefill := workingSet(g, size)
	p := &plan{prefill: prefill}
	r := g.Rand()
	z := zipf(r, size)

	// The sweep pool is explored once during set-up, so a repeat sweep in
	// the window finds its variants cached.
	exploreReq := func(k kernelgen.Kernel, family string) request {
		return request{
			path:   "/explore",
			body:   mustJSON(server.ExploreRequest{Family: family, IR: k.IR, MaxVariants: 12}),
			kind:   kindExplore,
			family: family,
			hot:    []int{-1},
		}
	}
	sweeps := make([]request, pool)
	for i := range sweeps {
		sweeps[i] = exploreReq(g.SmallDSP(), drawFamily(r))
	}
	p.prefill = append(p.prefill, sweeps...)

	fresh := 0
	newKernel := func() kernelgen.Kernel {
		fresh++
		if fresh%2 == 0 {
			return lutClass(g, fresh/2)
		}
		return g.DSP()
	}
	return p.fill(warm, n, func(int) request {
		// Kinds come from the generator's even sequence, not from
		// independent draws: the latency quantiles of a mixed workload sit
		// between the kinds' clusters, and would otherwise move with each
		// seed's share of hot requests.
		switch u, v := g.Mix(); {
		case u < 0.60:
			i := int(z.Uint64())
			switch {
			case v < 0.70:
				return prefill[i]
			case v < 0.85:
				if e, ok := kernelgen.TweakConst(ks[i], r.Intn(1<<16), 1+r.Int63n(255)); ok {
					return compileReq(kindTweak, fams[i], e, -1)
				}
				return prefill[i] // a kernel with no constant stays a hot request
			default:
				return compileReq(kindAppend, fams[i], kernelgen.AppendOp(ks[i], 1+r.Intn(3)), -1)
			}
		case u < 0.85:
			// One family per /batch: that of a first hot draw, so the hot
			// half always has working-set kernels pinned to it to draw from.
			family := fams[z.Uint64()]
			req := server.BatchRequest{Family: family}
			var hot []int
			for len(hot) < 8 {
				if len(hot)%2 == 1 {
					hot = append(hot, -1)
					req.Kernels = append(req.Kernels, server.BatchKernel{IR: newKernel().IR})
				} else if i := int(z.Uint64()); fams[i] == family {
					hot = append(hot, i)
					req.Kernels = append(req.Kernels, server.BatchKernel{IR: ks[i].IR})
				}
			}
			return request{path: "/batch", body: mustJSON(req), kind: kindBatch, family: family, hot: hot}
		default:
			if v < 0.5 {
				return sweeps[r.Intn(pool)]
			}
			return exploreReq(g.SmallDSP(), drawFamily(r))
		}
	})
}

// workloads lists the four mixes; names are normative (BENCHMARK.json).
var workloads = []workload{
	{
		name:           "cold-dsp",
		why:            "every request a new ragged-tensordot kernel: all cache tiers miss, parse/isel/cascade dominate, placement is small",
		perSecond:      500,
		panelPerSecond: 100,
		build:          buildColdDSP,
	},
	{
		name:           "cold-lut",
		why:            "every request a new random LUT program or FSM: all cache tiers miss, placement and the solver dominate; the memory-heavy case",
		perSecond:      130,
		panelPerSecond: 25,
		build:          buildColdLUT,
	},
	{
		name:      "hot-serve",
		why:       "Zipf traffic over a 64-kernel working set that fits the LRU: the pipeline never runs, so per-request server and cache overhead shows",
		perSecond: 11000,
		build:     buildHotServe,
	},
	{
		name:      "shard-mixed",
		why:       "router over two disk-backed backends, 256-kernel working set in 64-entry LRUs, compile/edit/batch/explore mix: the production-shaped path",
		spec:      clusterSpec{shard: true, disk: true, cacheEntries: 64},
		perSecond: 100,
		build:     buildShardMixed,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
