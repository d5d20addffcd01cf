package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"time"

	"reticle/benchmark/kernelgen"
)

// env is where one invocation builds, runs and writes.
type env struct {
	binDir  string // reticle-serve and reticle-shard binaries
	workDir string // per-run temp directories; trace.jsonl is written beside them
	smoke   bool   // tiny working sets and warm-ups, one set-up: same code paths in about a second
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload: the object the contract asks for
// on the last line of standard output, plus what identifies the run.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Failures holds the first few failure descriptions, for the operator.
	Failures []string `json:"failures,omitempty"`
}

// setupRepeats is how many times an untraced run sets up, tearing down all
// but the last: setup_s is their median, so one slow exec does not read
// as a regression.
const setupRepeats = 3

// setUp starts the workload's processes and brings them to the state the
// measured window assumes: working set compiled and resident, warm-up
// sent. It returns the cluster and, by working-set index, the reply each
// hot kernel is served with once resident (nil past the compile
// prefill). Any failure here is fatal, not a counted request failure: the
// window would measure something else.
func setUp(ctx context.Context, e env, w workload, pl *plan) (*cluster, [][]byte, error) {
	cl, err := startCluster(ctx, e.binDir, e.workDir, w.spec)
	if err != nil {
		return nil, nil, err
	}
	refs, err := prepare(ctx, cl, pl)
	if err != nil {
		cl.stop()
		return nil, nil, fmt.Errorf("set-up of %s: %w", w.name, err)
	}
	return cl, refs, nil
}

// prepare sends the prefill, the reference pass and the warm-up.
func prepare(ctx context.Context, cl *cluster, pl *plan) ([][]byte, error) {
	pass := func(name string, reqs []request, keep func(int) bool) (window, error) {
		win := drive(ctx, cl.front, reqs, 0, 0, keep, nil)
		if err := ctx.Err(); err != nil {
			return win, err
		}
		for i, o := range win.outs[:win.done] {
			if o.status != http.StatusOK || o.artifacts == 0 {
				return win, fmt.Errorf("%s request %d (%s): status %d, %d artifacts: %s",
					name, i, reqs[i].kind, o.status, o.artifacts, firstLine(o.body))
			}
		}
		return win, nil
	}
	if _, err := pass("prefill", pl.prefill, nil); err != nil {
		return nil, err
	}
	// Second sight of every working-set kernel: now resident, so this is
	// the reply every later hot request must repeat.
	win, err := pass("reference", pl.prefill, func(int) bool { return true })
	if err != nil {
		return nil, err
	}
	refs := make([][]byte, len(pl.prefill))
	for i, r := range pl.prefill {
		if r.kind == kindHot {
			refs[i] = win.outs[i].body
		}
	}
	_, err = pass("warm-up", pl.warm, nil)
	return refs, err
}

func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	if len(b) > 200 {
		b = b[:200]
	}
	return string(b)
}

// sampleMask draws the seeded oracle sample: one in 64 hot replies (each
// is also length-checked), one in 32 of everything else.
func sampleMask(seed int64, sched []request) []bool {
	r := rand.New(rand.NewSource(seed ^ 0x5eed0fac1e))
	mask := make([]bool, len(sched))
	for i, req := range sched {
		if req.kind == kindHot {
			mask[i] = r.Intn(64) == 0
		} else {
			mask[i] = r.Intn(32) == 0
		}
	}
	return mask
}

// failureLog counts failures and keeps the first few descriptions.
type failureLog struct {
	n     int
	first []string
}

func (f *failureLog) add(format string, args ...any) {
	f.n++
	if len(f.first) < 8 {
		f.first = append(f.first, fmt.Sprintf(format, args...))
	}
}

// second is what completed in one sampling interval of a window.
type second struct {
	rate     float64 // correct artifacts per second
	p50, p90 float64 // latency of the requests that completed in it, ms
	cpuMS    float64 // the children's CPU time per artifact
}

// windowStats is what one measured window yields before it is turned
// into named metrics.
type windowStats struct {
	attempted int
	artifacts int
	shed      int
	respBytes float64 // mean reply size
	lat       []float64
	elapsed   float64 // seconds
	serverCPU float64 // seconds, all children
	clientCPU float64 // seconds, this process
	seconds   []second
	rssMB     float64 // median of the once-a-second samples of the children's summed VmRSS
	peakRSSMB float64 // the children's summed VmHWM after the window
	panel     []panelEntry
}

// bySecond splits a window at the samples of its children and accounts
// each interval for the requests that completed in it. The last interval
// is cut short by the window's end and is left out, unless it is the only
// one. The end-to-end metrics are medians over these intervals, so a
// neighbour of the box that takes the cores for a few seconds does not move them.
func bySecond(win window, from int, samples []sample) []second {
	if len(samples) > 2 {
		samples = samples[:len(samples)-1]
	}
	n := len(samples) - 1
	lat := make([][]float64, n)
	arts := make([]int, n)
	for _, o := range win.outs[from:win.done] {
		done := win.t0.Add(o.start + o.latency)
		k := sort.Search(len(samples), func(k int) bool { return samples[k].at.After(done) }) - 1
		if k < 0 || k >= n {
			continue
		}
		lat[k] = append(lat[k], float64(o.latency)/float64(time.Millisecond))
		if o.status == http.StatusOK {
			arts[k] += o.artifacts
		}
	}
	var out []second
	for k := 0; k < n; k++ {
		if len(lat[k]) == 0 {
			continue
		}
		sort.Float64s(lat[k])
		out = append(out, second{
			rate:  float64(arts[k]) / samples[k+1].at.Sub(samples[k].at).Seconds(),
			p50:   quantile(lat[k], 0.50),
			p90:   quantile(lat[k], 0.90),
			cpuMS: (samples[k+1].cpu - samples[k].cpu) * 1000 / math.Max(1, float64(arts[k])),
		})
	}
	return out
}

// measure runs one closed-loop window over sched[from:] and accounts for
// it. count > 0 bounds the window by requests (the traced run, so counts
// repeat exactly); otherwise limit bounds it by time.
func measure(ctx context.Context, cl *cluster, sched []request, from, count int, limit time.Duration,
	keep, panel func(int) bool, fails *failureLog) (window, windowStats, error) {
	reqs := sched
	if count > 0 {
		reqs = sched[:min(len(sched), from+count)]
	}
	pids := cl.pids()
	self0, err := cpuSeconds(os.Getpid())
	if err != nil {
		return window{}, windowStats{}, err
	}
	stop := make(chan struct{})
	sampled := sampleChildren(pids, stop)
	win := drive(ctx, cl.front, reqs, from, limit, keep, panel)
	close(stop)
	samples := <-sampled
	if err := ctx.Err(); err != nil {
		return win, windowStats{}, err
	}
	self1, _ := cpuSeconds(os.Getpid())
	peak, err := statusMB(pids, "VmHWM")
	if err != nil {
		return win, windowStats{}, fmt.Errorf("a server died during the window: %w", err)
	}
	if len(samples) < 2 {
		return win, windowStats{}, fmt.Errorf("a server died during the window: %d readings of the children", len(samples))
	}
	rss := make([]float64, len(samples))
	for i, s := range samples {
		rss[i] = s.rssMB
	}
	st := windowStats{
		attempted: win.done - from,
		lat:       win.latenciesMS(from),
		elapsed:   win.elapsed.Seconds(),
		serverCPU: samples[len(samples)-1].cpu - samples[0].cpu,
		clientCPU: self1 - self0,
		seconds:   bySecond(win, from, samples),
		rssMB:     median(rss),
		peakRSSMB: peak,
	}
	if st.attempted == 0 || len(st.seconds) == 0 {
		return win, st, fmt.Errorf("the window completed no request")
	}
	bytesTotal := 0
	for i := from; i < win.done; i++ {
		o, r := &win.outs[i], reqs[i]
		bytesTotal += o.size
		switch {
		case o.status == http.StatusTooManyRequests:
			st.shed++
			fails.add("request %d (%s): shed with 429", i, r.kind)
		case o.status != http.StatusOK:
			fails.add("request %d (%s): status %d: %s", i, r.kind, o.status, firstLine(o.body))
		case o.artifacts < wantArtifacts(r):
			fails.add("request %d (%s): %d of %d artifacts", i, r.kind, o.artifacts, wantArtifacts(r))
		case o.degraded > 0:
			fails.add("request %d (%s): %d degraded artifacts", i, r.kind, o.degraded)
		}
		if o.status == http.StatusOK {
			st.artifacts += o.artifacts
			if panel != nil && panel(i) {
				st.panel = append(st.panel, o.panel)
			}
		}
	}
	st.respBytes = float64(bytesTotal) / float64(st.attempted)
	return win, st, nil
}

// wantArtifacts is the least number of correct artifacts a good reply to
// r carries: every kernel of a /compile or /batch, at least the base
// variant of a sweep.
func wantArtifacts(r request) int {
	if r.path == "/explore" {
		return 1
	}
	return len(r.hot)
}

// The oracle runs after the window has closed, so it is never timed.

// checkReferences checks every distinct hot kernel's reference reply
// once, in full.
func checkReferences(seed int64, pl *plan, refs [][]byte, fails *failureLog) {
	fts := famTargets()
	for i, body := range refs {
		if body == nil {
			continue
		}
		if err := checkResponse(fts, pl.prefill[i], body, seed+int64(i)); err != nil {
			fails.add("working-set kernel %d: %v", i, err)
		}
	}
}

// checkWindow checks every hot reply's length against its reference, the
// kept hot replies byte for byte, and every other kept reply in full.
func checkWindow(seed int64, pl *plan, refs [][]byte, win window, from int, fails *failureLog) {
	fts := famTargets()
	for i := from; i < win.done; i++ {
		o, r := &win.outs[i], pl.sched[i]
		if o.status != http.StatusOK {
			continue
		}
		if r.kind == kindHot {
			want := len(refs[r.hot[0]])
			if !o.hit {
				want++ // "miss" is one byte longer than "hit"
			}
			if o.size != want {
				fails.add("request %d (hot %d): reply is %d bytes, reference %d", i, r.hot[0], o.size, want)
				continue
			}
			if o.body != nil && !sameOutsideCache(o.body, refs[r.hot[0]]) {
				fails.add("request %d (hot %d): reply differs from its reference", i, r.hot[0])
			}
			continue
		}
		if o.body != nil {
			if err := checkResponse(fts, r, o.body, seed+int64(i)); err != nil {
				fails.add("request %d (%s): %v", i, r.kind, err)
			}
		}
	}
}

// panelOf reads the quality panel: the working set's reference replies
// when the workload has one, else the window's first panel-sized slice.
func panelOf(refs [][]byte, st windowStats) []panelEntry {
	var out []panelEntry
	for _, body := range refs {
		if body != nil {
			out = append(out, readPanel(body))
		}
	}
	if len(out) > 0 {
		return out
	}
	return st.panel
}

// runWorkload runs one workload once and returns its metrics: the
// end-to-end set untraced, the per-layer set traced.
func runWorkload(ctx context.Context, e env, w workload, seed int64, seconds float64, traced bool) (*runResult, error) {
	n := int(seconds * float64(w.perSecond))
	pl := w.build(kernelgen.New(seed), n, e.smoke)
	res := &runResult{Workload: w.name, Seed: seed, Seconds: seconds, Trace: traced, Metrics: map[string]metric{}}

	repeats := setupRepeats
	if traced || e.smoke {
		repeats = 1
	}
	var (
		cl      *cluster
		refs    [][]byte
		setupsS []float64
	)
	defer func() { cl.stop() }()
	for i := 0; i < repeats; i++ {
		cl.stop()
		t0 := time.Now()
		var err error
		if cl, refs, err = setUp(ctx, e, w, pl); err != nil {
			return nil, err
		}
		setupsS = append(setupsS, time.Since(t0).Seconds())
	}

	mask := sampleMask(seed, pl.sched)
	keep := func(i int) bool { return mask[i] }
	fails := &failureLog{}
	if traced {
		if err := runTraced(ctx, e, w, seed, seconds, pl, cl, refs, keep, fails, res); err != nil {
			return nil, err
		}
	} else {
		panelN := int(seconds * float64(w.panelPerSecond))
		panel := func(i int) bool { return i < panelN }
		win, st, err := measure(ctx, cl, pl.sched, 0, 0, time.Duration(seconds*float64(time.Second)), keep, panel, fails)
		if err != nil {
			return nil, err
		}
		if win.done == len(pl.sched) {
			fmt.Fprintf(os.Stderr, "reticle-load: %s exhausted its %d-request schedule after %.1fs of %.0fs\n",
				w.name, len(pl.sched), st.elapsed, seconds)
		}
		checkReferences(seed, pl, refs, fails)
		checkWindow(seed, pl, refs, win, 0, fails)
		panelEntries := panelOf(refs, st)
		if w.panelPerSecond > 0 && len(panelEntries) < panelN {
			fmt.Fprintf(os.Stderr, "reticle-load: %s reached %d of its %d panel kernels; quality metrics are not comparable\n",
				w.name, len(panelEntries), panelN)
		}
		res.Attempted = st.attempted
		endToEnd(res, st, median(setupsS), panelEntries)
	}
	res.Failed = fails.n
	res.Failures = fails.first
	res.Correct = fails.n == 0
	return res, nil
}

// endToEnd fills the end-to-end metrics from an untraced window: the
// timed ones as medians over its seconds.
func endToEnd(res *runResult, st windowStats, setupS float64, panel []panelEntry) {
	logSum, primSum := 0.0, 0.0
	for _, p := range panel {
		logSum += math.Log(math.Max(p.criticalNs, 1e-9))
		primSum += p.prims
	}
	np := math.Max(1, float64(len(panel)))
	set := func(name string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unitOf(name)} }
	over := func(f func(second) float64) float64 {
		xs := make([]float64, len(st.seconds))
		for i, s := range st.seconds {
			xs[i] = f(s)
		}
		return median(xs)
	}
	set("setup_s", setupS)
	set("artifacts_per_s", over(func(s second) float64 { return s.rate }))
	set("latency_p50_ms", over(func(s second) float64 { return s.p50 }))
	set("latency_p90_ms", over(func(s second) float64 { return s.p90 }))
	set("cpu_ms_per_artifact", over(func(s second) float64 { return s.cpuMS }))
	set("rss_mb", st.rssMB)
	set("critical_ns_geomean", math.Exp(logSum/np))
	set("prims_per_kernel", primSum/np)
}

// contractLine renders the one JSON object the driver reads.
func (r *runResult) contractLine() string {
	raw, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		panic(err) // numbers and strings
	}
	return string(raw)
}
