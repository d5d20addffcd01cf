package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"reticle/internal/pipeline"
)

// Request accounts (DESIGN.md §16). Every request on either tier gets one
// Account at the edge. Each fact in it is filled where it is already
// known — the stage driver's times and solver counters in compileKernel,
// the serving level from cache.Store.Resolve, the proxy attempts in the
// router's ring walk — and nowhere else. When the request ends its
// account is folded into the tier's Totals, which /stats renders, and
// written as the request's one log line. A /batch kernel or an /explore
// variant fills a sub-account of its own on its worker; the handler
// merges them once the pool has finished, so an account needs no lock.

// RequestIDHeader carries a request's id: minted at the edge unless the
// client sent a valid one, echoed on every response of either tier, and
// forwarded on every proxy attempt with a suffix naming the attempt.
const RequestIDHeader = "X-Reticle-Request-Id"

// Account is one request's record.
type Account struct {
	ID        string
	Endpoint  string // the URL path
	Status    int
	ErrorCode string // the typed error's stable code, when one answered
	Key       string // the artifact cache key, when the request had one; a router's is the text key it routed by
	// Tier is the level that served a one-kernel request: "memory",
	// "disk", "coalesced" or "computed" (cache.Level); empty otherwise.
	Tier string

	// N holds the request's integer counters, indexed by Counter.
	N [numCounters]int
	// The compiles this request ran: their stage wall times and solver
	// counters, and the last one's warm start and degraded reason.
	Stages    pipeline.StageTimes
	Place     pipeline.PlaceStats
	WarmStart string
	Degraded  string
	// Explore is the finished sweep of an /explore, zero otherwise.
	Explore ExploreTotalsJSON

	BytesOut int64
	Deadline time.Time // the request's deadline, zero when it had none

	start time.Time
}

// Counter names one of an account's integer counters: its index in
// Account.N and in counterKeys. Merge sums them, the log line writes the
// non-zero ones, and each tier's /stats reads its own off the fold.
type Counter int

const (
	Kernels       Counter = iota // kernels that entered the pipeline (compileKernel)
	StagesSkipped                // pipeline stages the stage memo served (compileKernel)
	// The router's proxy walk (proxyWalk).
	Attempts      // attempts sent; a hedge is one
	Rehashes      // attempts past a key's first choice
	Hedged        // hedges fired
	HedgeWon      // hedges that answered first
	ShedForwarded // backend 429s relayed to the client
	Outages       // walks that found no live backend
	Proxied       // attempts a backend answered
	numCounters
)

// counterKeys is each counter's log key, in the order the line writes them.
var counterKeys = [numCounters]string{
	Kernels: "kernels", StagesSkipped: "stages_skipped",
	Attempts: "attempts", Rehashes: "rehashes", Hedged: "hedged", HedgeWon: "hedge_won",
	ShedForwarded: "shed_forwarded", Outages: "outages", Proxied: "proxied",
}

// Merge adds sub-accounts' — or, in a fold, a finished request's —
// counters into a. A handler merges its sub-accounts once their workers
// are done.
func (a *Account) Merge(bs ...Account) {
	for i := range bs {
		b := &bs[i]
		for c, n := range b.N {
			a.N[c] += n
		}
		a.Stages.Add(b.Stages)
		a.Place.Add(b.Place)
		a.Explore.Add(b.Explore)
	}
}

// Totals is a tier's fold of finished accounts: the one producer of its
// cumulative /stats counters.
type Totals struct {
	mu       sync.Mutex
	requests int64
	sum      Account
}

// Add folds one finished request.
func (t *Totals) Add(a *Account) {
	t.mu.Lock()
	t.requests++
	t.sum.Merge(*a)
	t.mu.Unlock()
}

// Snapshot returns the requests folded so far and their summed account.
// The request asking has not ended, so /stats adds itself.
func (t *Totals) Snapshot() (requests int64, sum Account) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.requests, t.sum
}

// Tracked is the response writer a tier's handlers answer through: it
// carries the request's account and records the status and the bytes
// written into it.
type Tracked struct {
	http.ResponseWriter
	Account
	idHeader [1]string // the header's value slice, kept here to spare an allocation
}

// Track opens the account of a request arriving at a tier's edge: the
// client's id when it is valid (with the router's suffixes too, when
// suffixed), else a minted one, echoed on the response.
func Track(w http.ResponseWriter, r *http.Request, suffixed bool) *Tracked {
	t := &Tracked{ResponseWriter: w}
	t.ID = r.Header.Get(RequestIDHeader)
	if !ValidID(t.ID, suffixed) {
		t.ID = mintID()
	}
	t.idHeader[0] = t.ID
	w.Header()[RequestIDHeader] = t.idHeader[:]
	t.Endpoint, t.start = r.URL.Path, time.Now()
	return t
}

func (t *Tracked) WriteHeader(code int) {
	if t.Status == 0 {
		t.Status = code
	}
	t.ResponseWriter.WriteHeader(code)
}

func (t *Tracked) Write(p []byte) (int, error) {
	if t.Status == 0 {
		t.Status = http.StatusOK
	}
	n, err := t.ResponseWriter.Write(p)
	t.BytesOut += int64(n)
	return n, err
}

// Flush passes a streaming handler's flush through.
func (t *Tracked) Flush() {
	if f, ok := t.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Finish closes the account once the handler has returned: it is folded
// into totals and written as the request's one log line, msg.
func (t *Tracked) Finish(totals *Totals, msg string) {
	a := &t.Account
	if a.Status == 0 {
		a.Status = http.StatusOK
	}
	totals.Add(a)
	a.log(msg)
}

// accountOf returns the account of the request w answers. A writer that
// did not come through Track gets a fresh account nobody folds.
func accountOf(w http.ResponseWriter) *Account {
	if t, ok := w.(*Tracked); ok {
		return &t.Account
	}
	return &Account{}
}

// log writes the account through slog.Default(). A 200 served from the
// resident artifact logs at Debug, which the default handler drops: a
// written line would add about a fifth to a hit's server CPU, a disabled
// level costs nanoseconds (DESIGN.md §16). Everything else logs at Info.
func (a *Account) log(msg string) {
	level := slog.LevelInfo
	if a.Status == http.StatusOK && a.Tier == "memory" {
		level = slog.LevelDebug
	}
	ctx := context.Background()
	logger := slog.Default()
	if !logger.Enabled(ctx, level) {
		return
	}
	attrs := make([]slog.Attr, 0, 24)
	attrs = append(attrs, slog.String("id", a.ID), slog.String("endpoint", a.Endpoint),
		slog.Int("status", a.Status), slog.Duration("dur", time.Since(a.start)), slog.Int64("bytes", a.BytesOut))
	for _, s := range [...]struct{ k, v string }{
		{"error_code", a.ErrorCode}, {"tier", a.Tier}, {"key", a.Key[:min(len(a.Key), 12)]},
		{"warm_start", a.WarmStart}, {"degraded", a.Degraded},
	} {
		if s.v != "" {
			attrs = append(attrs, slog.String(s.k, s.v))
		}
	}
	if !a.Deadline.IsZero() {
		attrs = append(attrs, slog.Duration("budget", time.Until(a.Deadline)))
	}
	for c, n := range a.N {
		if n != 0 {
			attrs = append(attrs, slog.Int(counterKeys[c], n))
		}
	}
	if st := a.Stages; st != (pipeline.StageTimes{}) {
		attrs = append(attrs, slog.Group("stages", "select", st.Select, "cascade", st.Cascade,
			"place", st.Place, "codegen", st.Codegen, "timing", st.Timing))
	}
	if p := a.Place; p != (pipeline.PlaceStats{}) {
		attrs = append(attrs, slog.Group("place", "solver_steps", p.SolverSteps, "shrink_probes", p.ShrinkProbes,
			"probes_skipped", p.ProbesSkipped, "hint_cache_hits", p.HintCacheHits))
	}
	if e := a.Explore; e.Sweeps > 0 {
		attrs = append(attrs, slog.Group("explore", "variants", e.Variants,
			"cache_hits", e.VariantCacheHits, "partial", e.Partial > 0))
	}
	logger.LogAttrs(ctx, level, msg, attrs...)
}

// maxIDBase bounds the part of a request id a client chooses.
const maxIDBase = 64

// ValidID reports whether id is a request id a tier adopts rather than
// replaces: a base of 1–64 bytes from [A-Za-z0-9._-] that does not
// contain ".a" — it and "/" are reserved for suffixes — followed, when
// suffixed, by what the router appends: an attempt ".aN", after an
// optional /batch kernel "/k". Anything else is outside input and is
// never echoed, forwarded or logged.
func ValidID(id string, suffixed bool) bool {
	base := id
	if suffixed {
		if i := strings.LastIndex(base, ".a"); i >= 0 && digits(base[i+2:]) {
			base = base[:i]
			if j := strings.LastIndexByte(base, '/'); j >= 0 && digits(base[j+1:]) {
				base = base[:j]
			}
		}
	}
	if len(base) == 0 || len(base) > maxIDBase || strings.Contains(base, ".a") {
		return false
	}
	for i := 0; i < len(base); i++ {
		c := base[i]
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '.' || c == '_' || c == '-') {
			return false
		}
	}
	return true
}

// digits reports whether s is 1–9 decimal digits.
func digits(s string) bool {
	if len(s) == 0 || len(s) > 9 {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// idPrefix is this process's random part of every id it mints.
var idPrefix = func() string {
	var b [4]byte
	rand.Read(b[:])
	return hex.EncodeToString(b[:])
}()

// idSeq numbers the ids this process mints.
var idSeq atomic.Uint64

// mintID returns a fresh id: the process prefix and a sequence number.
func mintID() string {
	var buf [32]byte
	b := append(append(buf[:0], idPrefix...), '-')
	return string(strconv.AppendUint(b, idSeq.Add(1), 36))
}
