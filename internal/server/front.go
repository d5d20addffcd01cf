package server

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"reticle/internal/batch"
	"reticle/internal/cache"
	"reticle/internal/ir"
	"reticle/internal/pipeline"
	"reticle/internal/rerr"
)

// The HTTP front end the compile service and the shard router share:
// family resolution, body decoding, panic isolation, the JSON and typed
// error writers, the disk tier's operator surface, and the /batch plan
// and framings. The router serves the same endpoint surface as a backend, so
// it uses these rather than keeping copies.

// FamilySet is the configured family → pipeline config table and the
// default applied when a request names none. A routing tier's admits
// kernels unparsed (RouteOnText).
type FamilySet struct {
	configs map[string]*pipeline.Config
	def     string
	routing bool // kernels are keyed by their text, never parsed
}

// NewFamilySet validates one pipeline config per family name. At least
// one family is required; an empty def with exactly one family means
// that family.
func NewFamilySet(configs map[string]*pipeline.Config, def string) (FamilySet, error) {
	if len(configs) == 0 {
		return FamilySet{}, fmt.Errorf("no pipeline configs")
	}
	for name, cfg := range configs {
		if err := cfg.Validate(); err != nil {
			return FamilySet{}, fmt.Errorf("family %q: %w", name, err)
		}
	}
	if def == "" && len(configs) == 1 {
		for name := range configs {
			def = name
		}
	}
	if _, ok := configs[def]; def != "" && !ok {
		return FamilySet{}, fmt.Errorf("default family %q has no config", def)
	}
	return FamilySet{configs: configs, def: def}, nil
}

// RouteOnText makes the front door a routing tier's: every check but the
// parse runs, and each kernel is admitted unparsed, keyed by
// pipeline.TextKeyFor. The backend it is forwarded to parses it, through
// the same front door, and refuses it if it does not parse. A routing
// tier calls it once, before serving.
func (fs *FamilySet) RouteOnText() { fs.routing = true }

// Families lists the configured family names, sorted.
func (fs FamilySet) Families() []string {
	out := make([]string, 0, len(fs.configs))
	for name := range fs.configs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Family resolves a request's family name to its config.
func (fs FamilySet) Family(name string) (string, *pipeline.Config, error) {
	if name == "" {
		name = fs.def
	}
	if name == "" {
		return "", nil, fmt.Errorf("no family requested and no default configured (have %v)", fs.Families())
	}
	cfg, ok := fs.configs[name]
	if !ok {
		return "", nil, fmt.Errorf("unknown family %q (have %v)", name, fs.Families())
	}
	return name, cfg, nil
}

// DiskTier is the operator surface of a persistent artifact disk cache:
// the handle /stats reads, the -scrub-on-start walk, and POST /scrub.
// The zero value is "no disk tier configured".
type DiskTier struct{ disk *cache.Disk }

// OpenDiskTier opens the disk cache rooted at dir, or returns the zero
// tier when dir is empty.
func OpenDiskTier(dir string, maxBytes int64) (DiskTier, error) {
	if dir == "" {
		return DiskTier{}, nil
	}
	disk, err := cache.OpenDisk(dir, maxBytes)
	if err != nil {
		return DiskTier{}, fmt.Errorf("disk cache: %w", err)
	}
	return DiskTier{disk: disk}, nil
}

// Disk exposes the persistent cache (nil when disabled).
func (t DiskTier) Disk() *cache.Disk { return t.disk }

// Close releases the disk cache's files (see cache.Disk.Close); the zero
// tier has none.
func (t DiskTier) Close() error {
	if t.disk == nil {
		return nil
	}
	return t.disk.Close()
}

// ScrubDisk runs one integrity walk over the disk cache at the scrub's
// fixed I/O rate, quarantining corrupt entries exactly as a corrupt Get
// would. It reports ok=false without walking when no disk tier is
// configured.
func (t DiskTier) ScrubDisk(ctx context.Context) (cache.ScrubReport, bool, error) {
	if t.disk == nil {
		return cache.ScrubReport{}, false, nil
	}
	rep, err := t.disk.Scrub(ctx)
	return rep, true, err
}

// HandleScrub is POST /scrub: a synchronous integrity walk, 404 when no
// disk tier is configured, otherwise the walk's report.
func (t DiskTier) HandleScrub(w http.ResponseWriter, r *http.Request) {
	rep, ok, err := t.ScrubDisk(r.Context())
	if !ok {
		WriteError(w, http.StatusNotFound, "no disk cache configured")
		return
	}
	if err != nil {
		WriteTypedError(w, rerr.Wrap(rerr.Transient, "scrub_cancelled",
			"scrub walk cancelled before completion", err))
		return
	}
	WriteJSON(w, http.StatusOK, ScrubResponse{
		Scanned: rep.Scanned, Corrupt: rep.Corrupt,
		Bytes: rep.Bytes, ElapsedMS: rep.Elapsed.Milliseconds(),
	})
}

// Recovered wraps a handler with panic isolation: a panic becomes a 500
// JSON error response instead of a dead connection, the same "one bad
// kernel never takes down the process" semantics the batch tier gives
// each worker. The body carries only the stable typed message — the
// panic value and stack stay in the process, never on the wire.
func Recovered(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				WriteTypedError(w, rerr.Wrap(rerr.Permanent, "internal_panic",
					"internal panic while handling the request",
					fmt.Errorf("panic: %v", rec)))
			}
		}()
		h(w, r)
	}
}

// The front door (DESIGN.md §8): every endpoint that reads a body, on
// either tier, admits it through Admit, which either returns the
// validated Request or the one refusal WriteRefusal renders. Admission
// control, fault points and the backend's raw-body memo stay with their
// tier, in front of it. The checks run in one order, so the first failing
// one answers whichever tier it reaches: size limit, decode (unknown
// fields and trailing data refused), family, timeout_ms, the endpoint's
// own fields, parse (per kernel and non-fatal on /batch), deadline header.

// Request is a request the front door admitted.
type Request struct {
	Family      string
	Config      *pipeline.Config
	Timeout     time.Duration // timeout_ms
	Stream      bool          // NDJSON framing, by field or Accept header
	Jobs        int           // /batch and /explore
	MaxVariants int           // /explore
	// Kernels is the request's one kernel, or a /batch's every kernel in
	// order. A kernel's Name is the parsed function's when the client
	// gave none (on a routing tier it stays empty); one whose IR does not
	// parse (only on /batch) has Err set.
	Kernels []Kernel

	body          []byte    // as received: what a routing tier forwards
	familyOmitted bool      // the body named no family, or ""
	deadline      time.Time // the X-Reticle-Deadline header; zero when not sent
}

// Kernel is one kernel of an admitted request: its IR parsed, and its
// artifact key (cache.KeyFor). On a routing tier Func is nil and Key is
// its text key (pipeline.TextKeyFor).
type Kernel struct {
	Name string
	Func *ir.Func
	// Syms is the symbol table the parse's check built for Func.
	Syms ir.Symbols
	Key  cache.Key
	Err  error
}

// refusal is a request the front door turns away untyped: a 400, or the
// 413 of an oversized body.
type refusal struct {
	status int
	msg    string
}

func (e *refusal) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &refusal{http.StatusBadRequest, fmt.Sprintf(format, args...)}
}

// WriteRefusal renders a front-door refusal: a validation failure as its
// status and message, a typed error through the taxonomy.
func WriteRefusal(w http.ResponseWriter, err error) {
	var v *refusal
	if errors.As(err, &v) {
		WriteError(w, v.status, v.msg)
		return
	}
	WriteTypedError(w, err)
}

// bodyPool recycles the buffers request bodies are read into. Decoding
// copies every string out, so nothing that outlives a request holds a
// slice of one.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxBodyBytes bounds every request body on both tiers. It is one
// constant, not a setting, because Admit's family check assumes a routing
// tier and its backends refuse alike: with a limit each, a router could
// answer 200 for a /batch that a backend refuses with 413.
const maxBodyBytes = 1 << 20

// readBody reads r's body into a pooled buffer, at most one byte past
// maxBodyBytes: enough for Admit to refuse it. The caller puts the buffer
// back in bodyPool.
func readBody(r *http.Request) (*bytes.Buffer, error) {
	body := bodyPool.Get().(*bytes.Buffer)
	body.Reset()
	// A body of announced length is read into one buffer of that size,
	// not one grown by doubling: a router's bodies never return to the pool.
	if n := r.ContentLength; n > 0 && n <= maxBodyBytes {
		body.Grow(int(n) + bytes.MinRead)
	}
	if _, err := body.ReadFrom(io.LimitReader(r.Body, maxBodyBytes+1)); err != nil {
		bodyPool.Put(body)
		return nil, badRequest("request: %v", err)
	}
	return body, nil
}

// Door reads and admits r, writing the refusal itself: false means the
// response is written. An admitted body's buffer is not returned to the
// pool: it is the request body a routing tier forwards, and a cancelled
// attempt's transport may still be reading it after the walk returns.
func (fs FamilySet) Door(w http.ResponseWriter, r *http.Request) (*Request, bool) {
	body, err := readBody(r)
	if err == nil {
		var q *Request
		if q, err = fs.Admit(r.URL.Path, body.Bytes(), r.Header); err == nil {
			return q, true
		}
		bodyPool.Put(body)
	}
	WriteRefusal(w, err)
	return nil, false
}

// maxTimeoutMS is the largest timeout_ms a time.Duration holds.
const maxTimeoutMS = int64(math.MaxInt64 / time.Millisecond)

// Admit is the front door: it turns a request for path — /compile,
// /batch or /explore — its body and its headers into a Request, or into
// the refusal WriteRefusal renders. A body that names no family counts
// the resolved family's member against maxBodyBytes, so a routing tier's
// forward of it is admitted downstream too.
func (fs FamilySet) Admit(path string, body []byte, h http.Header) (*Request, error) {
	if len(body) > maxBodyBytes {
		return nil, errTooLarge
	}
	q := &Request{body: body, Stream: h.Get("Accept") == NDJSONContentType}
	var (
		family    string
		timeoutMS int64
		kernels   []BatchKernel
		err       error
	)
	switch path {
	case "/compile":
		var in CompileRequest
		if !readCompileRequest(body, &in) {
			in = CompileRequest{}
			err = decodeBody(body, &in)
		}
		family, timeoutMS, kernels = in.Family, in.TimeoutMS, []BatchKernel{{Name: in.Name, IR: in.IR}}
	case "/explore":
		var in ExploreRequest
		err = decodeBody(body, &in)
		family, timeoutMS, kernels = in.Family, in.TimeoutMS, []BatchKernel{{Name: in.Name, IR: in.IR}}
		q.Jobs, q.MaxVariants, q.Stream = in.Jobs, in.MaxVariants, in.Stream || q.Stream
	default:
		var in BatchRequest
		err = decodeBody(body, &in)
		family, timeoutMS, kernels = in.Family, in.TimeoutMS, in.Kernels
		q.Jobs, q.Stream = in.Jobs, in.Stream || q.Stream
	}
	if err != nil {
		return nil, badRequest("request: %v", err)
	}
	if q.Family, q.Config, err = fs.Family(family); err != nil {
		return nil, badRequest("%s", err)
	}
	if q.familyOmitted = family == ""; q.familyOmitted && len(body)+len(familyMember(q.Family)) > maxBodyBytes {
		return nil, errTooLarge
	}
	if timeoutMS < 0 || timeoutMS > maxTimeoutMS {
		return nil, badRequest("timeout_ms must be between 0 and %d, got %d", maxTimeoutMS, timeoutMS)
	}
	q.Timeout = time.Duration(timeoutMS) * time.Millisecond
	switch batched := path == "/batch"; {
	case batched && len(kernels) == 0:
		return nil, badRequest("batch: no kernels")
	case batched && q.Jobs < 0:
		return nil, badRequest("%s", batch.Options{Jobs: q.Jobs}.Validate())
	case !batched && q.Jobs < 0:
		return nil, badRequest("jobs must be >= 0, got %d", q.Jobs)
	case q.MaxVariants < 0:
		return nil, badRequest("max_variants must be >= 0, got %d", q.MaxVariants)
	}
	if q.deadline, err = headerDeadline(h); err != nil {
		return nil, err
	}
	q.Kernels = make([]Kernel, len(kernels))
	for i, k := range kernels {
		q.Kernels[i] = fs.kernel(q.Config, k)
		if err := q.Kernels[i].Err; err != nil && path != "/batch" {
			return nil, badRequest("parse: %v", err)
		}
	}
	return q, nil
}

// kernel parses one kernel and derives its artifact key, or on a routing
// tier keys it by its text alone.
func (fs FamilySet) kernel(cfg *pipeline.Config, k BatchKernel) Kernel {
	if fs.routing {
		return Kernel{Name: k.Name, Key: cache.Key(pipeline.TextKeyFor(cfg, k.IR))}
	}
	f, syms, err := ir.ParseSymbols(k.IR)
	if err != nil {
		return Kernel{Name: k.Name, Err: err}
	}
	return Kernel{Name: cmp.Or(k.Name, f.Name), Func: f, Syms: syms, Key: cache.KeyFor(cfg, f)}
}

// errTooLarge is the 413 of a body past maxBodyBytes.
var errTooLarge = &refusal{http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", maxBodyBytes)}

// decodeBody decodes body, one request object, into dst. Unknown fields
// are malformed, and so is anything after the object but whitespace.
func decodeBody(body []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(dst)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			return nil
		}
		if err == nil {
			err = errors.New("unexpected data after the request object")
		}
	}
	return err
}

// headerDeadline reads the X-Reticle-Deadline header, zero when none was
// sent. Whoever sent it, client or routing tier, a malformed value is a
// 400 and one already past is the typed 504: no work starts on a request
// whose budget is spent. The backend's raw-body memo asks it too, so a
// resident kernel is refused alike.
func headerDeadline(h http.Header) (time.Time, error) {
	v := h.Get(DeadlineHeader)
	if v == "" {
		return time.Time{}, nil
	}
	ms, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return time.Time{}, badRequest("malformed %s header %q", DeadlineHeader, v)
	}
	dl := time.UnixMilli(ms)
	if !time.Now().Before(dl) {
		return dl, errDeadlineSpent
	}
	return dl, nil
}

// errDeadlineSpent is the typed 504 of a request whose budget ran out
// before any work started.
var errDeadlineSpent = rerr.DeadlineBudget("deadline_exceeded",
	"cross-tier deadline budget exhausted before the request could start")

// Within bounds ctx by the request's deadline header and by d past now,
// whichever is earlier; an unset one (zero, d <= 0) bounds nothing.
func (q *Request) Within(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	dl := q.deadline
	if own := time.Now().Add(d); d > 0 && (dl.IsZero() || own.Before(dl)) {
		dl = own
	}
	if dl.IsZero() {
		return context.WithCancel(ctx)
	}
	return context.WithDeadline(ctx, dl)
}

// familyMember is the member a routing tier appends to a body that named
// no family.
func familyMember(family string) string { return string(appendString([]byte(`"family":`), family)) }

// Forward is the body a routing tier sends on for a /compile or /explore:
// the client's bytes, with the resolved family appended when they named
// none (as the last member, so it also wins over an explicit "").
func (q *Request) Forward() []byte {
	if !q.familyOmitted {
		return q.body
	}
	return appendMembers(q.body, familyMember(q.Family))
}

// ForwardKernels is, for a /batch, the /compile body a routing tier sends
// on for each kernel: the kernel's object as the client sent it, with the
// family and any timeout_ms appended. A null kernel is sent as an object
// of those members alone, which the backend refuses as the empty kernel
// it decodes to.
func (q *Request) ForwardKernels() [][]byte {
	kernels, ok := sliceKernels(q.body)
	if !ok {
		var in struct {
			Kernels []json.RawMessage `json:"kernels"`
		}
		json.Unmarshal(q.body, &in) // admitted: it decodes
		kernels = in.Kernels
	}
	members := familyMember(q.Family)
	if q.Timeout > 0 {
		members += `,"timeout_ms":` + strconv.FormatInt(q.Timeout.Milliseconds(), 10)
	}
	out := make([][]byte, len(kernels))
	for i, k := range kernels {
		out[i] = appendMembers(k, members)
	}
	return out
}

// appendMembers returns a copy of obj, one JSON object, with members
// added as its last. Anything that does not open as an object (null) is
// taken for an empty one.
func appendMembers(obj []byte, members string) []byte {
	end := bytes.LastIndexByte(obj, '}')
	if end < 0 || bytes.TrimLeft(obj, " \t\r\n")[0] != '{' {
		obj, end = []byte("{}"), 1
	}
	head := bytes.TrimRight(obj[:end], " \t\r\n")
	out := make([]byte, 0, len(head)+len(members)+2)
	out = append(out, head...)
	if head[len(head)-1] != '{' {
		out = append(out, ',')
	}
	return append(append(out, members...), '}')
}

// WriteJSON writes v as the whole response body: every response of
// either tier, success or failure, is JSON. It serves the small bodies;
// anything carrying an artifact leaves through WriteFrame.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// WriteFrame writes body, a complete JSON document assembled by its
// caller, as the whole response: its length announced, one Write.
func WriteFrame(w http.ResponseWriter, code int, body []byte) {
	frameHeader(w, code, len(body))
	w.Write(body)
}

// frameHeader announces a frame of n bytes and writes the status line.
func frameHeader(w http.ResponseWriter, code, n int) {
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h.Set("Content-Length", strconv.Itoa(n))
	w.WriteHeader(code)
}

// jsonContentType is the one value every frame's Content-Type carries;
// headers are read and cloned, never edited in place, so frames share it.
var jsonContentType = []string{"application/json"}

// framePool recycles the buffers responses are assembled in, so serving an
// artifact costs a copy into a warm buffer, not an allocation its size. A
// ResponseWriter does not keep what Write was handed.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// WriteCompileFrame writes r as the /compile success body.
func WriteCompileFrame(w http.ResponseWriter, r CompileResponseWire) {
	buf := framePool.Get().(*[]byte)
	*buf = append(r.AppendJSON((*buf)[:0]), '\n')
	WriteFrame(w, http.StatusOK, *buf)
	framePool.Put(buf)
}

// WriteError writes an untyped (request validation) failure.
func WriteError(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, ErrorResponse{Error: msg, Code: code})
}

// WriteTypedError renders err through the taxonomy: stable message and
// machine-readable code only (never internal fmt chains or paths), with
// Retry-After set on the statuses a client should back off and retry.
// The code goes on the request's account.
func WriteTypedError(w http.ResponseWriter, err error) { writeTypedError(w, err, "") }

// writeTypedError is WriteTypedError for an admitted kernel, naming it.
func writeTypedError(w http.ResponseWriter, err error, name string) {
	if rerr.Retryable(err) {
		w.Header().Set("Retry-After", "1")
	}
	status := rerr.HTTPStatus(err)
	code := rerr.CodeOf(err)
	AccountOf(w).ErrorCode = code
	WriteJSON(w, status, ErrorResponse{
		Error:     rerr.Message(err),
		Code:      status,
		ErrorCode: code,
		Class:     rerr.ClassOf(err).String(),
		Name:      name,
	})
}

// NDJSONContentType selects (via the Accept header) and labels (via
// Content-Type) the streaming /batch and /explore framing.
const NDJSONContentType = "application/x-ndjson"

// BatchPlan is one /batch request after everything the two tiers do alike:
// admitted, local hits served, and the rest deduped by key so a kernel
// costs one compile (or one proxy call) however often the request repeats
// it. What resolving a miss means, and the footer, are the tier's own.
type BatchPlan struct {
	*Request
	Options batch.Options // the request's jobs (0: the tier's default) and per-kernel timeout
	// Results has one entry per kernel, in submission order; parse
	// failures and local hits are already final.
	Results []BatchKernelResultWire
	MissOf  []int       // per kernel: its index in Misses, or -1 when final
	Misses  []BatchMiss // one per distinct key, in order of first appearance
}

// BatchMiss is one distinct kernel the local store does not hold, named
// by the kernel of the request that carries it at Index: the first,
// unless a routing tier's later one was sent unnamed (see PlanBatch).
type BatchMiss struct {
	Name  string
	Func  *ir.Func
	Syms  *ir.Symbols
	Key   cache.Key
	Index int
}

// PlanBatch admits a /batch request through the front door and plans it
// against the tier's local store (lookup, which answers a hit's artifact
// and name). A refusal is written, with the same status and body on
// either tier, and reported as false; a kernel that does not parse never
// fails the batch.
func PlanBatch(w http.ResponseWriter, r *http.Request, fs FamilySet,
	lookup func(context.Context, Kernel) (CompileResponseWire, bool)) (*BatchPlan, bool) {
	q, ok := fs.Door(w, r)
	if !ok {
		return nil, false
	}
	p := &BatchPlan{
		Request: q,
		Options: batch.Options{Jobs: q.Jobs, KernelTimeout: q.Timeout},
		Results: make([]BatchKernelResultWire, len(q.Kernels)),
		MissOf:  make([]int, len(q.Kernels)),
	}
	byKey := map[cache.Key]int{}
	for i, k := range q.Kernels {
		res := &p.Results[i]
		res.Name, p.MissOf[i] = k.Name, -1
		if k.Err != nil {
			res.Error, res.ErrorCode = fmt.Sprintf("parse: %v", k.Err), "parse_failed"
			continue
		}
		if hit, ok := lookup(r.Context(), k); ok {
			res.Name, res.OK, res.Cache, res.Artifact = hit.Name, true, "hit", hit.Artifact
			continue
		}
		res.Cache = "miss"
		j, queued := byKey[k.Key]
		switch {
		case !queued:
			j = len(p.Misses)
			byKey[k.Key] = j
			p.Misses = append(p.Misses, BatchMiss{Name: res.Name, Func: k.Func, Syms: &q.Kernels[i].Syms, Key: k.Key, Index: i})
		case res.Name == "" && p.Misses[j].Name != "":
			// Only a routing tier, which does not parse, admits a kernel
			// with no name. Sent unnamed, the miss is answered with the
			// parsed name every unnamed kernel carrying it takes.
			p.Misses[j].Name, p.Misses[j].Index = "", i
		}
		p.MissOf[i] = j
	}
	return p, true
}

// Answer writes the planned batch out in submission order, in the
// request's framing, and counts the footer alike on both tiers. Miss j's
// result is the tier's outcome, resolve(j), which waits for it and reports
// whether its artifact is degraded. For a miss:
//   - the kernel keeps its own name, if it has one;
//   - it keeps "cache":"miss" and counts as compiled, once per distinct
//     kernel, whether it succeeded or failed, unless the tier answers
//     "hit" (a router relaying a backend's hit);
//   - a kernel whose IR does not parse has neither; on a routing tier,
//     which does not parse, that is an outcome of parse_failed.
//
// A hit is never degraded: neither tier stores a degraded artifact.
// finish waits out the tier's workers and fills the footer fields only the
// tier knows. It runs once: after the last result, or after cancel when
// the client is gone, and then the footer is dropped.
func (p *BatchPlan) Answer(w http.ResponseWriter, cancel context.CancelFunc,
	resolve func(j int) (BatchKernelResultWire, bool), finish func(*BatchStatsJSON)) {
	frame := NewFrame(w, p.Stream, "results", "family", p.Family)
	st := BatchStatsJSON{Kernels: len(p.Results)}
	for i := range p.Results {
		res, degraded := &p.Results[i], false
		if j := p.MissOf[i]; j >= 0 {
			var out BatchKernelResultWire
			out, degraded = resolve(j)
			res.Name = cmp.Or(res.Name, out.Name)
			res.OK, res.Error, res.ErrorCode, res.Artifact = out.OK, out.Error, out.ErrorCode, out.Artifact
			switch {
			case out.ErrorCode == "parse_failed":
				res.Cache = ""
			case out.Cache != "":
				res.Cache = out.Cache
			}
			if res.Cache == "miss" && i == p.Misses[j].Index {
				st.Compiled++
			}
		}
		if res.OK {
			st.Succeeded++
			if degraded {
				st.Degraded++
			}
		}
		if frame.Item(res) != nil {
			cancel() // client gone: stop the tier's workers and wait them out
			finish(&st)
			return
		}
	}
	finish(&st)
	st.Failed = st.Kernels - st.Succeeded
	frame.Close("stats", &st) // by pointer: st escapes to finish, and a copy would be a second allocation
}

// Frame writes a response that is header fields, one array written item
// by item, and trailing fields, in either of two framings; /batch and
// /explore both leave through it. Streaming emits one NDJSON line per
// item, flushed as it is written, then a trailer line holding the header
// and trailing fields: large sweeps stream at the pace of the workers
// instead of buffering in server memory. Buffered is the splice of that
// stream — {header,"array":[line1,...,lineN],trailing} — written once at
// Close, so the two framings cannot drift apart. A buffered frame holds
// each /batch result's artifact by reference, not as a copy: the bytes
// it was handed (a resident artifact, or a slice of a relayed backend
// answer) must stay as they are until Close or Fail returns.
type Frame struct {
	w      http.ResponseWriter
	stream bool
	head   []byte  // the header fields, each after a comma
	buf    *[]byte // pooled: the line in hand when streaming, the body so far when buffered
	items  int
	refs   []frameRef // buffered: the artifacts, in order, each spliced in at its offset of buf
}

// frameRef is an artifact a buffered frame writes in place, in front of
// byte at of the frame's own bytes.
type frameRef struct {
	at       int
	artifact []byte
}

// NewFrame starts a response whose array is named array and whose header
// fields are the name/value pairs head; when streaming, the status line
// and headers go out now.
func NewFrame(w http.ResponseWriter, stream bool, array string, head ...any) *Frame {
	f := &Frame{w: w, stream: stream, head: appendFields(nil, head), buf: framePool.Get().(*[]byte)}
	if stream {
		w.Header().Set("Content-Type", NDJSONContentType)
		w.WriteHeader(http.StatusOK)
		return f
	}
	*f.buf = append(append((*f.buf)[:0], '{'), f.head[1:]...)
	*f.buf = append(appendString(append(*f.buf, ','), array), ":["...)
	return f
}

// appendFields appends name/value pairs as object members, each after a
// comma. The values are names, flags and counters, never an artifact, so
// they stay on encoding/json (Marshal cannot fail on them).
func appendFields(dst []byte, pairs []any) []byte {
	for i := 0; i+1 < len(pairs); i += 2 {
		v, _ := json.Marshal(pairs[i+1])
		dst = append(append(appendString(append(dst, ','), pairs[i].(string)), ':'), v...)
	}
	return dst
}

// Item emits the array's next element. A non-nil error means the client
// is gone.
func (f *Frame) Item(item interface{ AppendJSON([]byte) []byte }) error {
	if f.stream {
		return f.line(item.AppendJSON((*f.buf)[:0]))
	}
	if f.items > 0 {
		*f.buf = append(*f.buf, ',')
	}
	f.items++
	if r, ok := item.(*BatchKernelResultWire); ok && len(r.Artifact) > 0 {
		*f.buf = r.appendHead(*f.buf)
		f.refs = append(f.refs, frameRef{len(*f.buf), r.Artifact})
		*f.buf = append(*f.buf, '}')
		return nil
	}
	*f.buf = item.AppendJSON(*f.buf)
	return nil
}

// line writes and flushes one NDJSON line, keeping its buffer for the next.
func (f *Frame) line(b []byte) error {
	*f.buf = append(b, '\n')
	_, err := f.w.Write(*f.buf)
	if fl, ok := f.w.(http.Flusher); ok {
		fl.Flush()
	}
	return err
}

// Close emits the trailing fields, the name/value pairs tail, known only
// once every item has been; for the buffered framing it writes the body:
// its own bytes with each artifact in place between them, under one
// announced length.
func (f *Frame) Close(tail ...any) {
	if f.stream {
		f.line(append(appendFields(append(append((*f.buf)[:0], '{'), f.head[1:]...), tail), '}'))
	} else {
		*f.buf = append(appendFields(append(*f.buf, ']'), tail), "}\n"...)
		n := len(*f.buf)
		for _, r := range f.refs {
			n += len(r.artifact)
		}
		frameHeader(f.w, http.StatusOK, n)
		bw := spliceWriters.Get().(*bufio.Writer)
		bw.Reset(f.w)
		at := 0
		for _, r := range f.refs {
			bw.Write((*f.buf)[at:r.at])
			bw.Write(r.artifact)
			at = r.at
		}
		bw.Write((*f.buf)[at:])
		bw.Flush()
		bw.Reset(nil)
		spliceWriters.Put(bw)
	}
	framePool.Put(f.buf)
}

// spliceWriters recycles the fixed-size write buffers a buffered frame's
// body leaves through. Written one slice at a time, each artifact cost the
// socket two writes of its own; through one 64 KiB buffer, the body goes
// out in a few large writes, and the buffer is never grown.
var spliceWriters = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 64<<10) }}

// Fail ends a response whose trailing fields cannot be known. Buffered,
// nothing has gone out: the held bytes are dropped and err is the typed
// answer. Streaming, the status line is long gone: tail closes the stream
// as Close would, the items having carried their own typed failures.
func (f *Frame) Fail(err error, tail ...any) {
	if f.stream {
		f.Close(tail...)
		return
	}
	framePool.Put(f.buf)
	WriteTypedError(f.w, err)
}
