package server

import (
	"bytes"
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
// default applied when a request names none.
type FamilySet struct {
	configs map[string]*pipeline.Config
	def     string
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
	// gave none; one whose IR does not parse (only on /batch) has Err set.
	Kernels []Kernel

	body          []byte    // as received: what a routing tier forwards
	familyOmitted bool      // the body named no family, or ""
	deadline      time.Time // the X-Reticle-Deadline header; zero when not sent
}

// Kernel is one kernel of an admitted request.
type Kernel struct {
	Name string
	Func *ir.Func
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

// readBody reads r's body into a pooled buffer, at most one byte past
// maxBytes: enough for Admit to refuse it. The caller puts the buffer
// back in bodyPool.
func readBody(r *http.Request, maxBytes int64) (*bytes.Buffer, error) {
	body := bodyPool.Get().(*bytes.Buffer)
	body.Reset()
	// A body of announced length is read into one buffer of that size,
	// not one grown by doubling: a router's bodies never return to the pool.
	if n := r.ContentLength; n > 0 && n <= maxBytes {
		body.Grow(int(n) + bytes.MinRead)
	}
	if _, err := body.ReadFrom(io.LimitReader(r.Body, maxBytes+1)); err != nil {
		bodyPool.Put(body)
		return nil, badRequest("request: %v", err)
	}
	return body, nil
}

// Door reads and admits r, writing the refusal itself: false means the
// response is written. An admitted body's buffer is not returned to the
// pool: it is the request body a routing tier forwards, and a cancelled
// attempt's transport may still be reading it after the walk returns.
func (fs FamilySet) Door(w http.ResponseWriter, r *http.Request, maxBytes int64) (*Request, bool) {
	body, err := readBody(r, maxBytes)
	if err == nil {
		var q *Request
		if q, err = fs.Admit(r.URL.Path, body.Bytes(), r.Header, maxBytes); err == nil {
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
// the resolved family's member against maxBytes, so a routing tier's
// forward of it is admitted downstream too.
func (fs FamilySet) Admit(path string, body []byte, h http.Header, maxBytes int64) (*Request, error) {
	if int64(len(body)) > maxBytes {
		return nil, tooLarge(maxBytes)
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
		err = decodeBody(body, &in)
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
	if q.familyOmitted = family == ""; q.familyOmitted && int64(len(body)+len(familyMember(q.Family))) > maxBytes {
		return nil, tooLarge(maxBytes)
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
	q.Kernels = make([]Kernel, len(kernels))
	for i, k := range kernels {
		f, err := ir.Parse(k.IR)
		if err != nil && path != "/batch" {
			return nil, badRequest("parse: %v", err)
		}
		q.Kernels[i] = Kernel{Name: k.Name, Func: f, Err: err}
		if k.Name == "" && err == nil {
			q.Kernels[i].Name = f.Name
		}
	}
	if q.deadline, err = headerDeadline(h); err != nil {
		return nil, err
	}
	return q, nil
}

func tooLarge(maxBytes int64) error {
	return &refusal{http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", maxBytes)}
}

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
// on for each kernel that parsed: the kernel's object as the client sent
// it, with the family and any timeout_ms appended. A kernel that did not
// parse (a null one among them) has none.
func (q *Request) ForwardKernels() [][]byte {
	var in struct {
		Kernels []json.RawMessage `json:"kernels"`
	}
	json.Unmarshal(q.body, &in) // admitted: it decodes
	members := familyMember(q.Family)
	if q.Timeout > 0 {
		members += `,"timeout_ms":` + strconv.FormatInt(q.Timeout.Milliseconds(), 10)
	}
	out := make([][]byte, len(in.Kernels))
	for i, k := range in.Kernels {
		if q.Kernels[i].Err == nil {
			out[i] = appendMembers(k, members)
		}
	}
	return out
}

// appendMembers returns a copy of obj, one JSON object, with members
// added as its last.
func appendMembers(obj []byte, members string) []byte {
	end := bytes.LastIndexByte(obj, '}')
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
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	w.Write(body)
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
func WriteTypedError(w http.ResponseWriter, err error) {
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
	Options batch.Options // the request's jobs (else the tier's) and per-kernel timeout
	// Results has one entry per kernel, in submission order; parse
	// failures and local hits are already final.
	Results []BatchKernelResultWire
	MissOf  []int       // per kernel: its index in Misses, or -1 when final
	Misses  []BatchMiss // one per distinct key, in order of first appearance
}

// BatchMiss is one distinct kernel the local store does not hold, named
// by the first kernel of the request that carries it, at Index.
type BatchMiss struct {
	Name  string
	Func  *ir.Func
	Key   cache.Key
	Index int
}

// PlanBatch admits a /batch request through the front door and plans it
// against the tier's local store (lookup). A refusal is written, with the
// same status and body on either tier, and reported as false; a kernel
// that does not parse never fails the batch.
func PlanBatch(w http.ResponseWriter, r *http.Request, fs FamilySet, maxBodyBytes int64, defaultJobs int,
	lookup func(context.Context, cache.Key) ([]byte, bool)) (*BatchPlan, bool) {
	q, ok := fs.Door(w, r, maxBodyBytes)
	if !ok {
		return nil, false
	}
	p := &BatchPlan{
		Request: q,
		Options: batch.Options{Jobs: q.Jobs, KernelTimeout: q.Timeout},
		Results: make([]BatchKernelResultWire, len(q.Kernels)),
		MissOf:  make([]int, len(q.Kernels)),
	}
	if p.Options.Jobs == 0 {
		p.Options.Jobs = defaultJobs
	}
	byKey := map[cache.Key]int{}
	for i, k := range q.Kernels {
		res := &p.Results[i]
		res.Name, p.MissOf[i] = k.Name, -1
		if k.Err != nil {
			res.Error, res.ErrorCode = fmt.Sprintf("parse: %v", k.Err), "parse_failed"
			continue
		}
		key := cache.KeyFor(q.Config, k.Func)
		if raw, ok := lookup(r.Context(), key); ok {
			res.OK, res.Cache, res.Artifact = true, "hit", raw
			continue
		}
		res.Cache = "miss"
		j, queued := byKey[key]
		if !queued {
			j = len(p.Misses)
			byKey[key] = j
			p.Misses = append(p.Misses, BatchMiss{Name: res.Name, Func: k.Func, Key: key, Index: i})
		}
		p.MissOf[i] = j
	}
	return p, true
}

// Frame writes a response that is header fields, one array written item
// by item, and trailing fields, in either of two framings; /batch and
// /explore both leave through it. Streaming emits one NDJSON line per
// item, flushed as it is written, then a trailer line holding the header
// and trailing fields: large sweeps stream at the pace of the workers
// instead of buffering in server memory. Buffered is the splice of that
// stream — {header,"array":[line1,...,lineN],trailing} — written once at
// Close, so the two framings cannot drift apart.
type Frame struct {
	w      http.ResponseWriter
	stream bool
	head   []byte  // the header fields, each after a comma
	buf    *[]byte // pooled: the line in hand when streaming, the body so far when buffered
	items  int
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
// once every item has been; for the buffered framing it writes the body.
func (f *Frame) Close(tail ...any) {
	if f.stream {
		f.line(append(appendFields(append(append((*f.buf)[:0], '{'), f.head[1:]...), tail), '}'))
	} else {
		*f.buf = append(appendFields(append(*f.buf, ']'), tail), "}\n"...)
		WriteFrame(f.w, http.StatusOK, *f.buf)
	}
	framePool.Put(f.buf)
}

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
