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

// ScrubDisk runs one integrity walk over the disk cache at the given I/O
// rate (<=0 means cache.DefaultScrubBytesPerSec), quarantining corrupt
// entries exactly as a corrupt Get would. It reports ok=false without
// walking when no disk tier is configured.
func (t DiskTier) ScrubDisk(ctx context.Context, bytesPerSec int64) (cache.ScrubReport, bool, error) {
	if t.disk == nil {
		return cache.ScrubReport{}, false, nil
	}
	rep, err := t.disk.Scrub(ctx, bytesPerSec)
	return rep, true, err
}

// HandleScrub is POST /scrub: a synchronous integrity walk, 404 when no
// disk tier is configured, otherwise the walk's report.
func (t DiskTier) HandleScrub(w http.ResponseWriter, r *http.Request) {
	rep, ok, err := t.ScrubDisk(r.Context(), 0)
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

// DecodeJSON reads a JSON body of at most maxBytes into dst, answering
// the 413 (oversized) or 400 (malformed) itself: false means the
// response is written. It is readBody then decodeBody, the one body
// reader of every endpoint on either tier.
func DecodeJSON(w http.ResponseWriter, r *http.Request, maxBytes int64, dst any) bool {
	body := readBody(w, r, maxBytes)
	if body == nil {
		return false
	}
	defer bodyPool.Put(body)
	return decodeBody(w, body.Bytes(), dst)
}

// bodyPool recycles the buffers request bodies are read into. Decoding
// copies every string out, so nothing that outlives a request holds a
// slice of one.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readBody reads a whole request body of at most maxBytes into a pooled
// buffer, answering the 413 (oversized) or 400 (unreadable) itself: nil
// means the response is written. The caller puts the buffer back in
// bodyPool.
func readBody(w http.ResponseWriter, r *http.Request, maxBytes int64) *bytes.Buffer {
	body := bodyPool.Get().(*bytes.Buffer)
	body.Reset()
	_, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, maxBytes))
	if err == nil {
		return body
	}
	bodyPool.Put(body)
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		WriteError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
	} else {
		WriteError(w, http.StatusBadRequest, fmt.Sprintf("request: %v", err))
	}
	return nil
}

// decodeBody decodes body, one request object, into dst, answering the
// 400 itself: false means the response is written. Unknown fields are
// malformed, and so is anything after the object but whitespace.
func decodeBody(w http.ResponseWriter, body []byte, dst any) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(dst)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			return true
		}
		if err == nil {
			err = errors.New("unexpected data after the request object")
		}
	}
	WriteError(w, http.StatusBadRequest, fmt.Sprintf("request: %v", err))
	return false
}

// maxTimeoutMS is the largest timeout_ms a time.Duration holds.
const maxTimeoutMS = int64(math.MaxInt64 / time.Millisecond)

// RequestTimeout converts a request's timeout_ms to a duration, answering
// a negative value or one past what a duration holds with the one 400
// both tiers give: false means the response is written.
func RequestTimeout(w http.ResponseWriter, ms int64) (time.Duration, bool) {
	if ms < 0 || ms > maxTimeoutMS {
		WriteError(w, http.StatusBadRequest, fmt.Sprintf("timeout_ms must be between 0 and %d, got %d", maxTimeoutMS, ms))
		return 0, false
	}
	return time.Duration(ms) * time.Millisecond, true
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
// decoded and validated, every kernel parsed, named and keyed, local hits
// served, and the rest deduped by key so a kernel costs one compile (or
// one proxy call) however often the request repeats it. What resolving a
// miss means, and the footer, are the tier's own.
type BatchPlan struct {
	Family  string
	Config  *pipeline.Config
	Stream  bool          // NDJSON framing asked for, by field or Accept header
	Options batch.Options // validated: the request's jobs (else the tier's) and per-kernel timeout
	// Results has one entry per kernel, in submission order; parse
	// failures and local hits are already final.
	Results []BatchKernelResultWire
	MissOf  []int       // per kernel: its index in Misses, or -1 when final
	Misses  []BatchMiss // one per distinct key, in order of first appearance
}

// BatchMiss is one distinct kernel the local store does not hold, named
// by the first kernel of the request that carries it, at Index.
type BatchMiss struct {
	Name, IR string
	Func     *ir.Func
	Key      cache.Key
	Index    int
}

// PlanBatch reads and plans a /batch request against the tier's local
// store (lookup). It answers every whole-request failure itself — with
// the same status and body on either tier — and then returns false;
// per-kernel parse errors never fail the batch.
func PlanBatch(w http.ResponseWriter, r *http.Request, fs FamilySet, maxBodyBytes int64, defaultJobs int,
	lookup func(context.Context, cache.Key) ([]byte, bool)) (*BatchPlan, bool) {
	var req BatchRequest
	if !DecodeJSON(w, r, maxBodyBytes, &req) {
		return nil, false
	}
	famName, cfg, err := fs.Family(req.Family)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return nil, false
	}
	if len(req.Kernels) == 0 {
		WriteError(w, http.StatusBadRequest, "batch: no kernels")
		return nil, false
	}
	timeout, ok := RequestTimeout(w, req.TimeoutMS)
	if !ok {
		return nil, false
	}
	p := &BatchPlan{
		Family:  famName,
		Config:  cfg,
		Stream:  req.Stream || r.Header.Get("Accept") == NDJSONContentType,
		Options: batch.Options{Jobs: req.Jobs, KernelTimeout: timeout},
		Results: make([]BatchKernelResultWire, len(req.Kernels)),
		MissOf:  make([]int, len(req.Kernels)),
	}
	if p.Options.Jobs == 0 {
		p.Options.Jobs = defaultJobs
	}
	if err := p.Options.Validate(); err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return nil, false
	}
	byKey := map[cache.Key]int{}
	for i, k := range req.Kernels {
		res := &p.Results[i]
		res.Name, p.MissOf[i] = k.Name, -1
		f, perr := ir.Parse(k.IR)
		if perr != nil {
			res.Error, res.ErrorCode = fmt.Sprintf("parse: %v", perr), "parse_failed"
			continue
		}
		if res.Name == "" {
			res.Name = f.Name
		}
		key := cache.KeyFor(cfg, f)
		if raw, ok := lookup(r.Context(), key); ok {
			res.OK, res.Cache, res.Artifact = true, "hit", raw
			continue
		}
		res.Cache = "miss"
		j, queued := byKey[key]
		if !queued {
			j = len(p.Misses)
			byKey[key] = j
			p.Misses = append(p.Misses, BatchMiss{Name: res.Name, IR: k.IR, Func: f, Key: key, Index: i})
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
