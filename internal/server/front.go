package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"

	"reticle/internal/cache"
	"reticle/internal/pipeline"
	"reticle/internal/rerr"
)

// The HTTP front end the compile service and the shard router share:
// family resolution, body decoding, panic isolation, the JSON and typed
// error writers, the disk tier's operator surface, and the /batch
// framings. The router serves the same endpoint surface as a backend, so
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
// response is written.
func DecodeJSON(w http.ResponseWriter, r *http.Request, maxBytes int64, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(dst)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		WriteError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
	} else {
		WriteError(w, http.StatusBadRequest, fmt.Sprintf("request: %v", err))
	}
	return false
}

// WriteJSON writes v as the whole response body: every response of
// either tier, success or failure, is JSON.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// WriteError writes an untyped (request validation) failure.
func WriteError(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, ErrorResponse{Error: msg, Code: code})
}

// WriteTypedError renders err through the taxonomy: stable message and
// machine-readable code only (never internal fmt chains or paths), with
// Retry-After set on the statuses a client should back off and retry.
func WriteTypedError(w http.ResponseWriter, err error) {
	if rerr.Retryable(err) {
		w.Header().Set("Retry-After", "1")
	}
	status := rerr.HTTPStatus(err)
	WriteJSON(w, status, ErrorResponse{
		Error:     rerr.Message(err),
		Code:      status,
		ErrorCode: rerr.CodeOf(err),
		Class:     rerr.ClassOf(err).String(),
	})
}

// NDJSONContentType selects (via the Accept header) and labels (via
// Content-Type) the streaming /batch and /explore framing.
const NDJSONContentType = "application/x-ndjson"

// BatchFrame writes a /batch response in one of its two framings from
// one ordered sequence of per-kernel results. Streaming emits one NDJSON
// line per result, flushed as it is written, then a footer line
// {"family":F,"stats":S}: large sweeps stream at the pace of the workers
// instead of buffering in server memory. Buffered is the splice of that
// stream — {"family":F,"results":[line1,...,lineN],"stats":S} — written
// once at Close, so the two framings cannot drift apart.
type BatchFrame struct {
	w       http.ResponseWriter
	stream  bool
	family  string
	buf     bytes.Buffer  // the buffered body under construction
	enc     *json.Encoder // onto w when streaming, buf when buffered
	results int
}

// NewBatchFrame starts a response; when streaming, the status line and
// headers go out now.
func NewBatchFrame(w http.ResponseWriter, stream bool, family string) *BatchFrame {
	f := &BatchFrame{w: w, stream: stream, family: family}
	if stream {
		w.Header().Set("Content-Type", NDJSONContentType)
		w.WriteHeader(http.StatusOK)
		f.enc = json.NewEncoder(w)
		return f
	}
	f.enc = json.NewEncoder(&f.buf)
	f.buf.WriteString(`{"family":`)
	f.line(family)
	f.buf.WriteString(`,"results":[`)
	return f
}

// Result emits the next kernel's result. A non-nil error means the
// client is gone.
func (f *BatchFrame) Result(res BatchKernelResultWire) error {
	if !f.stream && f.results > 0 {
		f.buf.WriteByte(',')
	}
	f.results++
	return f.line(res)
}

// line encodes v as one NDJSON line, or splices it into the buffered
// body without the newline Encode appends.
func (f *BatchFrame) line(v any) error {
	err := f.enc.Encode(v)
	switch {
	case f.stream:
		if fl, ok := f.w.(http.Flusher); ok {
			fl.Flush()
		}
	case err == nil:
		f.buf.Truncate(f.buf.Len() - 1)
	}
	return err
}

// Close emits the batch-level fields only known once every kernel has
// finished, and for the buffered framing writes the body.
func (f *BatchFrame) Close(stats BatchStatsJSON) {
	if f.stream {
		f.line(struct {
			Family string         `json:"family"`
			Stats  BatchStatsJSON `json:"stats"`
		}{f.family, stats})
		return
	}
	f.buf.WriteString(`],"stats":`)
	f.line(stats)
	f.buf.WriteString("}\n")
	f.w.Header().Set("Content-Type", "application/json")
	f.w.WriteHeader(http.StatusOK)
	f.w.Write(f.buf.Bytes())
}
