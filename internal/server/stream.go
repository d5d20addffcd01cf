package server

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"

	"reticle/internal/batch"
	"reticle/internal/cache"
	"reticle/internal/pipeline"
	"reticle/internal/rerr"
)

// ndjsonContentType selects (via the Accept header) and labels (via
// Content-Type) the streaming /batch framing.
const ndjsonContentType = "application/x-ndjson"

// ndjsonFooter is the stream's final line: the batch-level fields of the
// buffered response that are only known once every kernel has finished.
// Field order matches batchResponseWire so a client (or the determinism
// test) can splice the stream back into the exact buffered body:
//
//	{"family":F,"results":[line1,...,lineN],"stats":S}
type ndjsonFooter struct {
	Family string         `json:"family"`
	Stats  BatchStatsJSON `json:"stats"`
}

// streamBatch is the chunked /batch emitter: one NDJSON line per kernel,
// flushed in submission order as soon as the kernel (and every kernel
// before it) has finished, then a footer line with the aggregate stats.
// Large sweeps therefore stream at the pace of the worker pool instead
// of buffering the whole result set in server memory; the per-line JSON
// is byte-identical to the corresponding element of the buffered
// response's results array.
func (s *Server) streamBatch(ctx context.Context, w http.ResponseWriter, famName string, cfg *pipeline.Config, prep batchPrep, opts batch.Options) {
	type missState struct {
		once sync.Once
		done chan struct{}
		res  batch.Result
	}
	misses := make([]*missState, len(prep.missJobs))
	for j := range misses {
		misses[j] = &missState{done: make(chan struct{})}
	}
	complete := func(j int, r batch.Result) {
		m := misses[j]
		m.once.Do(func() {
			m.res = r
			close(m.done)
		})
	}

	var stats batch.Stats
	batchDone := make(chan struct{})
	if len(prep.missJobs) > 0 {
		opts.OnResult = func(r batch.Result) { complete(r.Index, r) }
		s.inflight.Add(int64(len(prep.missJobs)))
		s.kernels.Add(int64(len(prep.missJobs)))
		go func() {
			defer close(batchDone)
			defer s.inflight.Add(-int64(len(prep.missJobs)))
			results, st, err := batch.Compile(ctx, cfg, prep.missJobs, opts)
			if err != nil {
				// Config/options failures are caught before streaming starts;
				// reaching here means the batch tier rejected a validated
				// request, so fail every pending kernel with the typed error.
				for j := range misses {
					complete(j, batch.Result{Index: j, Err: err})
				}
				return
			}
			// Kernels the cancelled dispatch loop never handed to a worker
			// bypass OnResult; release their waiters from the returned slice.
			for j := range results {
				complete(j, results[j])
			}
			stats = st
			s.countCompile(st.Stages, st.Place, st.StagesSkipped)
		}()
	} else {
		close(batchDone)
	}

	w.Header().Set("Content-Type", ndjsonContentType)
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}

	rendered := make(map[cache.Key]json.RawMessage, len(prep.missJobs))
	degradedKeys := make(map[cache.Key]bool, len(prep.missJobs))
	succeeded, failed, degraded := 0, 0, 0
	enc := json.NewEncoder(w)
	for i := range prep.results {
		if prep.results[i].Cache == "miss" {
			j := prep.missIdx[prep.keys[i]]
			m := misses[j]
			select {
			case <-m.done:
			case <-ctx.Done():
				// The batch context died with this kernel still pending. The
				// compile goroutine is about to flush typed context errors
				// through complete(); wait for that authoritative result so
				// the stream and the buffered path report identically.
				<-m.done
			}
			br := m.res
			if br.Ok() {
				raw, ok := rendered[prep.keys[i]]
				if !ok {
					ca := render(br.Artifact)
					raw = ca.rendered
					rendered[prep.keys[i]] = raw
					// Degraded artifacts go to the requester, not to either
					// cache tier (see handleCompile).
					if br.Artifact.Degraded {
						degradedKeys[prep.keys[i]] = true
					} else {
						s.cache.Add(prep.keys[i], ca)
						s.diskPut(ctx, prep.keys[i], raw)
					}
				}
				if degradedKeys[prep.keys[i]] {
					degraded++
				}
				prep.results[i].OK = true
				prep.results[i].Artifact = raw
			} else {
				prep.results[i].Error = rerr.Message(br.Err)
				prep.results[i].ErrorCode = rerr.CodeOf(br.Err)
			}
		}
		if prep.results[i].OK {
			succeeded++
		} else {
			failed++
		}
		// Encode writes the line's JSON plus the NDJSON newline; an
		// encoding/write error means the client is gone, and the compile
		// goroutine is bounded by the request context it inherited.
		if err := enc.Encode(prep.results[i]); err != nil {
			return
		}
		flush()
	}

	<-batchDone
	enc.Encode(ndjsonFooter{
		Family: famName,
		Stats: BatchStatsJSON{
			Kernels:       len(prep.results),
			Succeeded:     succeeded,
			Failed:        failed,
			Compiled:      len(prep.missJobs),
			WallNS:        stats.Wall.Nanoseconds(),
			KernelsPerSec: stats.KernelsPerSec,
			Degraded:      degraded,
			Retried:       stats.Retried,
			StagesSkipped: stats.StagesSkipped,
		},
	})
	flush()
}
