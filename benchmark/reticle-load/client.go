package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// outcome is what one request came back with. status 0 is a transport
// error. body is kept only for requests the caller asked to keep.
type outcome struct {
	start     time.Duration // since the window opened
	latency   time.Duration
	status    int
	hit       bool // the response says "cache":"hit"
	artifacts int  // correct artifacts delivered: 1, kernels ok, or variants ok
	degraded  int  // artifacts marked degraded (budget-truncated placement)
	size      int
	panel     panelEntry // quality fields, read for panel requests only
	body      []byte
}

// panelEntry is one kernel's deterministic quality reading.
type panelEntry struct {
	criticalNs float64
	prims      float64 // LUTs + DSPs
}

// readPanel reads a /compile reply's quality fields.
func readPanel(body []byte) panelEntry {
	var p panelEntry
	p.criticalNs, _ = tailField(body, "critical_ns")
	luts, _ := tailField(body, "luts")
	dsps, _ := tailField(body, "dsps")
	p.prims = luts + dsps
	return p
}

// numClients is the closed-loop client count: one per core, at most two.
// The callers of a compile service — build tools, edit loops, sweep
// drivers — wait for each reply, and the reference box has two cores.
func numClients() int { return min(2, runtime.NumCPU()) }

// window is one closed-loop pass over a schedule.
type window struct {
	outs    []outcome // outs[:done] are filled
	done    int
	t0      time.Time // outcome.start counts from here
	elapsed time.Duration
}

// caller is one closed-loop client: one persistent connection it writes
// a request to and reads the reply from, on the calling goroutine. It
// speaks HTTP/1.1 itself, because net/http's Transport hands every request
// through two more goroutines, which cost the generator as much CPU per
// hot request as a third of the server's and took the cores the
// servers need.
type caller struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
	head []byte
}

// newCaller returns a caller for the server at base ("http://host:port").
// It dials on first use.
func newCaller(base string) *caller {
	return &caller{addr: strings.TrimPrefix(base, "http://")}
}

func (c *caller) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// post sends one request and reads the whole reply into buf. It returns
// the status, or 0 on a transport error, after which the next call dials
// again.
func (c *caller) post(path string, body []byte, buf *bytes.Buffer) int {
	buf.Reset()
	if c.conn == nil {
		conn, err := net.DialTimeout("tcp", c.addr, 5*time.Second)
		if err != nil {
			return 0
		}
		c.conn, c.br = conn, bufio.NewReaderSize(conn, 64<<10)
	}
	c.conn.SetDeadline(time.Now().Add(60 * time.Second)) // fails only on a closed conn, which the write reports
	c.head = fmt.Appendf(c.head[:0],
		"POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n",
		path, c.addr, len(body))
	if _, err := (&net.Buffers{c.head, body}).WriteTo(c.conn); err != nil {
		c.close()
		return 0
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.close()
		return 0
	}
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil || resp.Close {
		c.close()
	}
	if err != nil {
		return 0
	}
	return resp.StatusCode
}

// drive sends reqs[from:] in order from numClients callers, each taking
// the next unsent request when its previous one completes. It stops when
// the schedule is exhausted, when a request would start after limit
// (limit > 0), or when ctx ends. keep says which responses to retain
// whole; panel says which to read quality fields from.
func drive(ctx context.Context, base string, reqs []request, from int, limit time.Duration,
	keep, panel func(i int) bool) window {
	outs := make([]outcome, len(reqs))
	var next atomic.Int64
	next.Store(int64(from))
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < numClients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := newCaller(base)
			defer client.close()
			var buf bytes.Buffer
			for ctx.Err() == nil {
				if limit > 0 && time.Since(t0) >= limit {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				o := &outs[i]
				o.start = time.Since(t0)
				o.status = client.post(reqs[i].path, reqs[i].body, &buf)
				o.latency = time.Since(t0) - o.start
				body := buf.Bytes()
				o.size = len(body)
				if o.status == http.StatusOK {
					o.hit = bytes.Contains(body[:min(len(body), 512)], []byte(`"cache":"hit"`))
					o.artifacts = countArtifacts(reqs[i].path, body)
					o.degraded = bytes.Count(body, []byte(`"degraded":true`))
					if panel != nil && panel(i) {
						o.panel = readPanel(body)
					}
				}
				// A failed reply is always kept: it is small and it is the
				// diagnosis.
				if o.status != http.StatusOK || (keep != nil && keep(i)) {
					o.body = bytes.Clone(body)
				}
			}
		}()
	}
	wg.Wait()
	w := window{outs: outs, t0: t0, elapsed: time.Since(t0)}
	w.done = min(int(next.Load()), len(reqs))
	return w
}

// countArtifacts reads how many correct artifacts a 200 reply carries:
// one for /compile, the succeeded count of the trailing stats object for
// /batch (kernels) and /explore (variants).
func countArtifacts(path string, body []byte) int {
	if path == "/compile" {
		return 1
	}
	n, _ := tailField(body, "succeeded")
	return int(n)
}

// tailField reads the number that follows the last "name": in body. The
// fields it is used for sit after the multi-kilobyte asm/placed/verilog
// strings, so searching from the end touches a few hundred bytes; and a
// JSON string cannot hold an unescaped quote, so the match is a real key.
func tailField(body []byte, name string) (float64, bool) {
	key := []byte(`"` + name + `":`)
	i := bytes.LastIndex(body, key)
	if i < 0 {
		return 0, false
	}
	rest := body[i+len(key):]
	end := 0
	for end < len(rest) && (rest[end] == '-' || rest[end] == '+' || rest[end] == '.' ||
		rest[end] == 'e' || rest[end] == 'E' || (rest[end] >= '0' && rest[end] <= '9')) {
		end++
	}
	v, err := strconv.ParseFloat(string(rest[:end]), 64)
	return v, err == nil
}

// quantile returns the q-quantile of sorted by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

// median sorts a copy of xs and returns its middle.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// latenciesMS returns the sorted client-side latencies of a window, in ms.
func (w window) latenciesMS(from int) []float64 {
	out := make([]float64, 0, w.done-from)
	for _, o := range w.outs[from:w.done] {
		out = append(out, float64(o.latency)/float64(time.Millisecond))
	}
	sort.Float64s(out)
	return out
}
