package shard_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"reticle"
	"reticle/internal/server"
)

// maxBody is the request body bound both tiers run with by default.
const maxBody = 1 << 20

// frontSeed is one request every tier's front door must answer alike,
// rendered for each endpoint from that endpoint's smallest valid body.
type frontSeed struct {
	name    string
	ir      string // the kernel's IR; empty means maccSrc
	members string // top-level members appended to the base body, each led by a comma
	size    int    // when nonzero, the IR is padded with a comment to make the body this long
	edit    func(string) string
	header  string // X-Reticle-Deadline: "+1h" and "-1s" are relative to the send, anything else is sent as is
}

// frontPaths are the endpoints that read a request body.
var frontPaths = []string{"/compile", "/batch", "/explore"}

// frontSeeds are the refusals (and near-refusals) the tiers once told
// apart, and their neighbours.
func frontSeeds() []frontSeed {
	seeds := []frontSeed{
		{name: "bad-json", edit: func(b string) string { return b[:len(b)-1] }},
		{name: "unknown-field", members: `,"bogus":1`},
		{name: "duplicate-field", members: `,"family":"agilex","family":"ultrascale"`},
		{name: "trailing-data", edit: func(b string) string { return b + ` {}` }},
		{name: "unknown-family", members: `,"family":"stratix"`},
		{name: "empty-family", members: `,"family":""`},
		{name: "timeout-negative", members: `,"timeout_ms":-1`},
		{name: "timeout-largest", members: `,"timeout_ms":9223372036854`},
		{name: "timeout-past-largest", members: `,"timeout_ms":9223372036855`},
		{name: "timeout-maxint64", members: `,"timeout_ms":9223372036854775807`},
		{name: "jobs-negative", members: `,"jobs":-1`},
		{name: "variants-negative", members: `,"max_variants":-1`},
		{name: "no-kernels", members: `,"kernels":[]`},
		{name: "parse-error", ir: "def broken( {"},
		{name: "deadline-malformed", header: "not-a-deadline"},
		{name: "deadline-expired", header: "-1s"},
		{name: "deadline-future", header: "+1h"},
		{name: "lt-comment-200k", ir: maccSrc + "\n// " + strings.Repeat("<", 200_000) + "\n"},
	}
	for _, d := range []int{-64, -1, 0, 1} {
		seeds = append(seeds,
			frontSeed{name: fmt.Sprintf("size%+d", d), size: maxBody + d},
			frontSeed{name: fmt.Sprintf("size%+d-family", d), size: maxBody + d, members: `,"family":"ultrascale"`})
	}
	return seeds
}

// quote renders s as a JSON string the way a client that does not
// escape HTML would: '<' stays one byte.
func quote(s string) string {
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	enc.Encode(s)
	return strings.TrimSuffix(b.String(), "\n")
}

// body renders the seed for path.
func (s frontSeed) body(path string) string {
	build := func(ir string) string {
		switch path {
		case "/compile":
			return `{"ir":` + quote(ir) + s.members + `}`
		case "/batch":
			return `{"jobs":1,"kernels":[{"ir":` + quote(ir) + `}]` + s.members + `}`
		default:
			return `{"ir":` + quote(ir) + `,"jobs":1,"max_variants":2` + s.members + `}`
		}
	}
	ir := s.ir
	if ir == "" {
		ir = maccSrc
	}
	if s.size > 0 {
		ir += "\n//"
		ir += strings.Repeat("x", s.size-len(build(ir)))
	}
	b := build(ir)
	if s.edit != nil {
		b = s.edit(b)
	}
	return b
}

// deadlineValue turns a seed's header token into the header's value.
func deadlineValue(token string) string {
	switch token {
	case "+1h":
		return strconv.FormatInt(time.Now().Add(time.Hour).UnixMilli(), 10)
	case "-1s":
		return strconv.FormatInt(time.Now().Add(-time.Second).UnixMilli(), 10)
	}
	return token
}

// measured are the body members that time the tier that wrote them.
var measured = regexp.MustCompile(`"(wall_ns|compile_ns|\w+_per_sec)":[-+.eE0-9]+|"stages":\{[^{}]*\}`)

// answer is what a client can tell a tier by.
type answer struct {
	status     int
	code       string // the body's error_code
	retryAfter string
	body       []byte   // measured members removed
	ids        []string // the request-id header's values
}

// send posts body to path on h, with the deadline header when token is
// not empty.
func send(h http.Handler, path, body, token string) answer {
	return sendAs(h, path, body, token, "")
}

// sendAs is send with id, when not empty, as the request-id header.
func sendAs(h http.Handler, path, body, token, id string) answer {
	req := httptest.NewRequest("POST", path, strings.NewReader(body))
	if token != "" {
		req.Header.Set(server.DeadlineHeader, deadlineValue(token))
	}
	if id != "" {
		req.Header[server.RequestIDHeader] = []string{id}
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	var er server.ErrorResponse
	json.Unmarshal(w.Body.Bytes(), &er)
	return answer{status: w.Code, code: er.ErrorCode, retryAfter: w.Header().Get("Retry-After"),
		body: measured.ReplaceAll(w.Body.Bytes(), nil), ids: w.Header().Values(server.RequestIDHeader)}
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// TestFrontDoorGolden replays every seed on every endpoint against a
// fresh backend, cold and with the seed's kernel resident (the same body
// answered once before, without the header), and pins status, typed
// code, Retry-After and the digest of the body with measured members
// removed in ../server/testdata/frontdoor.golden.
func TestFrontDoorGolden(t *testing.T) {
	var got bytes.Buffer
	for _, path := range frontPaths {
		for _, s := range frontSeeds() {
			body := s.body(path)
			for _, resident := range []bool{false, true} {
				backend, err := reticle.NewServer(reticle.ServerOptions{})
				if err != nil {
					t.Fatal(err)
				}
				mode := "cold"
				if resident {
					mode = "resident"
					send(backend, path, body, "")
				}
				a := send(backend, path, body, s.header)
				fmt.Fprintf(&got, "%s %s %s %d %s %s %x\n", path, s.name, mode,
					a.status, orDash(a.code), orDash(a.retryAfter), sha256.Sum256(a.body))
			}
		}
	}
	golden := filepath.Join("..", "server", "testdata", "frontdoor.golden")
	if flag.Lookup("update").Value.String() == "true" {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden file (run with -update to create): %v", err)
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		if i >= len(gl) || i >= len(wl) || gl[i] != wl[i] {
			t.Fatalf("%s moved at line %d (run with -update only if the change is intentional)\ngot:  %s\nwant: %s",
				golden, i+1, at(gl, i), at(wl, i))
		}
	}
}

func at(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "(end)"
}

// attribution is what an answer says about the cache that served it:
// cache marks and the stats that count hits, which differ between a cold
// tier and a warm one by design.
var attribution = regexp.MustCompile(`"cache":"(hit|miss)"|"stats":\{[^{}]*\}`)

// tap is a handler that keeps the bodies a router posts it.
type tap struct {
	http.Handler
	mu     sync.Mutex
	bodies []string
}

func (c *tap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		b, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(b))
		c.mu.Lock()
		c.bodies = append(c.bodies, string(b))
		c.mu.Unlock()
	}
	c.Handler.ServeHTTP(w, r)
}

func (c *tap) posts() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.bodies...)
}

// tapped starts a backend behind a tap.
func tapped(t testing.TB) (*tap, string) {
	t.Helper()
	s, err := reticle.NewServer(reticle.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c := &tap{Handler: s}
	ts := httptest.NewServer(c)
	t.Cleanup(ts.Close)
	return c, ts.URL
}

// FuzzFrontDoor sends one request five ways — to a cold backend, to a
// backend that has answered the same body before without the headers, to
// a router over that backend, for a /compile as a one-kernel /batch to a
// backend and to the router, and the same body to the router as a repeat
// send — and fails when a client could tell the ways apart by status,
// typed code, Retry-After or body (measured members and cache attribution
// removed; the router's repeat must answer its first send exactly). It
// also fails on what a refusal cost the network: one the front door
// decides before the parse must cross it zero times, and one of IR that
// does not parse, which only a backend parses, exactly once — one proxy
// call and one backend request.
// It also fails when a tier echoes a request id other than the client's
// exactly when ValidID accepts the client's (suffixed on a backend, bare
// on a router), or when a response or a log line carries an id outside
// the grammar. The seeds are TestFrontDoorGolden's, each with one of
// FuzzRequestID's ids.
func FuzzFrontDoor(f *testing.F) {
	ids := requestIDSeeds()
	n := 0
	for i, path := range frontPaths {
		for _, s := range frontSeeds() {
			f.Add(uint8(i), s.body(path), s.header, ids[n%len(ids)])
			n++
		}
	}
	// A null kernel decodes as an empty one: it fails to parse, and the
	// kernel beside it is still routed.
	f.Add(uint8(1), `{"kernels":[null,{"ir":`+quote(maccSrc)+`}]}`, "", "")
	// A deadline header is checked before the parse on both tiers, so IR
	// that does not parse under a spent or malformed deadline is refused
	// for the deadline, at the router's edge.
	for i, path := range frontPaths {
		for _, token := range []string{"-1s", "not-a-deadline"} {
			f.Add(uint8(i), frontSeed{ir: "def broken( {"}.body(path), token, "")
		}
	}
	f.Fuzz(func(t *testing.T, endpoint uint8, body, token, id string) {
		var budget struct {
			TimeoutMS int64 `json:"timeout_ms"`
		}
		if json.Unmarshal([]byte(body), &budget); budget.TimeoutMS > 0 && budget.TimeoutMS < 60_000 {
			t.Skip("a budget this short races the compile: it says nothing about the front door")
		}
		path := frontPaths[int(endpoint)%len(frontPaths)]
		lines := captureLines(t)
		cold, err := reticle.NewServer(reticle.ServerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		resident, url := tapped(t)
		rt := newRouter(t, reticle.ShardOptions{Backends: []string{url}})
		send(resident, path, body, "")

		agree := func(way string, want, got answer) {
			t.Helper()
			if got.status != want.status || got.code != want.code || got.retryAfter != want.retryAfter ||
				!bytes.Equal(attribution.ReplaceAll(got.body, nil), attribution.ReplaceAll(want.body, nil)) {
				t.Fatalf("%s %s: %s tells itself apart\nwant %d %q %q %.300s\ngot  %d %q %q %.300s", path, token, way,
					want.status, want.code, want.retryAfter, want.body, got.status, got.code, got.retryAfter, got.body)
			}
		}
		// tier sends to a backend (suffixed) or a router and checks the
		// id it echoes.
		tier := func(h http.Handler, suffixed bool, path, body string) answer {
			t.Helper()
			a := sendAs(h, path, body, token, id)
			if len(a.ids) != 1 || !server.ValidID(a.ids[0], suffixed) || (a.ids[0] == id) != server.ValidID(id, suffixed) {
				t.Fatalf("%s: client id %q echoed as %q (suffixed %v)", path, id, a.ids, suffixed)
			}
			return a
		}
		// routed sends to the router and checks how often a refusal
		// crossed the network: once when it refuses IR that does not parse,
		// never otherwise.
		routed := func(path, body string) answer {
			t.Helper()
			posts, calls := len(resident.posts()), routerStats(t, rt).Router.ProxyCalls
			a := tier(rt, false, path, body)
			posts, calls = len(resident.posts())-posts, routerStats(t, rt).Router.ProxyCalls-calls
			crossings := 0
			if parseRefusal(a) {
				crossings = 1
			}
			if a.status != http.StatusOK && (posts != crossings || calls != int64(crossings)) {
				t.Fatalf("%s %s: refusal %d crossed the network %d times, %d proxy calls; want %d",
					path, token, a.status, posts, calls, crossings)
			}
			return a
		}
		want := tier(cold, true, path, body)
		agree("the resident backend", want, tier(resident, true, path, body))
		first := routed(path, body)
		agree("the router", want, first)
		if again := routed(path, body); again.status != first.status || again.code != first.code ||
			again.retryAfter != first.retryAfter || !bytes.Equal(again.body, first.body) {
			t.Fatalf("%s %s: the router's repeat tells itself apart\nfirst  %d %q %q %.300s\nrepeat %d %q %q %.300s", path, token,
				first.status, first.code, first.retryAfter, first.body, again.status, again.code, again.retryAfter, again.body)
		}
		if batched, ok := asBatch(path, body); ok {
			agree("the router's /batch", tier(cold, true, "/batch", batched), routed("/batch", batched))
		}
		// A backend's line may carry the router's suffixes; a router's
		// may not.
		for _, l := range lines.where(func(string) bool { return true }) {
			if !server.ValidID(l.str("id"), l.msg == "serve") {
				t.Fatalf("a %q line carries the id %q", l.msg, l.str("id"))
			}
		}
	})
}

// parseRefusal reports whether a is the front door's refusal of IR that
// does not parse.
func parseRefusal(a answer) bool {
	var er server.ErrorResponse
	return a.status == http.StatusBadRequest && json.Unmarshal(a.body, &er) == nil && strings.HasPrefix(er.Error, "parse: ")
}

// asBatch rewrites a /compile body as the one-kernel /batch that carries
// the same kernel and the same top-level members; ok is false when the
// body is no JSON object.
func asBatch(path, body string) (string, bool) {
	var members map[string]json.RawMessage
	if path != "/compile" || json.Unmarshal([]byte(body), &members) != nil || members == nil {
		return "", false
	}
	kernel := map[string]json.RawMessage{"ir": members["ir"]}
	if name, ok := members["name"]; ok {
		kernel["name"] = name
	}
	delete(members, "ir")
	delete(members, "name")
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	raw, _ := json.Marshal([]any{kernel})
	members["kernels"] = raw
	if enc.Encode(members) != nil {
		return "", false
	}
	return b.String(), true
}

// TestRouterForwardsClientBytes: a router sends on the bytes its client
// sent — a /compile or /explore body whole, a /batch kernel's own object —
// with only the resolved family appended, so characters an HTML-safe JSON
// encoder would escape (six bytes for one '<') cannot push a forward that
// fits on a backend past its body limit. The answer is a bare backend's.
func TestRouterForwardsClientBytes(t *testing.T) {
	ir := quote(maccSrc + "\n// " + strings.Repeat("<", 200_000) + strings.Repeat(">&\u2028", 1000) + "\n")
	kernel := `{"name":"esc","ir":` + ir + `}`
	family := `,"family":"ultrascale"}`
	for _, tc := range []struct{ path, body, forwarded string }{
		{"/compile", kernel, kernel[:len(kernel)-1] + family},
		{"/explore", `{"ir":` + ir + `,"jobs":1,"max_variants":2}`, `{"ir":` + ir + `,"jobs":1,"max_variants":2` + family},
		{"/batch", `{"jobs":1,"kernels":[` + kernel + `]}`, kernel[:len(kernel)-1] + family},
	} {
		bare, err := reticle.NewServer(reticle.ServerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		backend, url := tapped(t)
		rt := newRouter(t, reticle.ShardOptions{Backends: []string{url}})
		want, got := send(bare, tc.path, tc.body, ""), send(rt, tc.path, tc.body, "")
		if got.status != http.StatusOK || got.status != want.status ||
			!bytes.Equal(attribution.ReplaceAll(got.body, nil), attribution.ReplaceAll(want.body, nil)) {
			t.Errorf("%s: router %d %.200s, bare backend %d %.200s", tc.path, got.status, got.body, want.status, want.body)
		}
		if posts := backend.posts(); len(posts) != 1 || posts[0] != tc.forwarded {
			t.Errorf("%s: the backend received %d bodies; want the client's with the family appended", tc.path, len(posts))
		}
	}
}

// TestRouterDoesNotParse: the router sends IR on without parsing it, so
// kernels that do not parse cost one proxy call and one backend request
// each, as any kernel does, and the answer is a bare backend's bytes: the
// relayed 400 of a /compile or /explore, a /batch kernel's parse_failed
// result. A null kernel is sent on as an empty one; an empty kernel list
// is refused before any call.
func TestRouterDoesNotParse(t *testing.T) {
	garbage := quote("def broken( {")
	for _, tc := range []struct {
		path, body string
		calls      int
	}{
		{"/compile", `{"ir":` + garbage + `}`, 1},
		{"/explore", `{"ir":` + garbage + `,"jobs":1,"max_variants":2}`, 1},
		{"/batch", `{"jobs":1,"kernels":[{"name":"g","ir":` + garbage + `},{"ir":"}"},null,{"ir":` + quote(maccSrc) + `}]}`, 4},
		{"/batch", `{"kernels":[null]}`, 1},
		{"/batch", `{"kernels":[]}`, 0},
	} {
		bare, err := reticle.NewServer(reticle.ServerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		backend, url := tapped(t)
		rt := newRouter(t, reticle.ShardOptions{Backends: []string{url}})
		want, got := send(bare, tc.path, tc.body, ""), send(rt, tc.path, tc.body, "")
		if got.status != want.status || !bytes.Equal(got.body, want.body) {
			t.Errorf("%s %s: router %d %.300s\nbare backend %d %.300s", tc.path, tc.body, got.status, got.body, want.status, want.body)
		}
		if calls, posts := routerStats(t, rt).Router.ProxyCalls, len(backend.posts()); calls != int64(tc.calls) || posts != tc.calls {
			t.Errorf("%s %s: %d proxy calls, %d backend requests; want %d of each", tc.path, tc.body, calls, posts, tc.calls)
		}
	}
}

// TestInvalidInputCostsNoProxyAttempt: a request the front door refuses is
// refused at the router's edge; it never costs a proxy attempt.
func TestInvalidInputCostsNoProxyAttempt(t *testing.T) {
	a, urlA := tapped(t)
	b, urlB := tapped(t)
	rt := newRouter(t, reticle.ShardOptions{Backends: []string{urlA, urlB}})
	for _, members := range []string{`,"jobs":-1`, `,"max_variants":-1`} {
		if got := send(rt, "/explore", `{"ir":`+quote(maccSrc)+members+`}`, ""); got.status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", members, got.status, got.body)
		}
	}
	if st := routerStats(t, rt).Router; st.Proxied != 0 || st.ProxyCalls != 0 || len(a.posts())+len(b.posts()) != 0 {
		t.Errorf("refusals cost %d proxy calls, %d proxied, %d backend requests", st.ProxyCalls, st.Proxied, len(a.posts())+len(b.posts()))
	}
}

// TestRouterHonoursClientDeadline: a client's X-Reticle-Deadline bounds the
// routed request as it bounds a backend's, so a wedged backend costs the
// client its own budget, not the router's ProxyTimeout; and a malformed
// header is the backend's 400, answered before any attempt.
func TestRouterHonoursClientDeadline(t *testing.T) {
	stuck := newStub(t, wedged)
	rt := newRouter(t, reticle.ShardOptions{Backends: []string{stuck.srv.URL}, ProxyTimeout: 3 * time.Second})
	body := `{"ir":` + quote(maccSrc) + `}`
	req := httptest.NewRequest("POST", "/compile", strings.NewReader(body))
	req.Header.Set(server.DeadlineHeader, strconv.FormatInt(time.Now().Add(100*time.Millisecond).UnixMilli(), 10))
	w := httptest.NewRecorder()
	start := time.Now()
	rt.ServeHTTP(w, req)
	if took := time.Since(start); took > time.Second {
		t.Errorf("a 100ms budget answered after %s", took)
	}
	var er server.ErrorResponse
	if json.Unmarshal(w.Body.Bytes(), &er); w.Code != http.StatusGatewayTimeout || er.ErrorCode != "deadline_exhausted" {
		t.Errorf("status %d %s, want the typed 504", w.Code, w.Body)
	}
	sent := stuck.hits.Load()
	if a := send(rt, "/compile", body, "not-a-deadline"); a.status != http.StatusBadRequest || stuck.hits.Load() != sent {
		t.Errorf("malformed deadline: status %d after %d attempts, want a 400 before any: %s", a.status, stuck.hits.Load()-sent, a.body)
	}
}
