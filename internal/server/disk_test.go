package server_test

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"reticle"
	"reticle/internal/cache"
	"reticle/internal/faults"
	"reticle/internal/rerr"
	"reticle/internal/server"
)

// rawCompileResponse mirrors the /compile wire shape with the artifact
// kept as raw bytes, so byte-identity across processes can be asserted
// without a decode/re-encode round trip.
type rawCompileResponse struct {
	Name     string          `json:"name"`
	Family   string          `json:"family"`
	Cache    string          `json:"cache"`
	Key      string          `json:"key"`
	Artifact json.RawMessage `json:"artifact"`
}

// TestDiskCacheServerCrashRestart is the tentpole's crash-restart round
// trip at the service level: fill the disk cache through one server,
// tear it down, bring up a fresh server (a new process, as far as the
// cache can tell) over the same directory, and require byte-identical
// artifacts served as hits without a single pipeline run — the
// cold-vs-warm hit-rate jump a restart should show.
func TestDiskCacheServerCrashRestart(t *testing.T) {
	dir := t.TempDir()
	sources := []string{maccSrc, chainSrc("cr1", 2), chainSrc("cr2", 4)}

	cold := newTestServer(t, reticle.ServerOptions{DiskDir: dir})
	firstRun := make([]rawCompileResponse, len(sources))
	for i, src := range sources {
		var resp rawCompileResponse
		if code := post(t, cold, "/compile", server.CompileRequest{IR: src}, &resp); code != http.StatusOK {
			t.Fatalf("kernel %d: status %d", i, code)
		}
		if resp.Cache != "miss" {
			t.Fatalf("kernel %d: cold compile served cache %q", i, resp.Cache)
		}
		firstRun[i] = resp
	}
	coldDisk := cold.Disk().Stats()
	if coldDisk.Writes != uint64(len(sources)) || coldDisk.Hits != 0 {
		t.Fatalf("cold disk stats %+v, want %d writes / 0 hits", coldDisk, len(sources))
	}

	// "Crash": no explicit close exists or is needed — a record is
	// indexed only once its bytes are in its segment, so simply
	// abandoning the first server models a killed process.
	warm := newTestServer(t, reticle.ServerOptions{DiskDir: dir})
	for i, src := range sources {
		var resp rawCompileResponse
		if code := post(t, warm, "/compile", server.CompileRequest{IR: src}, &resp); code != http.StatusOK {
			t.Fatalf("restart kernel %d: status %d", i, code)
		}
		if resp.Cache != "hit" {
			t.Fatalf("restart kernel %d: cache %q, want hit from the disk tier", i, resp.Cache)
		}
		if string(resp.Artifact) != string(firstRun[i].Artifact) {
			t.Fatalf("restart kernel %d: artifact bytes changed across restart\ngot:  %s\nwant: %s",
				i, resp.Artifact, firstRun[i].Artifact)
		}
		if resp.Key != firstRun[i].Key {
			t.Fatalf("restart kernel %d: key changed across restart: %s != %s", i, resp.Key, firstRun[i].Key)
		}
	}

	// Warm process: every request was a disk hit, zero kernels entered
	// the pipeline — the hit-rate jump.
	var stats server.StatsResponse
	if code := get(t, warm, "/stats", &stats); code != http.StatusOK {
		t.Fatalf("/stats: %d", code)
	}
	if stats.Kernels != 0 {
		t.Fatalf("restarted server compiled %d kernels, want 0 (disk-served)", stats.Kernels)
	}
	if stats.Disk == nil {
		t.Fatal("/stats missing disk section with DiskDir set")
	}
	if stats.Disk.Hits != uint64(len(sources)) || stats.Disk.Misses != 0 {
		t.Fatalf("warm disk stats %+v, want %d hits / 0 misses", *stats.Disk, len(sources))
	}
	if stats.Disk.Entries != len(sources) {
		t.Fatalf("disk entries %d, want %d", stats.Disk.Entries, len(sources))
	}

	// And the batch tier reads the same second level: a fresh third
	// server serves the whole sweep as hits.
	third := newTestServer(t, reticle.ServerOptions{DiskDir: dir})
	kernels := make([]server.BatchKernel, len(sources))
	for i, src := range sources {
		kernels[i] = server.BatchKernel{IR: src}
	}
	var br server.BatchResponse
	if code := post(t, third, "/batch", server.BatchRequest{Kernels: kernels}, &br); code != http.StatusOK {
		t.Fatalf("/batch after restart: %d", code)
	}
	if br.Stats.Compiled != 0 {
		t.Fatalf("batch after restart compiled %d kernels, want 0", br.Stats.Compiled)
	}
	for i, res := range br.Results {
		if !res.OK || res.Cache != "hit" {
			t.Fatalf("batch kernel %d after restart: %+v", i, res)
		}
	}
}

// TestDiskDegradedNeverPersisted: a degraded (fallback-placed) artifact
// is served to the requester but written to neither cache tier, so a
// restart never replays it.
func TestDiskDegradedNeverPersisted(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, reticle.ServerOptions{DiskDir: dir})
	plan := faults.NewPlan(map[faults.Point]faults.Injection{
		"place/solver-budget": {Class: rerr.Exhausted, Times: 1},
	})
	w := chaosPost(t, s, "/compile", server.CompileRequest{IR: maccSrc}, plan)
	if w.Code != http.StatusOK {
		t.Fatalf("degraded compile: status %d: %s", w.Code, w.Body.String())
	}
	var resp server.CompileResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Artifact.Degraded {
		t.Fatal("solver-budget fault did not degrade the artifact")
	}
	if st := s.Disk().Stats(); st.Writes != 0 || st.Entries != 0 {
		t.Fatalf("degraded artifact reached the disk tier: %+v", st)
	}

	// The same kernel compiled healthily afterwards is persisted.
	var ok rawCompileResponse
	if code := post(t, s, "/compile", server.CompileRequest{IR: maccSrc}, &ok); code != http.StatusOK {
		t.Fatalf("healthy recompile: %d", code)
	}
	if st := s.Disk().Stats(); st.Writes != 1 {
		t.Fatalf("healthy artifact not persisted: %+v", st)
	}
}

// TestChaosDiskCacheFaults drives the two disk-tier fault points through
// the service: a read fault degrades to a miss (the kernel still
// compiles, 200), a write fault drops the persist without failing the
// compile, and a panic at either point is contained to a typed 500 —
// never an escaped panic or an internal path on the wire.
func TestChaosDiskCacheFaults(t *testing.T) {
	t.Run("read-degrades-to-miss", func(t *testing.T) {
		s := newTestServer(t, reticle.ServerOptions{DiskDir: t.TempDir()})
		plan := faults.NewPlan(map[faults.Point]faults.Injection{
			"cache/disk-read": {Class: rerr.Transient, Times: 1},
		})
		w := chaosPost(t, s, "/compile", server.CompileRequest{IR: maccSrc}, plan)
		if w.Code != http.StatusOK {
			t.Fatalf("read fault failed the request: %d: %s", w.Code, w.Body.String())
		}
		st := s.Disk().Stats()
		if st.ReadErrors != 1 {
			t.Fatalf("read fault not counted: %+v", st)
		}
		if st.Writes != 1 {
			t.Fatalf("artifact not persisted after read fault: %+v", st)
		}
	})

	t.Run("write-drops-persist-keeps-compile", func(t *testing.T) {
		s := newTestServer(t, reticle.ServerOptions{DiskDir: t.TempDir()})
		plan := faults.NewPlan(map[faults.Point]faults.Injection{
			"cache/disk-write": {Class: rerr.Transient, Times: 1},
		})
		w := chaosPost(t, s, "/compile", server.CompileRequest{IR: maccSrc}, plan)
		if w.Code != http.StatusOK {
			t.Fatalf("write fault failed the request: %d: %s", w.Code, w.Body.String())
		}
		st := s.Disk().Stats()
		if st.Writes != 0 || st.WriteErrors != 1 || st.Entries != 0 {
			t.Fatalf("write fault accounting: %+v", st)
		}
	})

	for _, point := range []faults.Point{"cache/disk-read", "cache/disk-write"} {
		t.Run(string(point)+"-panic-contained", func(t *testing.T) {
			s := newTestServer(t, reticle.ServerOptions{DiskDir: t.TempDir()})
			plan := faults.NewPlan(map[faults.Point]faults.Injection{
				point: {Panic: true, Times: 1},
			})
			w := chaosPost(t, s, "/compile", server.CompileRequest{IR: maccSrc}, plan)
			if w.Code != http.StatusInternalServerError {
				t.Fatalf("panic at %s: status %d, want 500: %s", point, w.Code, w.Body.String())
			}
			var er server.ErrorResponse
			if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil {
				t.Fatal(err)
			}
			if er.ErrorCode != "internal_panic" {
				t.Fatalf("panic at %s: error_code %q", point, er.ErrorCode)
			}
			body := w.Body.String()
			for _, leak := range []string{"internal/", ".go:", "goroutine "} {
				if strings.Contains(body, leak) {
					t.Fatalf("panic at %s leaked %q on the wire: %s", point, leak, body)
				}
			}
		})
	}
}

// TestDiskTreeHoldsOnlyArtifacts: the artifact store is the only one
// with a disk level. After an /explore sweep (every stage memoized) and
// an edit (a hint adopted) on a -disk server, the root holds segment
// files and at most the quarantine directory, and every disk write was
// one of the artifacts indexed there.
func TestDiskTreeHoldsOnlyArtifacts(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, reticle.ServerOptions{DiskDir: dir})
	exploreSweep(t, s, nil)
	src := tensordotSrc(t)
	compileOK(t, s, src)
	if edited := compileOK(t, s, constTweak(src)); edited.Artifact.WarmStart != "adopted" {
		t.Fatalf("edit: warm_start %q, want adopted (the hint memo must be exercised)", edited.Artifact.WarmStart)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	segs := 0
	for _, e := range ents {
		switch {
		case e.IsDir() && e.Name() == "quarantine":
		case !e.IsDir() && strings.HasSuffix(e.Name(), ".seg"):
			segs++
		default:
			t.Errorf("disk tree holds %q besides segments", e.Name())
		}
	}
	if ds := s.Disk().Stats(); segs == 0 || ds.Entries == 0 || ds.Writes != uint64(ds.Entries) {
		t.Errorf("disk stats %+v over %d segments, want one write per indexed artifact", ds, segs)
	}
}

// TestOldMemoDirsRemoved: a tree written by a build that persisted the
// memos keeps DIR/stages and DIR/hints, which nothing reads or bounds
// now. A server starting on it removes both and still serves the
// artifact it holds from disk, byte for byte.
func TestOldMemoDirsRemoved(t *testing.T) {
	dir := t.TempDir()
	var first rawCompileResponse
	if code := post(t, newTestServer(t, reticle.ServerOptions{DiskDir: dir}), "/compile",
		server.CompileRequest{IR: maccSrc}, &first); code != http.StatusOK {
		t.Fatalf("seed compile: status %d", code)
	}
	for _, sub := range []string{"stages", "hints"} {
		d, err := cache.OpenDisk(filepath.Join(dir, sub), 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Put(context.Background(), cache.Key(strings.Repeat("ab", 32)), []byte("an old memo frame")); err != nil {
			t.Fatal(err)
		}
	}

	s := newTestServer(t, reticle.ServerOptions{DiskDir: dir})
	for _, sub := range []string{"stages", "hints"} {
		if _, err := os.Stat(filepath.Join(dir, sub)); !os.IsNotExist(err) {
			t.Errorf("DIR/%s survived a server start (stat err %v)", sub, err)
		}
	}
	var again rawCompileResponse
	if code := post(t, s, "/compile", server.CompileRequest{IR: maccSrc}, &again); code != http.StatusOK || again.Cache != "hit" {
		t.Fatalf("artifact after start: status %d, cache %q, want a hit", code, again.Cache)
	}
	if string(again.Artifact) != string(first.Artifact) {
		t.Fatalf("artifact bytes changed\ngot:  %s\nwant: %s", again.Artifact, first.Artifact)
	}
	if ds := s.Disk().Stats(); ds.Hits != 1 {
		t.Fatalf("artifact not served by the disk level: %+v", ds)
	}
}
