package server_test

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"reticle"
	"reticle/internal/server"
)

// artifactFiles lists the segment files directly under the disk cache
// root, skipping the quarantine directory. Damage to a segment's last
// bytes lands in its last record.
func artifactFiles(t testing.TB, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if !e.IsDir() {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	return out
}

// assertSameDesign compares the design-bearing artifact fields — the
// ones a recompute must reproduce exactly — ignoring per-run compile
// timing metadata.
func assertSameDesign(t testing.TB, a, b []byte) {
	t.Helper()
	type design struct {
		Asm     string  `json:"asm"`
		Placed  string  `json:"placed"`
		Verilog string  `json:"verilog"`
		LUTs    int     `json:"luts"`
		DSPs    int     `json:"dsps"`
		FFs     int     `json:"ffs"`
		Fmax    float64 `json:"fmax_mhz"`
	}
	var da, db design
	if err := json.Unmarshal(a, &da); err != nil {
		t.Fatalf("original artifact unreadable: %v", err)
	}
	if err := json.Unmarshal(b, &db); err != nil {
		t.Fatalf("recomputed artifact unreadable: %v", err)
	}
	if da != db {
		t.Fatalf("recomputed design differs from the original\ngot:  %+v\nwant: %+v", db, da)
	}
}

func quarantineCount(t testing.TB, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if os.IsNotExist(err) {
		return 0
	}
	if err != nil {
		t.Fatal(err)
	}
	return len(entries)
}

// TestDiskCorruptionSelfHeals is the self-healing acceptance test at
// the service level: corrupt a cached artifact's record on disk (a
// flipped bit, a segment cut inside the record — what a failing sector
// or a torn write leaves behind), bring a fresh server up over the
// directory, and require the damage to be invisible to clients: zero
// 5xx, the entry quarantined and transparently recomputed, and the
// re-served artifact byte-identical to the original. Run under -race in
// CI.
func TestDiskCorruptionSelfHeals(t *testing.T) {
	cases := []struct {
		name   string
		damage func(t *testing.T, path string)
	}{
		{"bit-flip", func(t *testing.T, path string) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			raw[len(raw)-1] ^= 0x40
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncate", func(t *testing.T, path string) {
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, info.Size()/2); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			first := newTestServer(t, reticle.ServerOptions{DiskDir: dir})
			var original rawCompileResponse
			if code := post(t, first, "/compile", server.CompileRequest{IR: maccSrc}, &original); code != http.StatusOK {
				t.Fatalf("seed compile: status %d", code)
			}
			files := artifactFiles(t, dir)
			if len(files) != 1 {
				t.Fatalf("%d segment files after one compile, want 1", len(files))
			}
			tc.damage(t, files[0])

			// A fresh server (empty memory LRU) must quarantine the damaged
			// record — on Open for a torn tail, on read for a flipped bit —
			// and recompute: the client sees a clean miss.
			healed := newTestServer(t, reticle.ServerOptions{DiskDir: dir})
			var resp rawCompileResponse
			code := post(t, healed, "/compile", server.CompileRequest{IR: maccSrc}, &resp)
			if code >= 500 {
				t.Fatalf("corrupt entry surfaced as %d", code)
			}
			if code != http.StatusOK {
				t.Fatalf("recompute: status %d", code)
			}
			if resp.Cache != "miss" {
				t.Fatalf("recompute served cache %q, want a transparent miss", resp.Cache)
			}
			// The recompute must be semantically identical to the original —
			// same netlist, placement, and Verilog. Full byte-identity only
			// holds for re-served bytes (asserted below): compile timing
			// metadata legitimately differs between pipeline runs.
			assertSameDesign(t, original.Artifact, resp.Artifact)

			var stats server.StatsResponse
			if gcode := get(t, healed, "/stats", &stats); gcode != http.StatusOK {
				t.Fatalf("/stats: %d", gcode)
			}
			if stats.Disk == nil {
				t.Fatal("/stats missing disk section")
			}
			if stats.Disk.Corrupt != 1 || stats.Disk.Quarantined != 1 {
				t.Fatalf("corruption counters %+v, want disk_corrupt=1 disk_quarantined=1", *stats.Disk)
			}
			if n := quarantineCount(t, dir); n != 1 {
				t.Fatalf("%d quarantined files, want 1", n)
			}

			// The recompute was written back: a third cold server serves the
			// kernel as a disk hit, byte-identical to the healed artifact.
			third := newTestServer(t, reticle.ServerOptions{DiskDir: dir})
			var again rawCompileResponse
			if code := post(t, third, "/compile", server.CompileRequest{IR: maccSrc}, &again); code != http.StatusOK {
				t.Fatalf("post-heal compile: status %d", code)
			}
			if again.Cache != "hit" {
				t.Fatalf("post-heal cache %q, want hit", again.Cache)
			}
			if string(again.Artifact) != string(resp.Artifact) {
				t.Fatal("re-served artifact bytes differ from the healed recompute")
			}
		})
	}
}

// TestScrubEndpoint: POST /scrub walks the disk tier, quarantining
// corrupt frames and reporting the walk, without interrupting service.
func TestScrubEndpoint(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, reticle.ServerOptions{DiskDir: dir})
	sources := []string{maccSrc, chainSrc("sc1", 2), chainSrc("sc2", 3)}
	for i, src := range sources {
		if code := post(t, s, "/compile", server.CompileRequest{IR: src}, nil); code != http.StatusOK {
			t.Fatalf("seed %d: status %d", i, code)
		}
	}
	files := artifactFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("%d segment files for %d artifacts, want 1", len(files), len(sources))
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x01
	if err := os.WriteFile(files[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	var rep server.ScrubResponse
	if code := post(t, s, "/scrub", struct{}{}, &rep); code != http.StatusOK {
		t.Fatalf("/scrub: status %d", code)
	}
	if rep.Scanned != len(sources) || rep.Corrupt != 1 {
		t.Fatalf("scrub report %+v, want scanned=%d corrupt=1", rep, len(sources))
	}
	if n := quarantineCount(t, dir); n != 1 {
		t.Fatalf("%d quarantined files after scrub, want 1", n)
	}

	// A server without a disk tier answers 404, not 500.
	nodisk := newTestServer(t, reticle.ServerOptions{})
	if code := post(t, nodisk, "/scrub", struct{}{}, nil); code != http.StatusNotFound {
		t.Fatalf("diskless /scrub: status %d, want 404", code)
	}
}
