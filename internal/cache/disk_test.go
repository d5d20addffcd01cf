package cache

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"reticle/internal/faults"
	"reticle/internal/rerr"
)

func mustOpen(t *testing.T, dir string, max int64) *Disk {
	t.Helper()
	d, err := OpenDisk(dir, max)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// recordAt is the test hook that locates key's indexed record: the path
// of its segment, its offset there, and its length.
func recordAt(t *testing.T, d *Disk, key Key) (path string, off, size int64) {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	ent, ok := d.items[key]
	if !ok {
		t.Fatalf("key %q has no record", key)
	}
	return d.segPath(ent.seg.seq), ent.off, ent.size
}

// patchRecord overwrites key's record, at byte at of it, with b — in
// place in its segment, the way a failing sector would.
func patchRecord(t *testing.T, d *Disk, key Key, at int64, b []byte) {
	t.Helper()
	path, off, _ := recordAt(t, d, key)
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(b, off+at); err != nil {
		t.Fatal(err)
	}
}

// cutRecord truncates key's segment keep bytes into its record, which
// must be the segment's last: what a crash mid-append leaves.
func cutRecord(t *testing.T, d *Disk, key Key, keep int64) {
	t.Helper()
	path, off, size := recordAt(t, d, key)
	if info, err := os.Stat(path); err != nil || info.Size() != off+size {
		t.Fatalf("record of %q is not its segment's last (stat err %v)", key, err)
	}
	if err := os.Truncate(path, off+keep); err != nil {
		t.Fatal(err)
	}
}

func TestDiskCacheRoundTrip(t *testing.T) {
	ctx := context.Background()
	d := mustOpen(t, t.TempDir(), 1<<20)

	key := Key(strings.Repeat("ab", 32))
	payload := []byte(`{"verilog":"module m; endmodule"}`)
	if _, ok := d.Get(ctx, key); ok {
		t.Fatal("empty cache reported a hit")
	}
	if err := d.Put(ctx, key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := d.Get(ctx, key)
	if !ok {
		t.Fatal("persisted artifact not found")
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("round trip mutated the artifact: got %q want %q", got, payload)
	}
	st := d.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Writes != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v, want hits=1 misses=1 writes=1 entries=1", st)
	}
}

// TestDiskCacheCrashRestart is the durability half of the tentpole
// contract: fill the cache in one "process" (Disk instance), reopen the
// same directory in a fresh one, and require byte-identical artifacts —
// plus a hit-rate jump from cold (all misses) to warm (all hits).
func TestDiskCacheCrashRestart(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	keys := make([]Key, 8)
	payloads := make([][]byte, 8)
	for i := range keys {
		keys[i] = Key(fmt.Sprintf("%064x", 0xbeef0000+i))
		payloads[i] = []byte(fmt.Sprintf(`{"asm":"artifact-%d","verilog":"%s"}`, i, strings.Repeat("v", 100*i)))
	}

	first := mustOpen(t, dir, 1<<20)
	for i, k := range keys {
		// Cold pass: every lookup misses, then the artifact is persisted.
		if _, ok := first.Get(ctx, k); ok {
			t.Fatalf("key %d: hit in a cold cache", i)
		}
		if err := first.Put(ctx, k, payloads[i]); err != nil {
			t.Fatal(err)
		}
	}
	cold := first.Stats()
	if cold.Hits != 0 || cold.Misses != uint64(len(keys)) {
		t.Fatalf("cold stats %+v, want 0 hits / %d misses", cold, len(keys))
	}

	// "Crash": drop the instance without Close (a record is indexed only
	// once its bytes are written), then reopen.
	second := mustOpen(t, dir, 1<<20)
	if second.Stats().Entries != len(keys) {
		t.Fatalf("restart recovered %d entries, want %d", second.Stats().Entries, len(keys))
	}
	for i, k := range keys {
		got, ok := second.Get(ctx, k)
		if !ok {
			t.Fatalf("key %d lost across restart", i)
		}
		if !bytes.Equal(got, payloads[i]) {
			t.Fatalf("key %d: artifact changed across restart:\ngot  %q\nwant %q", i, got, payloads[i])
		}
	}
	warm := second.Stats()
	if warm.Hits != uint64(len(keys)) || warm.Misses != 0 {
		t.Fatalf("warm stats %+v, want %d hits / 0 misses", warm, len(keys))
	}
}

// TestDiskCacheClose: a closed Disk takes no more records — a Put fails
// and counts as a write error, a Get misses — and a reopen of its root
// finds every record written before the close.
func TestDiskCacheClose(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	d := mustOpen(t, dir, 1<<20)
	keys := []Key{Key(strings.Repeat("a1", 32)), Key(strings.Repeat("b2", 32))}
	for _, k := range keys {
		if err := d.Put(ctx, k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	late := Key(strings.Repeat("c3", 32))
	if err := d.Put(ctx, late, []byte(late)); err == nil {
		t.Fatal("Put after Close succeeded")
	}
	if _, ok := d.Get(ctx, keys[0]); ok {
		t.Fatal("Get after Close served a record")
	}
	if st := d.Stats(); st.WriteErrors != 1 || st.Writes != uint64(len(keys)) {
		t.Fatalf("stats %+v, want %d writes and 1 write error", st, len(keys))
	}

	again := mustOpen(t, dir, 1<<20)
	defer again.Close()
	if n := again.Stats().Entries; n != len(keys) {
		t.Fatalf("reopen found %d records, want %d", n, len(keys))
	}
	for _, k := range keys {
		if got, ok := again.Get(ctx, k); !ok || string(got) != string(k) {
			t.Fatalf("record %q after reopen: %q, %v", k[:8], got, ok)
		}
	}
	if _, ok := again.Get(ctx, late); ok {
		t.Fatal("the Put refused after Close was persisted")
	}
}

// TestDiskCacheAtomicWrite: a stray temp file an older build's crashed
// writer left is swept on Open and never served, and a damaged record
// under a live key is evicted on read instead of returned.
func TestDiskCacheAtomicWrite(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	d := mustOpen(t, dir, 1<<20)
	key := Key(strings.Repeat("cd", 32))
	if err := d.Put(ctx, key, []byte("payload")); err != nil {
		t.Fatal(err)
	}

	// Simulate a crashed writer: a temp file next to the real artifact.
	stray := filepath.Join(dir, diskFileName(key)+".tmp")
	if err := os.WriteFile(stray, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	reopened := mustOpen(t, dir, 1<<20)
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatalf("stray temp file survived Open: %v", err)
	}
	if got, ok := reopened.Get(ctx, key); !ok || string(got) != "payload" {
		t.Fatalf("artifact damaged by temp sweep: %q %v", got, ok)
	}

	// Overwrite the record in place: the next Get must miss and evict,
	// never serve the corrupt bytes.
	patchRecord(t, reopened, key, 0, []byte("garbage"))
	if _, ok := reopened.Get(ctx, key); ok {
		t.Fatal("corrupt artifact served as a hit")
	}
	if reopened.Stats().Entries != 0 {
		t.Fatalf("corrupt artifact not evicted: %d entries", reopened.Stats().Entries)
	}
	if st := reopened.Stats(); st.ReadErrors != 1 {
		t.Fatalf("read error not counted: %+v", st)
	}
}

// TestDiskCacheEviction: the byte bound evicts least-recently-used
// artifacts first, and a Get refreshes recency.
func TestDiskCacheEviction(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	pay := bytes.Repeat([]byte("p"), 100)
	// Frame overhead is magic(6) + lengths(8) + key(64) + sum(32) = 110
	// bytes; budget for 3 records of 210 bytes. A segment is an eighth of
	// that, so each record sits in a segment of its own.
	d := mustOpen(t, dir, 3*210)

	k := func(i int) Key { return Key(fmt.Sprintf("%064x", i)) }
	for i := 0; i < 3; i++ {
		if err := d.Put(ctx, k(i), pay); err != nil {
			t.Fatal(err)
		}
	}
	// Touch k0 so k1 becomes the eviction victim: retiring k0's segment
	// re-appends it (its second chance), then k1's goes.
	if _, ok := d.Get(ctx, k(0)); !ok {
		t.Fatal("k0 missing before eviction")
	}
	if err := d.Put(ctx, k(3), pay); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get(ctx, k(1)); ok {
		t.Fatal("LRU victim k1 survived eviction")
	}
	for _, want := range []int{0, 2, 3} {
		if _, ok := d.Get(ctx, k(want)); !ok {
			t.Fatalf("k%d evicted out of order", want)
		}
	}
	if st := d.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}

	// Recency survives a restart as log order: k0's second chance moved
	// it behind k2, so k2 is the least recently used, and a reopen with a
	// tighter bound must drop it first.
	d.Get(ctx, k(0))
	d.Get(ctx, k(3))
	shrunk := mustOpen(t, dir, 2*210)
	if _, ok := shrunk.Get(ctx, k(2)); ok {
		t.Fatal("reopen with a tighter bound kept the least-recent artifact")
	}
	for _, want := range []int{0, 3} {
		if _, ok := shrunk.Get(ctx, k(want)); !ok {
			t.Fatalf("k%d lost while shrinking", want)
		}
	}
}

// TestDiskCacheFaults: the chaos contract for the disk tier. An armed
// cache/disk-read fault degrades to a miss (and counts a read error); an
// armed cache/disk-write fault drops the persist with a typed transient
// error the caller can count, and leaves no file behind.
func TestDiskCacheFaults(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, 1<<20)
	key := Key(strings.Repeat("ef", 32))
	ctx := context.Background()
	if err := d.Put(ctx, key, []byte("payload")); err != nil {
		t.Fatal(err)
	}

	rctx := faults.WithPlan(context.Background(), faults.NewPlan(map[faults.Point]faults.Injection{
		FaultDiskRead: {Class: rerr.Transient, Times: 1},
	}))
	if _, ok := d.Get(rctx, key); ok {
		t.Fatal("injected read fault still served a hit")
	}
	if _, ok := d.Get(rctx, key); !ok {
		t.Fatal("read fault was sticky past its Times cap")
	}

	wctx := faults.WithPlan(context.Background(), faults.NewPlan(map[faults.Point]faults.Injection{
		FaultDiskWrite: {Class: rerr.Transient, Times: 1},
	}))
	key2 := Key(strings.Repeat("aa", 32))
	err := d.Put(wctx, key2, []byte("payload2"))
	if err == nil {
		t.Fatal("injected write fault did not surface")
	}
	if rerr.ClassOf(err) != rerr.Transient || rerr.CodeOf(err) != "disk_cache_write" {
		t.Fatalf("write fault badly typed: class %v code %q", rerr.ClassOf(err), rerr.CodeOf(err))
	}
	if _, ok := d.Get(context.Background(), key2); ok {
		t.Fatal("faulted write left an artifact behind")
	}
	if err := d.Put(wctx, key2, []byte("payload2")); err != nil {
		t.Fatalf("write fault was sticky past its Times cap: %v", err)
	}
	st := d.Stats()
	if st.ReadErrors == 0 || st.WriteErrors == 0 {
		t.Fatalf("fault counters not recorded: %+v", st)
	}
}

// FuzzDiskCachePath hammers the filename/path derivation (the names of
// quarantine copies) with arbitrary key bytes, checked against
// diskNamePattern: the derived path must never escape the cache root, two
// distinct keys must never share a file name, and every key must round-
// trip its payload through a real write and read-back.
func FuzzDiskCachePath(f *testing.F) {
	f.Add("", "")
	f.Add("abcdef0123456789", "../../etc/passwd")
	f.Add(strings.Repeat("ab", 32), strings.Repeat("ab", 32)+"x")
	f.Add("../escape", "..\\escape")
	f.Add("a/b/c", "a\x00b")
	f.Add(strings.Repeat("f", 128), strings.Repeat("f", 129))
	f.Add("x41deadbeef", "41deadbeef")

	dir := f.TempDir()
	d, err := OpenDisk(dir, 1<<30)
	if err != nil {
		f.Fatal(err)
	}
	root, err := filepath.Abs(dir)
	if err != nil {
		f.Fatal(err)
	}
	ctx := context.Background()

	f.Fuzz(func(t *testing.T, k1, k2 string) {
		for _, k := range []string{k1, k2} {
			name := diskFileName(Key(k))
			if !diskNamePattern.MatchString(name) {
				t.Fatalf("key %q derived unsafe file name %q", k, name)
			}
			abs, err := filepath.Abs(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			if filepath.Dir(abs) != root {
				t.Fatalf("key %q escaped the cache root: %q", k, abs)
			}
		}
		if k1 != k2 && diskFileName(Key(k1)) == diskFileName(Key(k2)) {
			t.Fatalf("distinct keys %q and %q collide on file name %q", k1, k2, diskFileName(Key(k1)))
		}

		p1 := []byte("payload-1:" + k1)
		p2 := []byte("payload-2:" + k2)
		if err := d.Put(ctx, Key(k1), p1); err != nil {
			t.Fatalf("put %q: %v", k1, err)
		}
		if err := d.Put(ctx, Key(k2), p2); err != nil {
			t.Fatalf("put %q: %v", k2, err)
		}
		got2, ok := d.Get(ctx, Key(k2))
		if !ok || !bytes.Equal(got2, p2) {
			t.Fatalf("key %q did not round-trip: %q %v", k2, got2, ok)
		}
		if k1 != k2 {
			got1, ok := d.Get(ctx, Key(k1))
			if !ok || !bytes.Equal(got1, p1) {
				t.Fatalf("key %q did not round-trip: %q %v", k1, got1, ok)
			}
		}
	})
}

// TestDiskLegacyLayoutRemoved: Open removes what the one-file-per-
// artifact layout left at the root — artifact files of both name shapes,
// their temp files, the old memo directories — imports none of it, and
// touches nothing else, so a root shared with other files stays intact.
func TestDiskLegacyLayoutRemoved(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	d := mustOpen(t, dir, 1<<20)
	live, rotten := Key(strings.Repeat("ab", 32)), Key(strings.Repeat("cd", 32))
	for _, k := range []Key{live, rotten} {
		if err := d.Put(ctx, k, []byte("segment payload")); err != nil {
			t.Fatal(err)
		}
	}
	corruptArtifact(t, d, rotten)
	if _, ok := d.Get(ctx, rotten); ok {
		t.Fatal("corrupt record served")
	}

	old := Key(strings.Repeat("ef", 32))
	seed := map[string]string{
		diskFileName(old):                    "RTDC2\nan old artifact file",
		diskFileName(Key("not a hex key")):   "RTDC2\nan old artifact file",
		diskFileName(old) + ".123456789.tmp": "a crashed writer's temp file",
		filepath.Join("stages", "old.art"):   "an old stage memo",
		filepath.Join("hints", "x00ff.art"):  "an old hint memo",
		"notes.txt":                          "an operator's file",
	}
	for name, body := range seed {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	reopened := mustOpen(t, dir, 1<<20)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	segs := 0
	for _, e := range ents {
		switch name := e.Name(); {
		case name == "notes.txt" && !e.IsDir():
		case name == quarantineDir && e.IsDir():
		case strings.HasSuffix(name, segExt) && !e.IsDir():
			segs++
		default:
			t.Errorf("Open left %q at the root", name)
		}
	}
	if segs == 0 {
		t.Error("Open removed the segments")
	}
	if got, err := os.ReadFile(filepath.Join(dir, "notes.txt")); err != nil || string(got) != seed["notes.txt"] {
		t.Errorf("notes.txt changed: %q %v", got, err)
	}
	if q := quarantined(t, dir); len(q) != 1 {
		t.Errorf("quarantine holds %v, want the one corrupt record", q)
	}
	if _, ok := reopened.Get(ctx, old); ok {
		t.Error("an old-layout artifact file was imported")
	}
	if got, ok := reopened.Get(ctx, live); !ok || string(got) != "segment payload" {
		t.Errorf("live record after the sweep: %q %v", got, ok)
	}
	if reopened.Stats().Entries != 1 {
		t.Errorf("%d entries after reopen, want the one live record", reopened.Stats().Entries)
	}
}

// TestDiskCacheTornTail: a crash mid-append leaves the newest segment
// ending inside its last record, or followed by bytes that are no
// record. A reopen serves every complete record byte-identically, never
// the torn one, and cuts the tail so the next Put lands where it began
// and survives another reopen.
func TestDiskCacheTornTail(t *testing.T) {
	cases := []struct {
		name string
		// tear damages the segment's tail after the record of last and
		// returns where the cut must fall and whether last survives.
		tear func(t *testing.T, d *Disk, last Key) (cut int64, lastLives bool)
	}{
		{"cut-inside-last-record", func(t *testing.T, d *Disk, last Key) (int64, bool) {
			_, off, size := recordAt(t, d, last)
			cutRecord(t, d, last, size/2)
			return off, false
		}},
		{"garbage-after-last-record", func(t *testing.T, d *Disk, last Key) (int64, bool) {
			path, off, size := recordAt(t, d, last)
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.Write([]byte("RTDC\x00 not a record header, then more junk")); err != nil {
				t.Fatal(err)
			}
			return off + size, true
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			dir := t.TempDir()
			d := mustOpen(t, dir, 1<<20)
			keys := make([]Key, 5)
			payloads := make([][]byte, 5)
			for i := range keys {
				keys[i] = Key(fmt.Sprintf("%064x", 0x7042+i))
				payloads[i] = bytes.Repeat([]byte{byte('a' + i)}, 500+i)
				if err := d.Put(ctx, keys[i], payloads[i]); err != nil {
					t.Fatal(err)
				}
			}
			last := keys[len(keys)-1]
			seg, _, _ := recordAt(t, d, last)
			cut, lastLives := tc.tear(t, d, last)

			re := mustOpen(t, dir, 1<<20)
			for i, k := range keys {
				got, ok := re.Get(ctx, k)
				if k == last && !lastLives {
					if ok {
						t.Fatalf("torn record served: %q", got)
					}
					continue
				}
				if !ok || !bytes.Equal(got, payloads[i]) {
					t.Fatalf("complete record %d after reopen: %q %v", i, got, ok)
				}
			}
			if info, err := os.Stat(seg); err != nil || info.Size() != cut {
				t.Fatalf("segment not cut at %d: %v %v", cut, info.Size(), err)
			}
			wantCorrupt := uint64(0)
			if !lastLives {
				wantCorrupt = 1 // the torn record's header survived: quarantined
			}
			if st := re.Stats(); st.Corrupt != wantCorrupt || st.Quarantined != wantCorrupt || st.ReadErrors != 0 {
				t.Fatalf("reopen stats %+v, want corrupt=quarantined=%d", st, wantCorrupt)
			}

			next, payload := Key(strings.Repeat("9", 64)), []byte("after the cut")
			if err := re.Put(ctx, next, payload); err != nil {
				t.Fatal(err)
			}
			if path, off, _ := recordAt(t, re, next); path != seg || off != cut {
				t.Fatalf("next Put at %s:%d, want %s:%d", path, off, seg, cut)
			}
			again := mustOpen(t, dir, 1<<20)
			if got, ok := again.Get(ctx, next); !ok || !bytes.Equal(got, payload) {
				t.Fatalf("record after the cut lost across reopen: %q %v", got, ok)
			}
			if got, ok := again.Get(ctx, keys[0]); !ok || !bytes.Equal(got, payloads[0]) {
				t.Fatalf("first record lost across the second reopen: %q %v", got, ok)
			}
		})
	}
}

// TestDiskCacheConcurrent: eight goroutines Put, Get and Scrub over 200
// keys under a budget that retires segments throughout. Every hit is the
// last payload Put for its key, nothing reads as corrupt, and a Get that
// races its segment's retirement is a miss, never a read error.
func TestDiskCacheConcurrent(t *testing.T) {
	const (
		workers = 8
		nkeys   = 200
		rounds  = 300
		budget  = 64 << 10
	)
	d := mustOpen(t, t.TempDir(), budget)
	key := func(i int) Key { return Key(fmt.Sprintf("%064x", 0xc0c0+i)) }
	payload := func(i, version int) []byte {
		return []byte(fmt.Sprintf("key %d version %d %s", i, version, strings.Repeat("p", 900+i)))
	}
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			rng := rand.New(rand.NewSource(int64(w)))
			version := map[int]int{} // this worker's keys: i%workers == w
			for r := 0; r < rounds; r++ {
				i := rng.Intn(nkeys/workers)*workers + w
				switch op := rng.Intn(10); {
				case op < 4:
					version[i]++
					if err := d.Put(ctx, key(i), payload(i, version[i])); err != nil {
						errs <- fmt.Sprintf("put %d: %v", i, err)
						return
					}
				case op < 9:
					got, ok := d.Get(ctx, key(i))
					if ok && !bytes.Equal(got, payload(i, version[i])) {
						errs <- fmt.Sprintf("key %d served %.40q, want version %d", i, got, version[i])
						return
					}
				default:
					if _, err := d.Scrub(ctx); err != nil {
						errs <- fmt.Sprintf("scrub: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	st := d.Stats()
	if st.Corrupt != 0 || st.ReadErrors != 0 || st.WriteErrors != 0 {
		t.Errorf("stats %+v, want no corrupt, read or write errors", st)
	}
	if st.Bytes > budget {
		t.Errorf("bytes %d over the %d budget", st.Bytes, budget)
	}
	d.mu.Lock()
	retired := int(d.nextSeq) - len(d.segs)
	d.mu.Unlock()
	if retired < 10 {
		t.Errorf("%d segments retired, want at least 10 (budget too loose for the test)", retired)
	}

	// The race made certain: a Get whose record's segment is retired
	// between its index lookup and its read — once evicted, once carried
	// over by its second chance — is a plain miss.
	ctx := context.Background()
	r := mustOpen(t, t.TempDir(), 3*210)
	pay := bytes.Repeat([]byte("p"), 100)
	evicted, carried := key(0), key(1)
	for _, k := range []Key{evicted, carried} {
		if err := r.Put(ctx, k, pay); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := r.Get(ctx, carried); !ok {
		t.Fatal("carried record missing")
	}
	r.mu.Lock()
	looked := []*diskEntry{r.items[evicted], r.items[carried]}
	r.mu.Unlock()
	for i := 2; i < 5; i++ { // each record fills a segment: retire both
		if err := r.Put(ctx, key(i), pay); err != nil {
			t.Fatal(err)
		}
	}
	for _, ent := range looked {
		if got, ok := r.serve(ctx, ent); ok {
			t.Errorf("read of a retired segment served %q", got)
		}
	}
	if got, ok := r.Get(ctx, carried); !ok || !bytes.Equal(got, pay) {
		t.Errorf("carried record after retirement: %q %v", got, ok)
	}
	if st := r.Stats(); st.ReadErrors != 0 || st.Corrupt != 0 || st.Evictions == 0 {
		t.Errorf("stats %+v, want retirement races to be plain misses", st)
	}
}

// TestDiskCacheBoundsTree: the byte bound covers every file under the
// root but the quarantine — live, superseded and dead records alike —
// and the occupancy Stats report is what a fresh reopen rebuilds.
func TestDiskCacheBoundsTree(t *testing.T) {
	const budget = 64 << 10
	ctx := context.Background()
	dir := t.TempDir()
	d := mustOpen(t, dir, budget)
	written := 0
	for i := 0; written < 10*budget; i++ {
		k := Key(fmt.Sprintf("%064x", i%150)) // some keys overwritten
		p := bytes.Repeat([]byte{byte(i)}, 700+i%300)
		if err := d.Put(ctx, k, p); err != nil {
			t.Fatal(err)
		}
		written += len(p)
		if i%3 == 0 {
			d.Get(ctx, Key(fmt.Sprintf("%064x", i/2%150))) // second chances
		}
	}
	var tree int64
	err := filepath.WalkDir(dir, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() && e.Name() == quarantineDir {
			return filepath.SkipDir
		}
		if !e.IsDir() {
			info, err := e.Info()
			if err != nil {
				return err
			}
			tree += info.Size()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if tree > budget || st.Bytes != tree {
		t.Fatalf("tree holds %d bytes, stats %d, budget %d", tree, st.Bytes, budget)
	}
	if st.Evictions == 0 {
		t.Fatalf("nothing evicted after writing 10x the budget: %+v", st)
	}
	re := mustOpen(t, dir, budget).Stats()
	if re.Entries != st.Entries || re.Bytes != st.Bytes {
		t.Fatalf("reopen rebuilt entries=%d bytes=%d, want %d and %d", re.Entries, re.Bytes, st.Entries, st.Bytes)
	}
}

// benchPayload is an artifact-sized payload for the disk benchmarks.
var benchPayload = bytes.Repeat([]byte("v"), 100<<10)

// reportFiles reports the directory entries each operation created at
// the root, net: exact while nothing is evicted (as at -benchtime=1x).
func reportFiles(b *testing.B, dir string, before int) {
	b.ReportMetric(float64(countEntries(b, dir)-before)/float64(b.N), "files/op")
}

func countEntries(b *testing.B, dir string) int {
	ents, err := os.ReadDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	return len(ents)
}

// BenchmarkDiskPut persists one 100 KB artifact under a new key per op.
func BenchmarkDiskPut(b *testing.B) {
	ctx := context.Background()
	dir := b.TempDir()
	d, err := OpenDisk(dir, 0)
	if err != nil {
		b.Fatal(err)
	}
	if err := d.Put(ctx, Key(fmt.Sprintf("%064x", 1<<40)), benchPayload); err != nil {
		b.Fatal(err)
	}
	before := countEntries(b, dir)
	b.SetBytes(int64(len(benchPayload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Put(ctx, Key(fmt.Sprintf("%064x", i)), benchPayload); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportFiles(b, dir, before)
}

// BenchmarkDiskGet serves one persisted 100 KB artifact per op.
func BenchmarkDiskGet(b *testing.B) {
	ctx := context.Background()
	dir := b.TempDir()
	d, err := OpenDisk(dir, 0)
	if err != nil {
		b.Fatal(err)
	}
	key := Key(strings.Repeat("ab", 32))
	if err := d.Put(ctx, key, benchPayload); err != nil {
		b.Fatal(err)
	}
	before := countEntries(b, dir)
	b.SetBytes(int64(len(benchPayload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := d.Get(ctx, key); !ok {
			b.Fatal("persisted artifact missing")
		}
	}
	b.StopTimer()
	reportFiles(b, dir, before)
}
