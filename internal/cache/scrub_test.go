package cache

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"reticle/internal/faults"
	"reticle/internal/rerr"
)

// corruptArtifact flips one bit in the payload region of key's record,
// leaving the header and embedded key intact — only the checksum can
// catch this.
func corruptArtifact(t *testing.T, d *Disk, key Key) {
	t.Helper()
	path, off, size := recordAt(t, d, key)
	// Header is magic + two lengths + key + checksum; flip a bit past it.
	at := int64(recHeaderLen + len(key) + recSumLen)
	if at >= size {
		t.Fatalf("record too short to corrupt: %d bytes", size)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, off+at); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x01
	if _, err := f.WriteAt(b, off+at); err != nil {
		t.Fatal(err)
	}
}

func quarantined(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(dir, quarantineDir))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range ents {
		names = append(names, de.Name())
	}
	return names
}

// TestDiskCacheChecksumBitFlip: a single flipped payload bit — header
// and key intact, so only the SHA-256 checksum can notice — must miss,
// quarantine the file, and leave the slot free for a clean re-Put.
func TestDiskCacheChecksumBitFlip(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	d := mustOpen(t, dir, 1<<20)
	key := Key(strings.Repeat("ab", 32))
	payload := []byte(`{"verilog":"module m; endmodule"}`)
	if err := d.Put(ctx, key, payload); err != nil {
		t.Fatal(err)
	}
	corruptArtifact(t, d, key)

	if _, ok := d.Get(ctx, key); ok {
		t.Fatal("bit-flipped artifact served as a hit")
	}
	if d.Len() != 0 {
		t.Fatalf("corrupt artifact still indexed: %d entries", d.Len())
	}
	q := quarantined(t, dir)
	if len(q) != 1 {
		t.Fatalf("quarantine holds %v, want exactly one file", q)
	}
	if !strings.HasSuffix(q[0], diskFileName(key)) {
		t.Fatalf("quarantined name %q does not reference the artifact", q[0])
	}
	st := d.Stats()
	if st.Corrupt != 1 || st.Quarantined != 1 || st.ReadErrors != 1 {
		t.Fatalf("counters %+v, want corrupt=1 quarantined=1 readErrors=1", st)
	}

	// The slot heals: a fresh Put round-trips.
	if err := d.Put(ctx, key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := d.Get(ctx, key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("healed slot did not round-trip: %q %v", got, ok)
	}
}

// TestDiskCacheTruncate: a truncated artifact (crash, torn disk) must
// quarantine, not serve a prefix of the payload.
func TestDiskCacheTruncate(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	d := mustOpen(t, dir, 1<<20)
	key := Key(strings.Repeat("cd", 32))
	if err := d.Put(ctx, key, bytes.Repeat([]byte("z"), 4096)); err != nil {
		t.Fatal(err)
	}
	cutRecord(t, d, key, 200)
	if _, ok := d.Get(ctx, key); ok {
		t.Fatal("truncated artifact served as a hit")
	}
	if got := quarantined(t, dir); len(got) != 1 {
		t.Fatalf("quarantine holds %v, want the truncated file", got)
	}
	if st := d.Stats(); st.Corrupt != 1 || st.Quarantined != 1 {
		t.Fatalf("counters %+v, want corrupt=1 quarantined=1", st)
	}
}

// TestDiskCacheLegacyV1Quarantined: an RTDC1 frame carries no checksum,
// so serving one would be the single unverified byte path in the disk
// tier. No build writes them, and Open imports no file of an older
// layout; one found where a record should be is a corrupt record like
// any other — a miss, quarantined, healed by the next Put — on the Get
// path and on the scrub path alike.
func TestDiskCacheLegacyV1Quarantined(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	payload := []byte(`{"asm":"legacy"}`)
	d := mustOpen(t, dir, 1<<20)
	writeV1 := func(key Key) {
		t.Helper()
		if err := d.Put(ctx, key, payload); err != nil {
			t.Fatal(err)
		}
		buf := []byte("RTDC1\n")
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(key)))
		buf = append(buf, key...)
		buf = append(buf, payload...)
		patchRecord(t, d, key, 0, buf)
	}
	read, scrubbed := Key(strings.Repeat("ef", 32)), Key(strings.Repeat("ab", 32))
	writeV1(read)
	writeV1(scrubbed)

	if got, ok := d.Get(ctx, read); ok {
		t.Fatalf("checksum-less v1 frame served: %q", got)
	}
	rep, err := d.Scrub(ctx, 0)
	if err != nil || rep.Scanned != 1 || rep.Corrupt != 1 {
		t.Fatalf("scrub over the remaining v1 frame: %+v, %v", rep, err)
	}
	if st := d.Stats(); st.Corrupt != 2 || st.Quarantined != 2 || st.Entries != 0 {
		t.Fatalf("v1 frames not quarantined: %+v", st)
	}
	if q := quarantined(t, dir); len(q) != 2 {
		t.Fatalf("quarantine holds %v, want both v1 records", q)
	}
	// The slot heals: the recompute's Put writes the checksummed frame.
	if err := d.Put(ctx, read, payload); err != nil {
		t.Fatal(err)
	}
	if got, ok := d.Get(ctx, read); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("healed slot not served: %q %v", got, ok)
	}
}

// TestDiskCacheScrub: a full walk finds every corrupt entry, leaves the
// intact ones served byte-identically, and counts what it did.
func TestDiskCacheScrub(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	d := mustOpen(t, dir, 1<<20)

	const n = 10
	keys := make([]Key, n)
	payloads := make([][]byte, n)
	for i := range keys {
		keys[i] = Key(fmt.Sprintf("%064x", 0xdead0000+i))
		payloads[i] = []byte(fmt.Sprintf(`{"artifact":%d,"pad":%q}`, i, strings.Repeat("x", 64*i)))
		if err := d.Put(ctx, keys[i], payloads[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt three: a bit flip, total garbage, and a truncation (of the
	// last record, the one a segment can end inside).
	corruptArtifact(t, d, keys[2])
	patchRecord(t, d, keys[5], 0, []byte("junk"))
	cutRecord(t, d, keys[n-1], 10)

	rep, err := d.Scrub(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scanned != n || rep.Corrupt != 3 {
		t.Fatalf("scrub report %+v, want scanned=%d corrupt=3", rep, n)
	}
	if q := quarantined(t, dir); len(q) != 3 {
		t.Fatalf("quarantine holds %d files, want 3: %v", len(q), q)
	}
	st := d.Stats()
	if st.Corrupt != 3 || st.Quarantined != 3 || st.ScrubRuns != 1 || st.ScrubScanned != uint64(n) {
		t.Fatalf("counters %+v", st)
	}
	for i, k := range keys {
		got, ok := d.Get(ctx, k)
		if i == 2 || i == 5 || i == n-1 {
			if ok {
				t.Fatalf("key %d: scrubbed-out artifact still served", i)
			}
			continue
		}
		if !ok || !bytes.Equal(got, payloads[i]) {
			t.Fatalf("key %d: intact artifact damaged by scrub: %q %v", i, got, ok)
		}
	}
}

// TestDiskCacheScrubCancel: a cancelled context stops the walk between
// files and surfaces the cause.
func TestDiskCacheScrubCancel(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, 1<<20)
	for i := 0; i < 4; i++ {
		if err := d.Put(context.Background(), Key(fmt.Sprintf("%064x", i)), []byte("p")); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := d.Scrub(ctx, 0); err != context.Canceled {
		t.Fatalf("cancelled scrub returned %v, want context.Canceled", err)
	}
	if st := d.Stats(); st.ScrubRuns != 1 {
		t.Fatalf("cancelled run not counted: %+v", st)
	}
}

// TestDiskCacheCorruptFault: the armed cache/disk-corrupt point forces
// the quarantine path on an otherwise-intact artifact, honoring the
// Times cap — the chaos harness contract for the new point.
func TestDiskCacheCorruptFault(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, 1<<20)
	key := Key(strings.Repeat("aa", 32))
	payload := []byte("payload")
	if err := d.Put(context.Background(), key, payload); err != nil {
		t.Fatal(err)
	}
	rctx := faults.WithPlan(context.Background(), faults.NewPlan(map[faults.Point]faults.Injection{
		FaultDiskCorrupt: {Class: rerr.Transient, Times: 1},
	}))
	if _, ok := d.Get(rctx, key); ok {
		t.Fatal("injected corruption still served a hit")
	}
	if got := quarantined(t, dir); len(got) != 1 {
		t.Fatalf("quarantine holds %v, want the faulted file", got)
	}
	// Past the Times cap the cache just misses (the entry is gone) and a
	// re-Put serves normally again.
	if err := d.Put(rctx, key, payload); err != nil {
		t.Fatal(err)
	}
	if got, ok := d.Get(rctx, key); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("fault sticky past Times cap: %q %v", got, ok)
	}
}

// TestDiskCacheQuarantineCap: the morgue is bounded — corrupting more
// than maxQuarantine entries keeps only the newest maxQuarantine files.
func TestDiskCacheQuarantineCap(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	d := mustOpen(t, dir, 1<<20)
	total := maxQuarantine + 5
	for i := 0; i < total; i++ {
		key := Key(fmt.Sprintf("%064x", 0xcafe0000+i))
		if err := d.Put(ctx, key, []byte("payload")); err != nil {
			t.Fatal(err)
		}
		corruptArtifact(t, d, key)
		if _, ok := d.Get(ctx, key); ok {
			t.Fatalf("corrupt artifact %d served", i)
		}
	}
	if got := quarantined(t, dir); len(got) != maxQuarantine {
		t.Fatalf("quarantine holds %d files, want the %d-file cap", len(got), maxQuarantine)
	}
	if st := d.Stats(); st.Corrupt != uint64(total) || st.Quarantined != uint64(total) {
		t.Fatalf("counters %+v, want corrupt=quarantined=%d", st, total)
	}
}

// TestDiskCacheQuarantineSeqSurvivesRestart: a reopened cache continues
// the quarantine numbering past what the previous process left, so new
// evidence never overwrites old.
func TestDiskCacheQuarantineSeqSurvivesRestart(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	d := mustOpen(t, dir, 1<<20)
	k1 := Key(strings.Repeat("ab", 32))
	if err := d.Put(ctx, k1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	corruptArtifact(t, d, k1)
	d.Get(ctx, k1)

	reopened := mustOpen(t, dir, 1<<20)
	if err := reopened.Put(ctx, k1, []byte("two")); err != nil {
		t.Fatal(err)
	}
	corruptArtifact(t, reopened, k1)
	reopened.Get(ctx, k1)

	q := quarantined(t, dir)
	if len(q) != 2 {
		t.Fatalf("restart clobbered quarantine evidence: %v", q)
	}
}
