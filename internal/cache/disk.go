// Disk is the persistent second-level artifact cache behind the
// in-memory LRU: an append-only log of checksummed records keyed by the
// same schema as the in-memory tier (cache.Key — canonical IR hash +
// config fingerprint), bounded by the bytes of the whole tree, and
// durable across process restarts.
//
// Layout: the cache root holds numbered segment files (NNNNNNNN.seg).
// Put appends one RTDC3 record to the newest segment with a single
// positioned write; Get is one positioned read of the record the
// in-memory index points at. Nothing is memory-mapped, so the log's
// pages never count against the process's resident set.
//
// Durability contract:
//
//   - A record is indexed only after its bytes are written, and records
//     carry explicit lengths, so OpenDisk rebuilds the index from the
//     record headers alone. A crash mid-append leaves a torn tail in the
//     newest segment: Open cuts it (a torn record whose header survived
//     is first copied into DIR/quarantine/), and the next Put lands
//     after the cut. A later record for a key supersedes an earlier one.
//   - Reads verify the record's magic, lengths, embedded key and SHA-256
//     payload checksum before serving a byte, outside the index lock, so
//     a corrupt, truncated, or foreign record is reported as a miss,
//     never served as a wrong answer.
//   - Corrupt records self-heal: a failed decode copies the record into
//     DIR/quarantine/ (preserved for postmortem, capped in count), marks
//     it dead in its segment so a reopen skips it, and drops it from the
//     index; the next compute repopulates the slot. Scrub walks the
//     whole store in the background at a bounded I/O rate and applies
//     the same policy.
//   - The byte bound covers every segment. Each segment holds at most a
//     constant fraction of it; when an append would cross the bound the
//     oldest segment is retired. Its live records that were served since
//     they were written get a second chance — they are re-appended to
//     the newest segment — and the rest are evicted. A reopen without
//     hit history retires oldest first, which is least recently
//     re-appended first.
//
// Open also sweeps what earlier one-file-per-artifact builds left at the
// root (their *.art files and temp files, and the old stages/ and hints/
// memo directories); it imports none of it and touches nothing else. A
// root belongs to one open Disk at a time, until its Close: two appending
// to the same segments would overwrite each other's records.
//
// Failure semantics match the rest of the cache tier: the disk cache is
// an optimization, so a read error degrades to a miss and a write error
// is reported to the caller to count, not to fail the compile that
// produced the artifact. Degraded artifacts are the caller's problem —
// the service tier never persists them, mirroring the in-memory keep
// predicate.
package cache

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"reticle/internal/faults"
	"reticle/internal/rerr"
)

// Fault points in the disk tier, for the chaos suites: an armed
// disk-read fault must degrade to a cache miss (the request still
// compiles), and an armed disk-write fault must not fail the compile
// that produced the artifact.
var (
	// FaultDiskRead fires at the top of Disk.Get, before the index lookup.
	FaultDiskRead = faults.Register("cache/disk-read", "disk cache read path: degrade to a miss")
	// FaultDiskWrite fires at the top of Disk.Put, before the append.
	FaultDiskWrite = faults.Register("cache/disk-write", "disk cache write path: drop the persist, keep the compile")
	// FaultDiskCorrupt fires after a successful record read, forcing the
	// decode to fail as if the bytes were corrupt on disk: the record must
	// be quarantined and the request must degrade to a miss.
	FaultDiskCorrupt = faults.Register("cache/disk-corrupt", "disk cache decode path: quarantine the entry, degrade to a miss")
)

// DefaultDiskBytes bounds the disk cache when OpenDisk is given a
// non-positive budget.
const DefaultDiskBytes int64 = 256 << 20

// maxSegmentBytes caps one segment; a segment is also at most an eighth
// of the bound, so retiring one frees a bounded share of the cache.
const maxSegmentBytes int64 = 8 << 20

// The record frame: magic, big-endian key length and payload length,
// key bytes, SHA-256 payload checksum, payload. A quarantined record's
// magic is overwritten with recDeadMagic, which keeps its lengths
// walkable but tells a reopen to skip it. Anything else where a header
// should start — an RTDC1/RTDC2 frame of an older build included — is
// not a record.
const (
	recMagic     = "RTDC3\n"
	recDeadMagic = "RTDC3-"
	recHeaderLen = len(recMagic) + 4 + 4
	recSumLen    = sha256.Size
)

// segExt names segment files: the decimal sequence number, oldest
// lowest, then segExt.
const segExt = ".seg"

// artExt is the suffix of an artifact file of the one-file-per-artifact
// layout; diskFileName keeps it for quarantine names.
const artExt = ".art"

// diskNamePattern is the full set of shapes diskFileName may produce: a
// raw lowercase-hex key, or an "x"-prefixed hex digest for everything
// else. Root files of this shape, and their temp files
// (legacyTempPattern), are what the old layout left; Open removes them.
var (
	diskNamePattern   = regexp.MustCompile(`^x?[0-9a-f]+\.art$`)
	legacyTempPattern = regexp.MustCompile(`^x?[0-9a-f]+\.art(\.[0-9]+)?\.tmp$`)
)

// legacyDirs are the memo directories of builds that persisted the stage
// and hint memos; nothing reads or bounds them now.
var legacyDirs = []string{"stages", "hints"}

// quarantineDir is the subdirectory (under the cache root) that corrupt
// records are copied into; maxQuarantine caps how many are preserved
// before the oldest are dropped, so a bit-rotting disk cannot grow the
// morgue without bound.
const (
	quarantineDir = "quarantine"
	maxQuarantine = 64
)

// DiskStats is a point-in-time snapshot of disk-cache counters, and the
// disk section of GET /stats on both service tiers. Entries, Bytes, and
// MaxBytes describe occupancy — Bytes is every segment byte, superseded
// and quarantined records included, so Bytes <= MaxBytes always; the
// uint64s count operations since Open (they do not survive restarts —
// only the artifacts do).
type DiskStats struct {
	Entries  int   `json:"entries"`
	Bytes    int64 `json:"bytes"`
	MaxBytes int64 `json:"max_bytes"`
	// Hits / Misses count Get outcomes.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Writes counts successful Puts; WriteErrors counts failed ones
	// (including injected cache/disk-write faults).
	Writes      uint64 `json:"writes"`
	WriteErrors uint64 `json:"write_errors"`
	// ReadErrors counts Gets that found an entry but could not serve it
	// (I/O error, corruption, injected fault); each also counts as a miss.
	ReadErrors uint64 `json:"read_errors"`
	// Evictions counts entries dropped by the byte bound.
	Evictions uint64 `json:"evictions"`
	// Corrupt counts records whose decode failed (bad magic, truncated
	// frame, checksum mismatch, foreign key) in Get or Scrub, or that Open
	// found torn; Quarantined counts the subset successfully copied into
	// DIR/quarantine/ (a copy can fail on a sick filesystem; the record
	// is dropped either way).
	Corrupt     uint64 `json:"disk_corrupt"`
	Quarantined uint64 `json:"disk_quarantined"`
	// ScrubRuns counts completed or cancelled Scrub walks; ScrubScanned
	// counts entries verified across all of them.
	ScrubRuns    uint64 `json:"scrub_runs"`
	ScrubScanned uint64 `json:"scrub_scanned"`
}

// segment is one append-only file of records.
type segment struct {
	seq  uint64
	f    *os.File // read and written positionally, never mapped
	size int64    // bytes appended; the file's length
	// recs lists the records indexed in this segment in offset order; a
	// record is live while Disk.items still points at it.
	recs []*diskEntry
}

// diskEntry locates one record. Every field but hit is fixed at
// creation, so a reader may use them outside the lock; a record that
// moves gets a new entry.
type diskEntry struct {
	key  Key
	seg  *segment
	off  int64
	size int64
	hit  bool // served since written: survives one retirement
}

// Disk is the persistent second-level cache. All methods are safe for
// concurrent use. Appends, segment rolls and retirements are serialized
// by wmu; the index and counters sit under mu, which no file I/O holds
// except the rare quarantine. Get and Scrub read and verify records
// outside both locks.
type Disk struct {
	root   string
	max    int64
	segMax int64

	wmu     sync.Mutex
	nextSeq uint64 // the next segment's number, under wmu
	closed  bool   // Close has run, under wmu: every Put fails

	mu    sync.Mutex
	bytes int64      // sum of segment sizes
	segs  []*segment // oldest first; the last takes appends
	items map[Key]*diskEntry

	hits, misses, writes, writeErrors, readErrors, evictions uint64
	corrupt, quarantined, scrubRuns, scrubScanned            uint64
	quarantineSeq                                            uint64
}

// OpenDisk opens (creating if needed) a disk cache rooted at dir,
// bounded to maxBytes (DefaultDiskBytes if <= 0). What an older layout
// left at the root is removed, the index is rebuilt from the segments'
// record headers (torn tails cut), and the byte bound is enforced before
// returning — so a cache shrunk between runs converges immediately.
func OpenDisk(dir string, maxBytes int64) (*Disk, error) {
	if dir == "" {
		return nil, fmt.Errorf("cache: disk root must be non-empty")
	}
	if maxBytes <= 0 {
		maxBytes = DefaultDiskBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: disk root: %w", err)
	}
	d := &Disk{
		root:   dir,
		max:    maxBytes,
		segMax: min(maxSegmentBytes, maxBytes/8),
		items:  make(map[Key]*diskEntry),
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("cache: disk scan: %w", err)
	}
	// Seed the quarantine sequence past anything a previous process left
	// behind, so new quarantine names never overwrite old evidence.
	if qents, err := os.ReadDir(filepath.Join(dir, quarantineDir)); err == nil {
		for _, de := range qents {
			var seq uint64
			if _, err := fmt.Sscanf(de.Name(), "%d.", &seq); err == nil && seq > d.quarantineSeq {
				d.quarantineSeq = seq
			}
		}
	}
	var seqs []uint64
	for _, de := range entries {
		name := de.Name()
		path := filepath.Join(dir, name)
		if de.IsDir() {
			if slices.Contains(legacyDirs, name) {
				os.RemoveAll(path)
			}
			continue
		}
		if diskNamePattern.MatchString(name) || legacyTempPattern.MatchString(name) {
			os.Remove(path)
			continue
		}
		if base, ok := strings.CutSuffix(name, segExt); ok {
			if seq, err := strconv.ParseUint(base, 10, 64); err == nil && segName(seq) == name {
				seqs = append(seqs, seq)
			}
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, seq := range seqs {
		if err := d.loadSegment(seq); err != nil {
			return nil, fmt.Errorf("cache: disk scan: %w", err)
		}
		d.nextSeq = seq + 1
	}
	d.wmu.Lock()
	defer d.wmu.Unlock()
	d.makeRoom(0)
	return d, nil
}

func segName(seq uint64) string { return fmt.Sprintf("%08d%s", seq, segExt) }

func (d *Disk) segPath(seq uint64) string { return filepath.Join(d.root, segName(seq)) }

// loadSegment walks one segment's record headers into the index. The
// walk stops at the first header that does not parse or at a record the
// file ends inside; a torn record with a readable key is quarantined,
// and the segment is cut there.
func (d *Disk) loadSegment(seq uint64) error {
	f, err := os.OpenFile(d.segPath(seq), os.O_RDWR, 0)
	if err != nil {
		return err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	seg := &segment{seq: seq, f: f}
	size := info.Size()
	var hdr [recHeaderLen]byte
	for seg.size < size {
		off := seg.size
		if _, err := f.ReadAt(hdr[:], off); err != nil {
			break
		}
		magic := string(hdr[:len(recMagic)])
		if magic != recMagic && magic != recDeadMagic {
			break
		}
		klen := int64(binary.BigEndian.Uint32(hdr[len(recMagic):]))
		plen := int64(binary.BigEndian.Uint32(hdr[len(recMagic)+4:]))
		n := int64(recHeaderLen) + klen + recSumLen + plen
		key := make([]byte, min(klen, size-off-int64(recHeaderLen)))
		if _, err := f.ReadAt(key, off+int64(recHeaderLen)); err != nil {
			break
		}
		if off+n > size {
			if int64(len(key)) == klen && magic == recMagic {
				d.corrupt++
				raw := make([]byte, size-off)
				if _, err := f.ReadAt(raw, off); err == nil && d.saveQuarantine(Key(key), raw) {
					d.quarantined++
				}
			}
			break
		}
		if magic == recDeadMagic {
			delete(d.items, Key(key))
		} else {
			ent := &diskEntry{key: Key(key), seg: seg, off: off, size: n}
			d.items[ent.key] = ent
			seg.recs = append(seg.recs, ent)
		}
		seg.size += n
	}
	if seg.size < size {
		if err := f.Truncate(seg.size); err != nil {
			f.Close()
			return err
		}
	}
	d.segs = append(d.segs, seg)
	d.bytes += seg.size
	return nil
}

// diskFileName derives a per-key file name: the name an artifact had
// under the one-file-per-artifact layout, and the suffix of its
// quarantine copies. Real keys are lowercase-hex SHA-256 strings and
// keep their own name (readable for operators); anything else —
// arbitrary bytes, path fragments, the empty string — is replaced by
// the hex SHA-256 of the key, prefixed "x" so the two classes can never
// collide (hex names never start with "x"). Either way the result is a
// single path component of hex characters: it cannot escape the cache
// root, and distinct keys map to distinct names.
func diskFileName(key Key) string {
	s := string(key)
	if n := len(s); n >= 8 && n <= 128 && isLowerHex(s) {
		return s + artExt
	}
	sum := sha256.Sum256([]byte(s))
	return "x" + hex.EncodeToString(sum[:]) + artExt
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// encodeRecord frames an artifact as one RTDC3 record.
func encodeRecord(key Key, data []byte) []byte {
	sum := sha256.Sum256(data)
	buf := make([]byte, 0, recHeaderLen+len(key)+recSumLen+len(data))
	buf = append(buf, recMagic...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(key)))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(data)))
	buf = append(buf, key...)
	buf = append(buf, sum[:]...)
	return append(buf, data...)
}

// decodeRecord verifies a record read back for key — magic, lengths
// against the bytes read, embedded key, payload checksum — and returns
// its payload.
func decodeRecord(key Key, raw []byte) ([]byte, error) {
	if len(raw) < recHeaderLen || string(raw[:len(recMagic)]) != recMagic {
		return nil, fmt.Errorf("cache: disk record has no header")
	}
	klen := int64(binary.BigEndian.Uint32(raw[len(recMagic):]))
	plen := int64(binary.BigEndian.Uint32(raw[len(recMagic)+4:]))
	if int64(recHeaderLen)+klen+recSumLen+plen != int64(len(raw)) {
		return nil, fmt.Errorf("cache: disk record is truncated")
	}
	rest := raw[recHeaderLen:]
	if string(rest[:klen]) != string(key) {
		return nil, fmt.Errorf("cache: disk record keyed for another artifact")
	}
	want, payload := rest[klen:klen+recSumLen], rest[klen+recSumLen:]
	if got := sha256.Sum256(payload); string(got[:]) != string(want) {
		return nil, fmt.Errorf("cache: disk record checksum mismatch")
	}
	return payload, nil
}

// readRecord is one positioned read of ent's record. A segment that
// ends inside the record yields the bytes that are there, for
// decodeRecord to reject; any other failure — a segment closed by a
// racing retirement included — is an I/O error.
func readRecord(ent *diskEntry) ([]byte, error) {
	raw := make([]byte, ent.size)
	n, err := ent.seg.f.ReadAt(raw, ent.off)
	if errors.Is(err, io.EOF) {
		return raw[:n], nil
	}
	return raw, err
}

// load reads and verifies ent's record outside the locks, reporting an
// I/O failure and a failed verification (injected or real) apart.
func load(ctx context.Context, ent *diskEntry) (raw, payload []byte, ioErr, badErr error) {
	raw, ioErr = readRecord(ent)
	if ioErr != nil {
		return nil, nil, ioErr, nil
	}
	if badErr = FaultDiskCorrupt.Fire(ctx); badErr != nil {
		return raw, nil, nil, badErr
	}
	payload, badErr = decodeRecord(ent.key, raw)
	return raw, payload, nil, badErr
}

// Get returns the persisted artifact bytes for key, if present and
// intact. A read failure (I/O error, corruption, injected fault) drops
// the entry and reports a miss: the disk tier degrades, it never fails
// a request. A Get that loses its record to a concurrent retirement or
// overwrite is a plain miss. A hit marks the record for a second chance
// at its segment's retirement.
func (d *Disk) Get(ctx context.Context, key Key) ([]byte, bool) {
	if err := FaultDiskRead.Fire(ctx); err != nil {
		d.mu.Lock()
		d.readErrors++
		d.misses++
		d.mu.Unlock()
		return nil, false
	}
	d.mu.Lock()
	ent, ok := d.items[key]
	if !ok {
		d.misses++
	}
	d.mu.Unlock()
	if !ok {
		return nil, false
	}
	return d.serve(ctx, ent)
}

// serve is Get past its index lookup: read and verify ent's record
// outside the lock, then settle the outcome against the index as it is
// now. Only a record still indexed is dropped or quarantined for a
// failed read; one retired or replaced meanwhile is a plain miss.
func (d *Disk) serve(ctx context.Context, ent *diskEntry) ([]byte, bool) {
	raw, payload, ioErr, badErr := load(ctx, ent)

	d.mu.Lock()
	defer d.mu.Unlock()
	current := d.items[ent.key] == ent
	if ioErr != nil || badErr != nil {
		d.misses++
		if current {
			d.readErrors++
			if badErr != nil {
				// Corrupt, truncated, or foreign: quarantine for postmortem;
				// the next compute repopulates the slot.
				d.quarantineLocked(ent, raw)
			} else {
				// Unreadable: nothing worth preserving arrived.
				delete(d.items, ent.key)
			}
		}
		return nil, false
	}
	if current {
		ent.hit = true
	}
	d.hits++
	return payload, true
}

// quarantineLocked drops ent from the index, marks its record dead in
// the segment so a reopen skips it, and copies the bytes read into
// DIR/quarantine/.
func (d *Disk) quarantineLocked(ent *diskEntry, raw []byte) {
	delete(d.items, ent.key)
	d.corrupt++
	ent.seg.f.WriteAt([]byte(recDeadMagic), ent.off) // best-effort
	if d.saveQuarantine(ent.key, raw) {
		d.quarantined++
	}
}

// saveQuarantine writes raw into DIR/quarantine/ under a
// sequence-prefixed name (so repeated corruption of the same key never
// clobbers earlier evidence) and caps the directory at maxQuarantine
// files, oldest dropped first. It reports whether the copy was written.
func (d *Disk) saveQuarantine(key Key, raw []byte) bool {
	qdir := filepath.Join(d.root, quarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return false
	}
	d.quarantineSeq++
	dst := filepath.Join(qdir, fmt.Sprintf("%06d.%s", d.quarantineSeq, diskFileName(key)))
	if err := os.WriteFile(dst, raw, 0o644); err != nil {
		return false
	}
	d.trimQuarantine(qdir)
	return true
}

// trimQuarantine drops the oldest quarantined files (by name — the
// sequence prefix sorts chronologically within a process, and lexical
// order is a fine tiebreak across restarts) until at most maxQuarantine
// remain.
func (d *Disk) trimQuarantine(qdir string) {
	entries, err := os.ReadDir(qdir)
	if err != nil || len(entries) <= maxQuarantine {
		return
	}
	names := make([]string, 0, len(entries))
	for _, de := range entries {
		if !de.IsDir() {
			names = append(names, de.Name())
		}
	}
	sort.Strings(names)
	for len(names) > maxQuarantine {
		os.Remove(filepath.Join(qdir, names[0]))
		names = names[1:]
	}
}

// Put persists data under key: one RTDC3 record appended to the newest
// segment with a single positioned write, indexed once written. Framing
// and checksumming happen before the append lock; the index lock is held
// only to publish the record. The returned error is advisory — callers
// count it and move on; the artifact they are about to serve is already
// in memory.
func (d *Disk) Put(ctx context.Context, key Key, data []byte) error {
	if err := FaultDiskWrite.Fire(ctx); err != nil {
		return d.failPut(err)
	}
	rec := encodeRecord(key, data)
	d.wmu.Lock()
	defer d.wmu.Unlock()
	if d.closed {
		return d.failPut(os.ErrClosed)
	}
	if int64(len(rec)) > d.max {
		// It could never fit: written and at once evicted by the bound.
		d.mu.Lock()
		d.writes++
		d.evictions++
		d.mu.Unlock()
		return nil
	}
	d.makeRoom(int64(len(rec)))
	ent, err := d.append(key, rec)
	if err != nil {
		return d.failPut(err)
	}
	d.mu.Lock()
	d.items[key] = ent
	d.writes++
	d.mu.Unlock()
	return nil
}

// failPut counts a write failure and types the error.
func (d *Disk) failPut(err error) error {
	d.mu.Lock()
	d.writeErrors++
	d.mu.Unlock()
	return rerr.Wrap(rerr.Transient, "disk_cache_write", "disk cache write failed", err)
}

// append writes rec at the end of the newest segment, rolling to a new
// one when rec would push it past segMax, and returns the record's
// unpublished entry. The caller holds wmu and has made room.
func (d *Disk) append(key Key, rec []byte) (*diskEntry, error) {
	n := int64(len(rec))
	d.mu.Lock()
	var seg *segment
	if len(d.segs) > 0 {
		seg = d.segs[len(d.segs)-1]
	}
	d.mu.Unlock()
	if seg == nil || (seg.size > 0 && seg.size+n > d.segMax) {
		f, err := os.OpenFile(d.segPath(d.nextSeq), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
		if err != nil {
			return nil, err
		}
		seg = &segment{seq: d.nextSeq, f: f}
		d.nextSeq++
		d.mu.Lock()
		d.segs = append(d.segs, seg)
		d.mu.Unlock()
	}
	if _, err := seg.f.WriteAt(rec, seg.size); err != nil {
		seg.f.Truncate(seg.size) // best-effort: a reopen would cut it anyway
		return nil, err
	}
	ent := &diskEntry{key: key, seg: seg, off: seg.size, size: n}
	d.mu.Lock()
	seg.size += n
	d.bytes += n
	seg.recs = append(seg.recs, ent)
	d.mu.Unlock()
	return ent, nil
}

// makeRoom retires oldest segments until n more bytes fit the bound.
// The caller holds wmu.
func (d *Disk) makeRoom(n int64) {
	for {
		d.mu.Lock()
		if d.bytes+n <= d.max || len(d.segs) == 0 {
			d.mu.Unlock()
			return
		}
		old := d.segs[0]
		d.segs = d.segs[1:]
		d.bytes -= old.size
		var keep []*diskEntry
		for _, ent := range old.recs {
			switch {
			case d.items[ent.key] != ent:
			case ent.hit:
				keep = append(keep, ent)
			default:
				delete(d.items, ent.key)
				d.evictions++
			}
		}
		d.mu.Unlock()
		d.retire(old, keep)
	}
}

// retire re-appends old's kept records (a second chance; each comes
// back unmarked, so a record is carried at most once without a new hit)
// and removes the segment. A record that cannot be copied, or that a
// concurrent Get dropped meanwhile, is not carried over. The bytes kept
// are at most what old held, so carrying them never crosses the bound.
func (d *Disk) retire(old *segment, keep []*diskEntry) {
	for _, ent := range keep {
		var moved *diskEntry
		raw, err := readRecord(ent)
		if err == nil && int64(len(raw)) == ent.size {
			moved, _ = d.append(ent.key, raw)
		}
		d.mu.Lock()
		if d.items[ent.key] == ent {
			if moved != nil {
				d.items[ent.key] = moved
			} else {
				delete(d.items, ent.key)
				d.evictions++
			}
		}
		d.mu.Unlock()
	}
	old.f.Close()
	os.Remove(d.segPath(old.seq))
}

// Close releases the segment files once no append is in progress. Every
// later Put fails and is counted a write error, and every later read is an
// I/O error: a miss that quarantines nothing. What was written before
// Close is all there for the next OpenDisk. Closing twice is harmless.
func (d *Disk) Close() error {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	var errs []error
	for _, seg := range d.segs {
		errs = append(errs, seg.f.Close())
	}
	return errors.Join(errs...)
}

// Stats snapshots the counters.
func (d *Disk) Stats() DiskStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return DiskStats{
		Entries:      len(d.items),
		Bytes:        d.bytes,
		MaxBytes:     d.max,
		Hits:         d.hits,
		Misses:       d.misses,
		Writes:       d.writes,
		WriteErrors:  d.writeErrors,
		ReadErrors:   d.readErrors,
		Evictions:    d.evictions,
		Corrupt:      d.corrupt,
		Quarantined:  d.quarantined,
		ScrubRuns:    d.scrubRuns,
		ScrubScanned: d.scrubScanned,
	}
}
