// Disk is the persistent second-level artifact cache behind the
// in-memory LRU: a content-addressed directory of artifact files keyed
// by the same schema as the in-memory tier (cache.Key — canonical IR
// hash + config fingerprint), bounded by total bytes with LRU eviction,
// and durable across process restarts.
//
// Durability contract:
//
//   - Writes are atomic: each artifact is written to a temp file in the
//     cache root and renamed into place, so a crash mid-write can leave
//     a stray *.tmp (swept on the next Open) but never a truncated
//     artifact under a live name.
//   - Reads verify an embedded header (magic + full key) and a SHA-256
//     checksum of the payload before serving a byte, so a corrupt,
//     truncated, or foreign file is reported as a miss, never served as
//     a wrong answer.
//   - Corrupt entries self-heal: instead of tripping over the same bad
//     file forever, a failed decode atomically moves the file into
//     DIR/quarantine/ (preserved for postmortem, capped in count) and
//     the next compute repopulates the slot. Scrub walks the whole
//     store in the background at a bounded I/O rate and applies the
//     same policy.
//   - Recency survives restarts approximately: Get refreshes the file
//     mtime, and Open rebuilds the LRU in mtime order before enforcing
//     the byte bound.
//
// Failure semantics match the rest of the cache tier: the disk cache is
// an optimization, so a read error degrades to a miss and a write error
// is reported to the caller to count, not to fail the compile that
// produced the artifact. Degraded artifacts are the caller's problem —
// the service tier never persists them, mirroring the in-memory keep
// predicate.
package cache

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

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
	// FaultDiskWrite fires at the top of Disk.Put, before the temp write.
	FaultDiskWrite = faults.Register("cache/disk-write", "disk cache write path: drop the persist, keep the compile")
	// FaultDiskCorrupt fires after a successful file read, forcing the
	// decode to fail as if the bytes were corrupt on disk: the entry must
	// be quarantined and the request must degrade to a miss.
	FaultDiskCorrupt = faults.Register("cache/disk-corrupt", "disk cache decode path: quarantine the entry, degrade to a miss")
)

// DefaultDiskBytes bounds the disk cache when OpenDisk is given a
// non-positive budget.
const DefaultDiskBytes int64 = 256 << 20

// diskMagic heads every artifact file; a file without it (foreign,
// truncated, corrupt, or a checksum-less RTDC1 frame from a build that
// predates checksums) is quarantined on read instead of served. The
// frame embeds a SHA-256 payload checksum after the key.
const diskMagic = "RTDC2\n"

// diskSumLen is the length of the embedded payload checksum (SHA-256).
const diskSumLen = sha256.Size

// artExt is the artifact file suffix; everything else in the root is
// ignored (and *.tmp leftovers are swept on Open).
const artExt = ".art"

// quarantineDir is the subdirectory (under the cache root) that corrupt
// artifacts are moved into; maxQuarantine caps how many are preserved
// before the oldest are dropped, so a bit-rotting disk cannot grow the
// morgue without bound.
const (
	quarantineDir = "quarantine"
	maxQuarantine = 64
)

// DiskStats is a point-in-time snapshot of disk-cache counters, and the
// disk section of GET /stats on both service tiers. Entries, Bytes, and
// MaxBytes describe occupancy; the uint64s count operations since Open
// (they do not survive restarts — only the artifacts do).
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
	// Corrupt counts entries whose decode failed (bad magic, truncated
	// frame, checksum mismatch, foreign key) in Get or Scrub; Quarantined
	// counts the subset successfully moved into DIR/quarantine/ (a move
	// can fail on a sick filesystem, in which case the file is removed).
	Corrupt     uint64 `json:"disk_corrupt"`
	Quarantined uint64 `json:"disk_quarantined"`
	// ScrubRuns counts completed or cancelled Scrub walks; ScrubScanned
	// counts entries verified across all of them.
	ScrubRuns    uint64 `json:"scrub_runs"`
	ScrubScanned uint64 `json:"scrub_scanned"`
}

// diskEntry is one resident artifact file in the LRU index.
type diskEntry struct {
	name string // file name under root
	size int64
}

// Disk is the persistent second-level cache. All methods are safe for
// concurrent use. Put stages its temp file outside the index mutex
// (each writer gets a unique temp name, so staging needs no exclusion)
// and takes the lock only for the rename and index update; Get holds
// the lock across its read so eviction cannot race a served artifact.
type Disk struct {
	mu    sync.Mutex
	root  string
	max   int64
	bytes int64
	ll    *list.List // front = most recently used
	items map[string]*list.Element

	hits, misses, writes, writeErrors, readErrors, evictions uint64
	corrupt, quarantined, scrubRuns, scrubScanned            uint64
	quarantineSeq                                            uint64
}

// OpenDisk opens (creating if needed) a disk cache rooted at dir,
// bounded to maxBytes (DefaultDiskBytes if <= 0). Stray temp files from
// a crashed writer are removed, the LRU index is rebuilt from file
// mtimes (oldest least recent), and the byte bound is enforced before
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
		root:  dir,
		max:   maxBytes,
		ll:    list.New(),
		items: make(map[string]*list.Element),
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("cache: disk scan: %w", err)
	}
	type scanned struct {
		name  string
		size  int64
		mtime time.Time
	}
	var found []scanned
	for _, de := range entries {
		if de.IsDir() {
			continue
		}
		name := de.Name()
		if strings.HasSuffix(name, ".tmp") {
			// A crash between temp write and rename leaves these; they are
			// garbage by construction.
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if !strings.HasSuffix(name, artExt) {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		found = append(found, scanned{name: name, size: info.Size(), mtime: info.ModTime()})
	}
	// Oldest first, so the newest file ends at the LRU front. Ties break
	// by name so a rebuild is deterministic.
	sort.Slice(found, func(i, j int) bool {
		if !found[i].mtime.Equal(found[j].mtime) {
			return found[i].mtime.Before(found[j].mtime)
		}
		return found[i].name < found[j].name
	})
	for _, f := range found {
		d.items[f.name] = d.ll.PushFront(&diskEntry{name: f.name, size: f.size})
		d.bytes += f.size
	}
	d.evictLocked()
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
	return d, nil
}

// diskFileName derives the artifact file name for a key. Real keys are
// lowercase-hex SHA-256 strings and keep their own name (readable for
// operators); anything else — arbitrary bytes, path fragments, the
// empty string — is replaced by the hex SHA-256 of the key, prefixed
// "x" so the two classes can never collide (hex names never start with
// "x"). Either way the result is a single path component of hex
// characters: it cannot escape the cache root, and distinct keys map to
// distinct names. Get additionally verifies the full key embedded in
// the file, so even a hash collision surfaces as a miss, never as a
// wrong artifact.
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

// encodeDiskFile frames an artifact for disk: magic, big-endian key
// length, key bytes, SHA-256 payload checksum, payload.
func encodeDiskFile(key Key, data []byte) []byte {
	sum := sha256.Sum256(data)
	buf := make([]byte, 0, len(diskMagic)+4+len(key)+diskSumLen+len(data))
	buf = append(buf, diskMagic...)
	var klen [4]byte
	binary.BigEndian.PutUint32(klen[:], uint32(len(key)))
	buf = append(buf, klen[:]...)
	buf = append(buf, key...)
	buf = append(buf, sum[:]...)
	buf = append(buf, data...)
	return buf
}

// splitDiskFile parses a frame, returning the embedded key and the
// payload once its checksum has been verified.
func splitDiskFile(raw []byte) (Key, []byte, error) {
	if len(raw) < len(diskMagic)+4 || string(raw[:len(diskMagic)]) != diskMagic {
		return "", nil, fmt.Errorf("cache: disk file has no header")
	}
	rest := raw[len(diskMagic):]
	klen := int(binary.BigEndian.Uint32(rest[:4]))
	rest = rest[4:]
	if klen < 0 || klen > len(rest) {
		return "", nil, fmt.Errorf("cache: disk file has truncated key")
	}
	key := Key(rest[:klen])
	rest = rest[klen:]
	if len(rest) < diskSumLen {
		return "", nil, fmt.Errorf("cache: disk file has truncated checksum")
	}
	want := rest[:diskSumLen]
	payload := rest[diskSumLen:]
	if got := sha256.Sum256(payload); string(got[:]) != string(want) {
		return "", nil, fmt.Errorf("cache: disk file checksum mismatch")
	}
	return key, payload, nil
}

// decodeDiskFile verifies the frame, the payload checksum, and the
// embedded key, returning the payload.
func decodeDiskFile(key Key, raw []byte) ([]byte, error) {
	embedded, payload, err := splitDiskFile(raw)
	if err != nil {
		return nil, err
	}
	if string(embedded) != string(key) {
		return nil, fmt.Errorf("cache: disk file keyed for another artifact")
	}
	return payload, nil
}

// verifyDiskFile is the scrub-side decode: the key is not known up
// front, so the check is frame integrity (magic, lengths, checksum)
// plus name consistency — the embedded key must map back to the file
// name it was read from.
func verifyDiskFile(name string, raw []byte) error {
	key, _, err := splitDiskFile(raw)
	if err != nil {
		return err
	}
	if diskFileName(key) != name {
		return fmt.Errorf("cache: disk file keyed for another artifact")
	}
	return nil
}

// Get returns the persisted artifact bytes for key, if present and
// intact. A read failure (I/O error, corruption, injected fault) evicts
// the entry and reports a miss: the disk tier degrades, it never fails
// a request. A hit refreshes both the in-memory LRU position and the
// file mtime, so recency survives the next restart.
func (d *Disk) Get(ctx context.Context, key Key) ([]byte, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := FaultDiskRead.Fire(ctx); err != nil {
		d.readErrors++
		d.misses++
		return nil, false
	}
	name := diskFileName(key)
	el, ok := d.items[name]
	if !ok {
		d.misses++
		return nil, false
	}
	path := filepath.Join(d.root, name)
	raw, err := os.ReadFile(path)
	if err != nil {
		// Unreadable (I/O): drop it so the slot is reclaimed. There is
		// nothing worth preserving — the bytes never arrived.
		d.removeLocked(el)
		os.Remove(path)
		d.readErrors++
		d.misses++
		return nil, false
	}
	if ferr := FaultDiskCorrupt.Fire(ctx); ferr != nil {
		// Injected corruption: take the same path a checksum mismatch
		// would, including the quarantine move.
		d.quarantineLocked(el, name)
		d.readErrors++
		d.misses++
		return nil, false
	}
	data, err := decodeDiskFile(key, raw)
	if err != nil {
		// Corrupt, truncated, or foreign: quarantine for postmortem and
		// degrade to a miss; the next compute repopulates the slot.
		d.quarantineLocked(el, name)
		d.readErrors++
		d.misses++
		return nil, false
	}
	d.ll.MoveToFront(el)
	d.hits++
	now := time.Now()
	os.Chtimes(path, now, now) // best-effort recency persistence
	return data, true
}

// quarantineLocked removes el from the index and atomically moves its
// file into DIR/quarantine/ under a sequence-prefixed name (so repeated
// corruption of the same key never clobbers earlier evidence). If the
// move fails the file is removed instead — a corrupt entry must never
// stay live either way. The quarantine directory is capped at
// maxQuarantine files, oldest dropped first.
func (d *Disk) quarantineLocked(el *list.Element, name string) {
	d.removeLocked(el)
	d.corrupt++
	src := filepath.Join(d.root, name)
	qdir := filepath.Join(d.root, quarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		os.Remove(src)
		return
	}
	d.quarantineSeq++
	dst := filepath.Join(qdir, fmt.Sprintf("%06d.%s", d.quarantineSeq, name))
	if err := os.Rename(src, dst); err != nil {
		os.Remove(src)
		return
	}
	d.quarantined++
	d.trimQuarantineLocked(qdir)
}

// trimQuarantineLocked drops the oldest quarantined files (by name —
// the sequence prefix sorts chronologically within a process, and
// lexical order is a fine tiebreak across restarts) until at most
// maxQuarantine remain.
func (d *Disk) trimQuarantineLocked(qdir string) {
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

// Put persists data under key: temp write in the cache root, fsync-free
// rename into place, then LRU accounting and eviction. The temp write —
// the expensive part for a large artifact — happens outside the index
// lock; each writer stages to its own unique temp file, so concurrent
// Puts never clobber each other and Gets are never stalled behind a
// multi-megabyte write. The returned error is advisory — callers count
// it and move on; the artifact they are about to serve is already in
// memory.
func (d *Disk) Put(ctx context.Context, key Key, data []byte) error {
	if err := FaultDiskWrite.Fire(ctx); err != nil {
		return d.failPut(err)
	}
	name := diskFileName(key)
	path := filepath.Join(d.root, name)
	framed := encodeDiskFile(key, data)
	tmp, err := os.CreateTemp(d.root, name+".*.tmp")
	if err != nil {
		return d.failPut(err)
	}
	if _, err := tmp.Write(framed); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return d.failPut(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return d.failPut(err)
	}
	// CreateTemp opens 0600; artifacts are world-readable like before.
	os.Chmod(tmp.Name(), 0o644)

	d.mu.Lock()
	defer d.mu.Unlock()
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		d.writeErrors++
		return rerr.Wrap(rerr.Transient, "disk_cache_write", "disk cache write failed", err)
	}
	size := int64(len(framed))
	if el, ok := d.items[name]; ok {
		ent := el.Value.(*diskEntry)
		d.bytes += size - ent.size
		ent.size = size
		d.ll.MoveToFront(el)
	} else {
		d.items[name] = d.ll.PushFront(&diskEntry{name: name, size: size})
		d.bytes += size
	}
	d.writes++
	d.evictLocked()
	return nil
}

// failPut counts a write failure under the lock and types the error,
// for Put paths that run outside the index mutex.
func (d *Disk) failPut(err error) error {
	d.mu.Lock()
	d.writeErrors++
	d.mu.Unlock()
	return rerr.Wrap(rerr.Transient, "disk_cache_write", "disk cache write failed", err)
}

// evictLocked enforces the byte bound from the LRU tail.
func (d *Disk) evictLocked() {
	for d.bytes > d.max && d.ll.Len() > 0 {
		back := d.ll.Back()
		ent := back.Value.(*diskEntry)
		d.removeLocked(back)
		os.Remove(filepath.Join(d.root, ent.name))
		d.evictions++
	}
}

func (d *Disk) removeLocked(el *list.Element) {
	ent := el.Value.(*diskEntry)
	d.ll.Remove(el)
	delete(d.items, ent.name)
	d.bytes -= ent.size
}

// Len returns the number of resident artifacts.
func (d *Disk) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ll.Len()
}

// Stats snapshots the counters.
func (d *Disk) Stats() DiskStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return DiskStats{
		Entries:      d.ll.Len(),
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
