// Scrub is the background integrity walk over the persistent disk
// cache: every live record is read back and verified (magic, lengths,
// embedded key, SHA-256 payload checksum), and anything that fails is
// quarantined exactly like a corrupt Get — copied into DIR/quarantine/,
// marked dead in its segment, counted, never served again. The walk
// throttles itself to a fixed byte rate so a multi-gigabyte
// store can be scrubbed on a live server without starving request I/O.
package cache

import (
	"context"
	"time"
)

// scrubBytesPerSec is the I/O throttle of a Scrub walk: 32 MiB/s, slow enough to stay out of the
// request path's way, fast enough to cover the default 256 MiB store
// in under ten seconds.
const scrubBytesPerSec = 32 << 20

// ScrubReport summarizes one Scrub walk.
type ScrubReport struct {
	// Scanned counts entries whose frames were verified (including the
	// ones that failed); Corrupt counts the failures, all of which were
	// quarantined or removed.
	Scanned, Corrupt int
	// Bytes is the total artifact bytes read.
	Bytes int64
	// Elapsed is the wall-clock duration of the walk.
	Elapsed time.Duration
}

// Scrub verifies every live record at a bounded I/O rate
// (scrubBytesPerSec), oldest segment first. Corrupt
// records are quarantined and dropped from the index; intact ones keep
// their second-chance mark (a scrub is maintenance, not use). The walk
// snapshots the live set once and reads each record outside the cache
// lock, so concurrent Gets and Puts proceed throughout; records added,
// moved or evicted during the walk are simply not (re)visited.
// Cancellation via ctx stops the walk between records and returns the
// partial report with ctx.Err().
func (d *Disk) Scrub(ctx context.Context) (ScrubReport, error) {
	start := time.Now()

	d.mu.Lock()
	d.scrubRuns++
	live := make([]*diskEntry, 0, len(d.items))
	for _, seg := range d.segs {
		for _, ent := range seg.recs {
			if d.items[ent.key] == ent {
				live = append(live, ent)
			}
		}
	}
	d.mu.Unlock()

	var rep ScrubReport
	for _, ent := range live {
		if err := ctx.Err(); err != nil {
			rep.Elapsed = time.Since(start)
			return rep, err
		}
		n, bad := d.scrubOne(ctx, ent)
		rep.Scanned++
		rep.Bytes += n
		if bad {
			rep.Corrupt++
		}
		// Throttle: sleep off the time this record's bytes "cost" at the
		// scrub rate, minus what has already elapsed naturally.
		if budget := time.Duration(float64(rep.Bytes) / scrubBytesPerSec * float64(time.Second)); budget > time.Since(start) {
			select {
			case <-time.After(budget - time.Since(start)):
			case <-ctx.Done():
				rep.Elapsed = time.Since(start)
				return rep, ctx.Err()
			}
		}
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// scrubOne verifies a single record, quarantining it on decode failure.
// Returns the bytes read and whether the record was corrupt. A record
// no longer live when its read completes is skipped (zero bytes, not
// corrupt); an unreadable one is dropped like Get drops it.
func (d *Disk) scrubOne(ctx context.Context, ent *diskEntry) (int64, bool) {
	raw, _, ioErr, badErr := load(ctx, ent)
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.items[ent.key] != ent {
		return 0, false
	}
	d.scrubScanned++
	switch {
	case ioErr != nil:
		delete(d.items, ent.key)
		d.readErrors++
		return 0, true
	case badErr != nil:
		d.quarantineLocked(ent, raw)
		return int64(len(raw)), true
	}
	return int64(len(raw)), false
}
