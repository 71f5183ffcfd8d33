package profiling

import (
	"fmt"
	"sync"
	"sync/atomic"

	"iscope/internal/units"
)

// Record is a copy of one chip's scan state in the profile database.
type Record struct {
	// MinVdd[l] is the lowest voltage that passed at level l in the most
	// recent scan; zero when the level has never been profiled.
	MinVdd []units.Volts
	// Measured[l] reports whether level l has ever been profiled.
	Measured []bool
	// LastScan is the simulated time of the most recent completed scan.
	LastScan units.Seconds
	// Scans counts completed scans of this chip.
	Scans int
}

// DB is the scanner's database (Section III.C: "The scanning data is
// reported back to the scheduler and stored into its database"). It is
// safe for concurrent use: profiling domains scan in parallel while the
// scheduler reads.
//
// Each fact is stored once, in flat per-chip arrays; Record is only the
// copy Snapshot, Records and RestoreRecords exchange.
type DB struct {
	mu sync.RWMutex
	// minVdd and measured hold every chip's MinVdd and Measured, chip
	// by chip (levels entries each), so the DB's allocation count does
	// not grow with the fleet and ReadTables hands both out in place.
	minVdd   []units.Volts
	measured []bool
	scans    []scanStamp
	levels   int
	// version counts completed writes. Readers that keep derived caches
	// (ScanKnowledge's voltage table) compare it against the version
	// they cached at, so the steady-state read path costs one atomic
	// load instead of an RWMutex round trip per lookup.
	version atomic.Uint64
}

// scanStamp is a chip's Record.LastScan and Record.Scans.
type scanStamp struct {
	last units.Seconds
	n    int
}

// NewDB creates an empty database for n chips and the given number of
// DVFS levels.
func NewDB(n, levels int) *DB {
	return &DB{
		minVdd:   make([]units.Volts, n*levels),
		measured: make([]bool, n*levels),
		scans:    make([]scanStamp, n),
		levels:   levels,
	}
}

// NumChips returns the fleet size the DB tracks.
func (db *DB) NumChips() int { return len(db.scans) }

// Update stores a completed scan of chip id.
func (db *DB) Update(id int, minVdd []units.Volts, now units.Seconds) error {
	if id < 0 || id >= len(db.scans) {
		return fmt.Errorf("profiling: chip id %d out of range", id)
	}
	if len(minVdd) != db.levels {
		return fmt.Errorf("profiling: got %d levels, want %d", len(minVdd), db.levels)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	lo := id * db.levels
	for l, v := range minVdd {
		if v > 0 {
			db.minVdd[lo+l] = v
			db.measured[lo+l] = true
		}
	}
	db.scans[id].last = now
	db.scans[id].n++
	db.version.Add(1)
	return nil
}

// Version returns the database's write counter. A derived cache built
// at version v is current as long as Version still returns v.
func (db *DB) Version() uint64 { return db.version.Load() }

// ReadTables calls fn with the flattened (chip × level) MinVdd and
// Measured arrays, NumChips()*levels entries each, under the read
// lock: one locked pass replaces per-lookup locking for readers that
// cache. fn must not keep or modify the arrays.
func (db *DB) ReadTables(fn func(minVdd []units.Volts, measured []bool)) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	fn(db.minVdd, db.measured)
}

// Lookup returns the measured MinVdd of chip id at level l and whether
// that level has been profiled.
func (db *DB) Lookup(id, l int) (units.Volts, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	i := id*db.levels + l
	return db.minVdd[i], db.measured[i]
}

// record copies chip id's state out; the caller holds the lock.
func (db *DB) record(id int) Record {
	lo, hi := id*db.levels, (id+1)*db.levels
	return Record{
		MinVdd:   append([]units.Volts(nil), db.minVdd[lo:hi]...),
		Measured: append([]bool(nil), db.measured[lo:hi]...),
		LastScan: db.scans[id].last,
		Scans:    db.scans[id].n,
	}
}

// Snapshot returns a copy of chip id's record.
func (db *DB) Snapshot(id int) Record {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.record(id)
}

// Records returns a deep copy of every record, for checkpointing.
func (db *DB) Records() []Record {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]Record, len(db.scans))
	for i := range out {
		out[i] = db.record(i)
	}
	return out
}

// RestoreRecords overlays checkpointed records onto the database. The
// snapshot must match the database's shape.
func (db *DB) RestoreRecords(recs []Record) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if len(recs) != len(db.scans) {
		return fmt.Errorf("profiling: snapshot has %d records, DB has %d", len(recs), len(db.scans))
	}
	for i, r := range recs {
		if len(r.MinVdd) != db.levels || len(r.Measured) != db.levels {
			return fmt.Errorf("profiling: record %d has %d/%d levels, want %d", i, len(r.MinVdd), len(r.Measured), db.levels)
		}
	}
	for i, r := range recs {
		copy(db.minVdd[i*db.levels:], r.MinVdd)
		copy(db.measured[i*db.levels:], r.Measured)
		db.scans[i] = scanStamp{last: r.LastScan, n: r.Scans}
	}
	db.version.Add(1)
	return nil
}

// FullyProfiled reports whether every level of chip id has been scanned.
func (db *DB) FullyProfiled(id int) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, m := range db.measured[id*db.levels : (id+1)*db.levels] {
		if !m {
			return false
		}
	}
	return true
}
