package profiling

import (
	"fmt"
	"sync"
	"sync/atomic"

	"iscope/internal/units"
)

// Record is one chip's scan state in the profile database.
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
type DB struct {
	mu   sync.RWMutex
	recs []Record
	// minVdd and measured back every record's MinVdd and Measured, chip
	// by chip (levels entries each), so the DB's allocation count does
	// not grow with the fleet and CopyTables is two copies.
	minVdd   []units.Volts
	measured []bool
	levels   int
	// version counts completed writes. Readers that keep derived caches
	// (ScanKnowledge's voltage table) compare it against the version
	// they cached at, so the steady-state read path costs one atomic
	// load instead of an RWMutex round trip per lookup.
	version atomic.Uint64
}

// NewDB creates an empty database for n chips and the given number of
// DVFS levels.
func NewDB(n, levels int) *DB {
	db := &DB{
		recs:     make([]Record, n),
		minVdd:   make([]units.Volts, n*levels),
		measured: make([]bool, n*levels),
		levels:   levels,
	}
	for i := range db.recs {
		lo, hi := i*levels, (i+1)*levels
		db.recs[i] = Record{
			MinVdd:   db.minVdd[lo:hi:hi],
			Measured: db.measured[lo:hi:hi],
		}
	}
	return db
}

// NumChips returns the fleet size the DB tracks.
func (db *DB) NumChips() int { return len(db.recs) }

// Update stores a completed scan of chip id.
func (db *DB) Update(id int, minVdd []units.Volts, now units.Seconds) error {
	if id < 0 || id >= len(db.recs) {
		return fmt.Errorf("profiling: chip id %d out of range", id)
	}
	if len(minVdd) != db.levels {
		return fmt.Errorf("profiling: got %d levels, want %d", len(minVdd), db.levels)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	r := &db.recs[id]
	for l, v := range minVdd {
		if v > 0 {
			r.MinVdd[l] = v
			r.Measured[l] = true
		}
	}
	r.LastScan = now
	r.Scans++
	db.version.Add(1)
	return nil
}

// Version returns the database's write counter. A derived cache built
// at version v is current as long as Version still returns v.
func (db *DB) Version() uint64 { return db.version.Load() }

// CopyTables copies the flattened (chip × level) MinVdd and Measured
// arrays into the caller's buffers, which must each hold
// NumChips()*levels entries. One locked bulk copy replaces per-lookup
// locking for readers that cache.
func (db *DB) CopyTables(minVdd []units.Volts, measured []bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	copy(minVdd, db.minVdd)
	copy(measured, db.measured)
}

// Lookup returns the measured MinVdd of chip id at level l and whether
// that level has been profiled.
func (db *DB) Lookup(id, l int) (units.Volts, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	r := &db.recs[id]
	return r.MinVdd[l], r.Measured[l]
}

// Snapshot returns a copy of chip id's record.
func (db *DB) Snapshot(id int) Record {
	db.mu.RLock()
	defer db.mu.RUnlock()
	r := db.recs[id]
	out := Record{
		MinVdd:   append([]units.Volts(nil), r.MinVdd...),
		Measured: append([]bool(nil), r.Measured...),
		LastScan: r.LastScan,
		Scans:    r.Scans,
	}
	return out
}

// Records returns a deep copy of every record, for checkpointing.
func (db *DB) Records() []Record {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]Record, len(db.recs))
	for i, r := range db.recs {
		out[i] = Record{
			MinVdd:   append([]units.Volts(nil), r.MinVdd...),
			Measured: append([]bool(nil), r.Measured...),
			LastScan: r.LastScan,
			Scans:    r.Scans,
		}
	}
	return out
}

// RestoreRecords overlays checkpointed records onto the database. The
// snapshot must match the database's shape.
func (db *DB) RestoreRecords(recs []Record) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if len(recs) != len(db.recs) {
		return fmt.Errorf("profiling: snapshot has %d records, DB has %d", len(recs), len(db.recs))
	}
	for i, r := range recs {
		if len(r.MinVdd) != db.levels || len(r.Measured) != db.levels {
			return fmt.Errorf("profiling: record %d has %d/%d levels, want %d", i, len(r.MinVdd), len(r.Measured), db.levels)
		}
	}
	for i, r := range recs {
		rec := &db.recs[i]
		copy(rec.MinVdd, r.MinVdd)
		copy(rec.Measured, r.Measured)
		rec.LastScan = r.LastScan
		rec.Scans = r.Scans
	}
	db.version.Add(1)
	return nil
}

// FullyProfiled reports whether every level of chip id has been scanned.
func (db *DB) FullyProfiled(id int) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, m := range db.recs[id].Measured {
		if !m {
			return false
		}
	}
	return true
}

// LeastRecentlyScanned returns up to k chip IDs ordered by scan
// staleness: never-scanned chips first (by ID), then oldest LastScan.
// This is how the scan planner "chooses a group of inadequately profiled
// processors" (Section III.C, stage 2).
func (db *DB) LeastRecentlyScanned(k int) []int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if k > len(db.recs) {
		k = len(db.recs)
	}
	// Selection by two passes keeps this O(n) for the common case where
	// unscanned chips fill the quota.
	out := make([]int, 0, k)
	for id := range db.recs {
		if db.recs[id].Scans == 0 {
			out = append(out, id)
			if len(out) == k {
				return out
			}
		}
	}
	type cand struct {
		id   int
		last units.Seconds
	}
	cands := make([]cand, 0, len(db.recs))
	for id := range db.recs {
		if db.recs[id].Scans > 0 {
			cands = append(cands, cand{id, db.recs[id].LastScan})
		}
	}
	for len(out) < k && len(cands) > 0 {
		best := 0
		for i := 1; i < len(cands); i++ {
			if cands[i].last < cands[best].last ||
				(cands[i].last == cands[best].last && cands[i].id < cands[best].id) {
				best = i
			}
		}
		out = append(out, cands[best].id)
		cands[best] = cands[len(cands)-1]
		cands = cands[:len(cands)-1]
	}
	return out
}
