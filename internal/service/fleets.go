package service

import (
	"sync"

	"iscope/internal/scheduler"
)

// fleetKey names a fleet by a TenantSpec's only fleet inputs.
type fleetKey struct {
	seed  uint64
	procs int
}

func specFleetKey(spec *TenantSpec) fleetKey {
	return fleetKey{seed: spec.FleetSeed, procs: spec.Procs}
}

// fleetCache shares one built fleet among all tenants whose specs name
// the same key. A fleet is read-only while tenants run on it (online
// scanning works on a private DB), so tenants may share it freely. An
// entry lives while at least one tenant holds a reference to it.
type fleetCache struct {
	mu sync.Mutex // guards m and every entry's refs
	m  map[fleetKey]*fleetEntry
}

type fleetEntry struct {
	refs int // references held; guarded by fleetCache.mu
	// build is held while the fleet is built, so concurrent acquires of
	// one key build it once and neither the cache lock nor the server
	// lock is held meanwhile.
	build sync.Mutex
	fleet *scheduler.Fleet // guarded by build
}

// acquire returns key's fleet, building it on first use, and takes a
// reference that the caller drops with release.
func (c *fleetCache) acquire(key fleetKey) (*scheduler.Fleet, error) {
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[fleetKey]*fleetEntry)
	}
	e := c.m[key]
	if e == nil {
		e = &fleetEntry{}
		c.m[key] = e
	}
	e.refs++
	c.mu.Unlock()

	e.build.Lock()
	defer e.build.Unlock()
	if e.fleet == nil {
		f, err := scheduler.BuildFleet(scheduler.DefaultFleetSpec(key.seed, key.procs))
		if err != nil {
			c.release(key)
			return nil, err
		}
		e.fleet = f
	}
	return e.fleet, nil
}

// release drops one reference to key's fleet; the last one frees it.
func (c *fleetCache) release(key fleetKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.m[key]
	e.refs--
	if e.refs == 0 {
		delete(c.m, key)
	}
}
