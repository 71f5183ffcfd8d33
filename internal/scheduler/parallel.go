package scheduler

import (
	"slices"

	"iscope/internal/shard"
	"iscope/internal/units"
)

// This file holds the one sharded scheduling kernel: ScanFair's
// least-used order, the paper's lifetime-balancing policy and the
// costliest kernel in CPU profiles. Every optimized run attaches it at
// pool width max(1, RunConfig.Workers); a one-worker pool owns no
// goroutines and runs the pass inline over the single shard [0, n), so
// a serial run is simply the one-shard case of the same code. Every
// other kernel runs serially on the event goroutine.
//
// Each fairShard retains the idle lists and busy carry for its id
// range; fairPass repairs (or rebuilds) every shard in parallel around
// the cluster's dirty feed, and the order materializes lazily:
// parExtendFair takes the argmin over the shard heads — at most Workers
// compares per emission — so a placement pass consumes only the prefix
// it needs. A pass costs O((busy + dirty)/workers), not
// O(fleet log fleet), plus O(Workers) per emitted id. Every per-shard
// source is sorted under the strict (u, id) order and the shards' id
// ranges are disjoint, so the merged emission sequence is the unique
// global sorted permutation wherever the shard boundaries fall.
// Boundaries and the per-shard full-vs-repair choice depend only on
// (n, Workers) and affect performance alone, so the worker count never
// leaks into results or checkpoints.

// fairShard is one shard's retained fair-order state over the
// processor ids in [lo, hi). Idle processors' utilization keys are
// static (no in-flight span), so idle — the shard's idle processors
// sorted by (u, id) — stays exactly sorted until a processor the
// cluster reports dirty (FairDirty) starts or stops. Instead of
// rewriting the idle list each pass, dirty processors' old entries are
// abandoned in place (invalidated by bumping the processor's fairVer
// stamp) and their fresh keys merged into the small extra overlay;
// only the busy minority, whose keys move with now, is re-keyed per
// pass. fullShard is the fallback past the dirt thresholds — and the
// compaction that clears accumulated stale entries.
//
// Shards are fixed at construction from the same shard.Range partition
// Pool.Run dispatches, so a worker only ever touches its own arena —
// and the shared per-id arrays (fairVer, dirtyMark) at its own disjoint
// id range. Everything here is derived cache, rebuilt from the cluster
// on demand; checkpoints never see it.
type fairShard struct {
	idle    []idleEntry // main idle list; may carry stale entries
	extra   []idleEntry // sorted overlay of re-keyed idle entries
	scratch []idleEntry // overlay merge scratch
	patch   []idleEntry // per-pass freshly idle keys
	carry   []int32     // busy processors in last pass's order
	busy    []utilKey
	busy2   []utilKey
	bpatch  []utilKey
	dirty   []int32   // this pass's dirty ids within [lo, hi)
	keys    []utilKey // full-pass key scratch, retained sorted
	stale   int       // stale entries abandoned since the last full pass
	listsOK bool
	// Pass cursors into idle/extra/busy, plus the cached merge head:
	// the least not-yet-consumed (u, id) of the shard's three sources,
	// or headSrc == 0 when the shard is exhausted.
	ii, ei, bi int
	headU      units.Seconds
	headID     int32
	headSrc    int8 // 0 none, 1 main idle, 2 overlay, 3 busy
}

// parState carries the worker pool and the sharded fair order for one
// simulation. Everything here is derived cache, rebuilt from the
// cluster on demand — never authoritative simulation state — so
// checkpoint and restore never touch it.
type parState struct {
	s    *sim
	pool *shard.Pool

	// Sharded retained fair order (see fairShard) plus the pass inputs
	// published to the repair kernel. fairVer is each processor's
	// idle-entry version, bumped when the cluster reports it dirty;
	// dirtyMark is the epoch-stamped dirty membership of the current
	// pass; utilBuf is the full-pass utilization snapshot. All three are
	// indexed by processor id, and each shard writes only its own range.
	fairSh        []fairShard
	dirtyAll      []int32
	dirtyOverflow bool
	fairVer       []int32
	dirtyMark     []int64
	dirtyEpoch    int64
	utilBuf       []units.Seconds

	// now is the pass instant, published to workers by Pool.Run's
	// dispatch (channel send happens-before the worker's read), and
	// fairRepK the pass kernel, bound once so dispatch does not
	// allocate a closure.
	now      units.Seconds
	fairRepK func(int, int, int)
}

// newParState builds the fair-order tier: the shard pool and one
// retained shard per worker. The id-indexed buffers are sized by the
// first pass, on the event goroutine, so a run whose policy never asks
// for the fair order pays nothing for it.
func newParState(s *sim, workers int) *parState {
	p := &parState{
		s:      s,
		pool:   shard.NewPool(workers),
		fairSh: make([]fairShard, workers),
	}
	p.fairRepK = p.fairShardPass
	return p
}

// close releases the kernel pool's worker goroutines; a one-worker
// pool and a naive sim own none.
func (s *sim) close() {
	if s.par != nil {
		s.par.pool.Close()
	}
}

// fairPass runs one sharded pass: publish the pass instant and the
// cluster's dirty feed, repair every shard in parallel, then refresh
// the merge heads. Caller (ensureFairPass) handles the pass cache and
// the dirty-feed reset.
func (p *parState) fairPass(now units.Seconds, dirty []int32, overflow bool) {
	s := p.s
	if p.fairVer == nil {
		n := len(s.dc.Procs)
		s.fairOrder = make([]int, 0, n)
		p.fairVer = make([]int32, n)
		p.dirtyMark = make([]int64, n)
		p.utilBuf = make([]units.Seconds, n)
	}
	p.dirtyEpoch++ // one epoch per pass, shared by every shard
	p.now = now
	p.dirtyAll = dirty
	p.dirtyOverflow = overflow
	p.pool.Run(len(s.dc.Procs), p.fairRepK)
	p.dirtyAll = nil
	for i := range p.fairSh {
		p.shardHead(&p.fairSh[i])
	}
}

// fairShardPass is the per-shard kernel: bucketize the dirty feed to
// the shard's id range, then repair the retained lists while the dirt
// stays below the shard's thresholds (an eighth of the shard dirty, or
// max(1024, shard/32) stale entries accumulated) or rebuild them
// wholesale. The full-vs-repair choice is per shard and purely a
// performance decision — both paths rederive the identical sorted
// sources.
func (p *parState) fairShardPass(sh, lo, hi int) {
	fs := &p.fairSh[sh]
	// Every shard scans the whole dirty feed for its own ids: O(dirty)
	// per worker in wall clock, with no serial partition step.
	d := fs.dirty[:0]
	if !p.dirtyOverflow {
		for _, id := range p.dirtyAll {
			if int(id) >= lo && int(id) < hi {
				d = append(d, id)
			}
		}
	}
	fs.dirty = d
	n := hi - lo
	staleMax := n / 32
	if staleMax < 1024 {
		staleMax = 1024
	}
	if fs.listsOK && !p.dirtyOverflow && len(d) <= n/8 &&
		fs.stale+len(d) <= staleMax {
		p.repairShard(fs)
	} else {
		p.fullShard(fs, lo, hi)
	}
	fs.ii, fs.ei, fs.bi = 0, 0, 0
}

// fullShard is the non-incremental rebuild of [lo, hi): one sort of the
// shard's keys, then the idle/busy partition that seeds the retained
// lists, shedding stale entries and the overlay. Keys are re-keyed in
// the previous full pass's sorted order: busy processors all accrue
// utilization at the same rate, so the permutation only changes where
// a busy processor overtakes an idle one. The nearly sorted input hits
// pdqsort's partial-insertion fast path, and because (u, id) is a
// strict total order the result is identical from any starting
// permutation. Idle keys are exact (no in-flight term), so the
// partition seeds the lists directly; entries written at the
// processors' current stamps are valid without touching fairVer —
// abandoned husks all carry older stamps.
func (p *parState) fullShard(fs *fairShard, lo, hi int) {
	s, now := p.s, p.now
	s.dc.UtilShard(p.utilBuf, now, lo, hi)
	keys := fs.keys
	if len(keys) != hi-lo {
		keys = keys[:0]
		for id := lo; id < hi; id++ {
			keys = append(keys, utilKey{id: id})
		}
	}
	for i := range keys {
		keys[i].u = p.utilBuf[keys[i].id]
	}
	slices.SortFunc(keys, utilAsc)
	fs.keys = keys
	fs.idle = fs.idle[:0]
	fs.extra = fs.extra[:0]
	fs.stale = 0
	fs.carry = fs.carry[:0]
	fs.busy = fs.busy[:0]
	for _, k := range keys {
		if s.dc.IsBusy(k.id) {
			fs.carry = append(fs.carry, int32(k.id))
			fs.busy = append(fs.busy, k)
		} else {
			fs.idle = append(fs.idle, idleEntry{u: k.u, id: int32(k.id), ver: p.fairVer[k.id]})
		}
	}
	fs.listsOK = true
}

// repairShard refreshes the shard's pass sources around its dirty ids
// alone. Dirty processors have every old idle entry invalidated by one
// fairVer bump (the shard's ids only, so the shared fairVer/dirtyMark
// writes are disjoint across workers); the ones idle now contribute one
// fresh entry merged into the overlay, and the ones busy now join the
// re-keyed busy list. Idle keys are utilTime exactly and busy keys use
// the same float expression as UtilShard (see Datacenter.UtilAt), so
// every key equals the one fullShard would compute and the streamed
// merge — under the strict (u, id) order — is identical to the full
// sort.
func (p *parState) repairShard(fs *fairShard) {
	s, now := p.s, p.now
	for _, id := range fs.dirty {
		p.dirtyMark[id] = p.dirtyEpoch
		p.fairVer[id]++
	}
	fs.stale += len(fs.dirty)

	// Re-key the busy carry in its retained order. In real arithmetic
	// every continuously busy processor's key shifts by the same amount
	// between passes, so the carried order is preserved; float rounding
	// can flip near-ties by an ulp, so any re-keyed element that lands
	// below its predecessor is extracted into the busy patch instead of
	// trusted. Only the small patch (extracted flips plus dirty
	// processors that are busy now) is sorted and merged back, which
	// keeps the pass linear in the busy minority, not the shard.
	busy := fs.busy[:0]
	bpatch := fs.bpatch[:0]
	for _, id := range fs.carry {
		if p.dirtyMark[id] == p.dirtyEpoch {
			continue
		}
		k := utilKey{u: s.dc.UtilAt(int(id), now), id: int(id)}
		if n := len(busy); n > 0 && utilAsc(k, busy[n-1]) < 0 {
			bpatch = append(bpatch, k)
		} else {
			busy = append(busy, k)
		}
	}
	patch := fs.patch[:0]
	for _, id := range fs.dirty {
		if s.dc.IsBusy(int(id)) {
			bpatch = append(bpatch, utilKey{u: s.dc.UtilAt(int(id), now), id: int(id)})
		} else {
			patch = append(patch, idleEntry{u: s.dc.UtilTimeOf(int(id)), id: id, ver: p.fairVer[id]})
		}
	}
	slices.SortFunc(bpatch, utilAsc)
	if len(bpatch) > 0 {
		merged := fs.busy2[:0]
		bj := 0
		for _, k := range busy {
			for bj < len(bpatch) && utilAsc(bpatch[bj], k) < 0 {
				merged = append(merged, bpatch[bj])
				bj++
			}
			merged = append(merged, k)
		}
		merged = append(merged, bpatch[bj:]...)
		busy, fs.busy2 = merged, busy[:0]
	}
	fs.busy = busy
	fs.bpatch = bpatch[:0]

	fs.carry = fs.carry[:0]
	for _, k := range busy {
		fs.carry = append(fs.carry, int32(k.id))
	}

	// Fold the freshly idle keys into the overlay. The main idle list is
	// untouched — the dirty processors' entries there are already dead
	// via the stamp bump — so this costs the overlay's size, which
	// compaction keeps a small fraction of the shard.
	if len(patch) > 0 {
		slices.SortFunc(patch, idleAsc)
		merged := fs.scratch[:0]
		j := 0
		for _, k := range fs.extra {
			for j < len(patch) && idleAsc(patch[j], k) < 0 {
				merged = append(merged, patch[j])
				j++
			}
			merged = append(merged, k)
		}
		merged = append(merged, patch[j:]...)
		fs.extra, fs.scratch = merged, fs.extra[:0]
	}
	fs.patch = patch[:0]
}

// shardHead refreshes the shard's cached merge head: the least (u, id)
// among its three sources — the main idle list and the overlay (both
// skipping entries whose version stamp is stale) and the busy keys —
// cached so the global argmin below touches one struct per shard.
// Validity is frozen with the pass: stamps only move in repairShard, so
// a processor placed mid-pass keeps its pass-entry position exactly as
// the cached-permutation semantics require. At most one idle entry per
// processor is valid and busy processors never have one, so the heads
// are distinct (u, id) keys and the strict comparison needs no dedup.
func (p *parState) shardHead(fs *fairShard) {
	ver := p.fairVer
	for fs.ii < len(fs.idle) && fs.idle[fs.ii].ver != ver[fs.idle[fs.ii].id] {
		fs.ii++
	}
	for fs.ei < len(fs.extra) && fs.extra[fs.ei].ver != ver[fs.extra[fs.ei].id] {
		fs.ei++
	}
	fs.headSrc = 0
	if fs.ii < len(fs.idle) {
		e := fs.idle[fs.ii]
		fs.headU, fs.headID, fs.headSrc = e.u, e.id, 1
	}
	if fs.ei < len(fs.extra) {
		if e := fs.extra[fs.ei]; fs.headSrc == 0 || e.u < fs.headU || (e.u == fs.headU && e.id < fs.headID) {
			fs.headU, fs.headID, fs.headSrc = e.u, e.id, 2
		}
	}
	if fs.bi < len(fs.busy) {
		if k := fs.busy[fs.bi]; fs.headSrc == 0 || k.u < fs.headU || (k.u == fs.headU && int32(k.id) < fs.headID) {
			fs.headU, fs.headID, fs.headSrc = k.u, int32(k.id), 3
		}
	}
}

// parExtendFair appends the next processor in global (u, id) order to
// the fairOrder memo: a linear argmin over the shard heads (id ranges
// are disjoint, so ties resolve within a single shard's 3-way compare),
// then one cursor advance and head refresh on the taken shard. Returns
// false once every shard is exhausted.
func (p *parState) parExtendFair() bool {
	best := -1
	var (
		bu  units.Seconds
		bid int32
	)
	for i := range p.fairSh {
		fs := &p.fairSh[i]
		if fs.headSrc == 0 {
			continue
		}
		if best < 0 || fs.headU < bu || (fs.headU == bu && fs.headID < bid) {
			best, bu, bid = i, fs.headU, fs.headID
		}
	}
	if best < 0 {
		return false
	}
	fs := &p.fairSh[best]
	switch fs.headSrc {
	case 1:
		fs.ii++
	case 2:
		fs.ei++
	default:
		fs.bi++
	}
	p.s.fairOrder = append(p.s.fairOrder, int(bid))
	p.shardHead(fs)
	return true
}
