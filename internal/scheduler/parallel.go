package scheduler

import (
	"math"
	"slices"

	"iscope/internal/cluster"
	"iscope/internal/shard"
	"iscope/internal/units"
	"iscope/internal/workload"
)

// This file holds the per-timestamp scheduling kernels, each split
// across fixed shards of the proc (or job) population. Every optimized
// run attaches them at pool width max(1, RunConfig.Workers); a
// one-worker pool owns no goroutines and calls each kernel inline over
// the single shard [0, n), so a serial run is simply the one-shard
// case of the same code:
//
//   - incremental maintenance of the retained fair order: each shard
//     keeps versioned idle lists and a busy carry for its id range,
//     repairs them around the cluster's dirty feed, and the order
//     materializes lazily by an argmin merge over the shard heads — a
//     pass costs O((busy + dirty + consumed prefix)/workers + merge),
//     not O(fleet log fleet);
//   - per-shard fills of flat structure-of-arrays snapshots
//     (utilization, availability) indexed by processor id;
//   - per-shard sorts of pointer-free sort keys (utilKey, slackEntry,
//     effKey), merged by an order-preserving pairwise merge tree — the
//     efficiency order's full rebuild and the slack order's churn
//     rebuild, which also seed the incremental repair caches in sim.go
//     so the common pass is a cheap repair, not a rebuild;
//   - a block-cyclic parallel find-first for rebalance target search.
//
// Every comparator involved is a strict total order, so a shard repair
// + lazy merge — like a shard sort + stable merge — yields the unique
// sorted permutation for any worker count. Shard boundaries, the
// per-shard full-vs-repair choice, and merge pairing depend only on
// (n, Workers) and affect performance alone; reductions that are
// sensitive to float association (wait sums, the sorted slowdown sum)
// run in a fixed order on the event goroutine. Worker count therefore
// never leaks into results or checkpoints.
//
// All kernels and the rebalance predicate are bound once at
// construction and pass their arguments through parState fields, so
// steady-state dispatch allocates nothing.

// parWorker is one worker's private scratch arena. Workers only ever
// write their own arena during a parallel phase; the main goroutine
// concatenates in shard order afterwards, which keeps collection
// results identical to a serial id-order walk.
type parWorker struct {
	run   []*cluster.Slice
	cands []rebalCand
	avail []procAvail
	estFn func(*cluster.Slice, units.Seconds)
}

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

// parState carries the worker pool, per-worker arenas, SoA snapshots
// and prebound kernels for one simulation. Everything here is either
// per-call scratch or derived cache (the fair shards) — never
// authoritative simulation state — so checkpoint and restore never
// touch it.
type parState struct {
	s    *sim
	pool *shard.Pool
	w    []parWorker

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

	// avail[id] is a per-phase snapshot of dc.AvailableAt(id, now),
	// refreshed after every mutation inside the phase, so the target
	// search does not recompute AvailableAt per (candidate, target).
	avail   []units.Seconds
	running []*cluster.Slice
	starts  []int

	// Kernel arguments, published to workers by Pool.Run's dispatch
	// (channel send happens-before the worker's read).
	now     units.Seconds
	desc    bool
	epoch   int64
	order   []int
	job     *workload.Job
	srcProc int

	// Kernels and the rebalance predicate, bound once so per-event
	// dispatch does not allocate closures.
	fairRepK   func(int, int, int)
	runColK    func(int, int, int)
	slackKeyK  func(int, int, int)
	fbColK     func(int, int, int)
	candColK   func(int, int, int)
	availFillK func(int, int, int)
	slowsFillK func(int, int, int)
	effKeyK    func(int, int, int)
	rebalPred  func(int) bool

	slackMerge *shard.Merger[slackEntry]
	effMerge   *shard.Merger[effKey]
	slowMerge  *shard.Merger[float64]
}

// newParState builds the kernel tier: the shard pool, per-worker
// arenas and the prebound kernels. The id- and position-indexed
// buffers the kernels fill by index are sized by each kernel on first
// use, on the event goroutine, so a run pays only for the orders its
// policy consumes.
func newParState(s *sim, workers int) *parState {
	p := &parState{
		s:      s,
		pool:   shard.NewPool(workers),
		w:      make([]parWorker, workers),
		fairSh: make([]fairShard, workers),
	}
	for i := range p.w {
		w := &p.w[i]
		w.estFn = func(sl *cluster.Slice, estStart units.Seconds) {
			d := sl.Job.Deadline
			if d <= 0 {
				return
			}
			if estStart+s.dc.SliceDuration(sl, sl.AssignedLevel) > d {
				w.cands = append(w.cands, rebalCand{sl, estStart})
			}
		}
	}
	p.fairRepK = p.fairShardPass
	p.runColK = p.runCollect
	p.slackKeyK = p.slackKeyFill
	p.fbColK = p.fbCollect
	p.candColK = p.candCollect
	p.availFillK = p.availFill
	p.slowsFillK = p.slowsFill
	p.effKeyK = p.effKeyFill
	p.rebalPred = p.rebalTarget
	p.slackMerge = shard.NewMerger(p.pool, func(a, b slackEntry) int {
		if p.desc {
			return slackDesc(a, b)
		}
		return slackAsc(a, b)
	})
	p.effMerge = shard.NewMerger(p.pool, effCmp)
	p.slowMerge = shard.NewMerger(p.pool, cmpFloat)
	return p
}

// close releases the kernel pool's worker goroutines; a one-worker
// pool and a naive sim own none.
func (s *sim) close() {
	if s.par != nil {
		s.par.pool.Close()
	}
}

// ensureKnow pre-syncs version-checked knowledge caches on the event
// goroutine. ScanKnowledge.ensure rebuilds flat tables when the
// profiling DB's write version moved; that rebuild is a mutation, so
// it must happen before a parallel phase starts calling EstPower or
// EffRank concurrently. The DB version only moves at discrete events
// (a scan landing, a fault), never inside a phase, so after this call
// every concurrent lookup is a pure read.
func (s *sim) ensureKnow() {
	switch k := s.know.(type) {
	case *ScanKnowledge:
		k.ensure()
	case *HybridKnowledge:
		k.scan.ensure()
	}
}

// shardStarts returns the run-start offsets matching the shard ranges
// Pool.Run used over n elements — the merge tree's description of the
// per-shard sorted runs.
func (p *parState) shardStarts(n int) []int {
	k := p.pool.Workers()
	st := p.starts[:0]
	for sh := 0; sh < k; sh++ {
		lo, _ := shard.Range(n, k, sh)
		st = append(st, lo)
	}
	p.starts = st
	return st
}

func cmpFloat(a, b float64) int {
	if a < b {
		return -1
	}
	if a > b {
		return 1
	}
	return 0
}

// --- least-used (fair) order ---------------------------------------
//
// Each fairShard retains the idle lists and busy carry for its id
// range; fairPass repairs (or rebuilds) every shard in parallel, and
// the order materializes lazily: parExtendFair takes the argmin over
// the shard heads — at most Workers compares per emission — so a
// placement pass consumes only the prefix it needs. Every per-shard
// source is sorted under the strict (u, id) order and the shards' id
// ranges are disjoint, so the merged emission sequence is the unique
// global sorted permutation regardless of where the shard boundaries
// fall.

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

// --- efficiency order refresh --------------------------------------

func (p *parState) effKeyFill(_, lo, hi int) {
	s := p.s
	for i := lo; i < hi; i++ {
		id := s.effPref[i]
		r := s.know.EffRank(id)
		// effPref is a permutation, so the scattered rank-cache writes
		// hit disjoint ids across position shards.
		s.effRank[id] = r
		s.effKeys[i] = effKey{rank: r, pos: int32(i), id: int32(id)}
	}
	slices.SortFunc(s.effKeys[lo:hi], effCmp)
}

// parFullEffOrder is the non-incremental preference rebuild: sharded
// (rank, pos) key fills and shard sorts, then the merge tree; positions
// are a permutation, so the key order is strict. It also refreshes the
// rank/position caches, so later refreshes with a small dirty set take
// the repairEffOrder merge walk instead of rebuilding the fleet.
func (s *sim) parFullEffOrder() {
	p := s.par
	n := len(s.effPref)
	if s.effRank == nil {
		s.effKeys = make([]effKey, n)
		s.effRank = make([]float64, n)
		s.effPos = make([]int32, n)
		s.effPref2 = make([]int, 0, n)
		s.effPatch = make([]effKey, 0, n/8+8)
	}
	s.ensureKnow()
	p.pool.Run(n, p.effKeyK)
	merged := p.effMerge.Merge(s.effKeys, p.shardStarts(n))
	for i := range merged {
		id := int(merged[i].id)
		s.effPref[i] = id
		s.effPos[id] = int32(i)
	}
	s.effCacheOK = true
}

// --- matching sort --------------------------------------------------

// runCollect is sortRunningBySlack's newcomer scan: each worker walks
// its id range of the per-processor running view and collects the
// slices that started since the previous pass (stamp epoch mismatch;
// the stamps are read-only during the phase). The event goroutine
// concatenates the arenas in shard order — id-ascending at any worker
// count — so the retained-order repair downstream sees the same patch.
func (p *parState) runCollect(sh, lo, hi int) {
	s := p.s
	w := &p.w[sh]
	w.run = w.run[:0]
	cur := s.dc.CurrentView()
	for id := lo; id < hi; id++ {
		if sl := cur[id]; sl != nil && s.runStamp[sl.Serial] != s.runEpoch {
			w.run = append(w.run, sl)
		}
	}
}

// slackKeyFill keys and shard-sorts a position range of the running
// list for sortRunningBySlack's full-rebuild path; the merge tree then
// yields the unique (slack, procID) permutation.
func (p *parState) slackKeyFill(_, lo, hi int) {
	s, now := p.s, p.now
	for i := lo; i < hi; i++ {
		sl := p.running[i]
		s.slackBuf[i] = slackEntry{slack: slack(sl, now), idx: int32(i), procID: int32(sl.ProcID)}
	}
	if p.desc {
		slices.SortFunc(s.slackBuf[lo:hi], slackDesc)
	} else {
		slices.SortFunc(s.slackBuf[lo:hi], slackAsc)
	}
}

// parSlackRebuild fills and shard-sorts the slack keys of the combined
// running list and merges them — sortRunningBySlack's full rebuild,
// used past the churn threshold. The returned keys may alias the
// merger's scratch; the caller applies the permutation immediately.
func (s *sim) parSlackRebuild(running []*cluster.Slice, now units.Seconds, desc bool) []slackEntry {
	p := s.par
	m := len(running)
	if cap(s.slackBuf) < m {
		s.slackBuf = make([]slackEntry, 0, m+64)
	}
	s.slackBuf = s.slackBuf[:m]
	p.now, p.desc = now, desc
	p.running = running
	p.pool.Run(m, p.slackKeyK)
	return p.slackMerge.Merge(s.slackBuf, p.shardStarts(m))
}

// --- placement fallback collect ------------------------------------

func (p *parState) fbCollect(sh, lo, hi int) {
	s := p.s
	w := &p.w[sh]
	w.avail = w.avail[:0]
	for id := lo; id < hi; id++ {
		if s.takenMark[id] != p.epoch {
			w.avail = append(w.avail, procAvail{id: id, avail: s.dc.AvailableAt(id, p.now)})
		}
	}
}

// parFallbackCollect fills availBuf with the untaken processors'
// availability for selectProcs' heap fallback: per-worker collection
// over id ranges, concatenated in shard order — id-ascending at any
// worker count, so heapify sees the same array and the pops are
// byte-identical.
func (s *sim) parFallbackCollect(now units.Seconds) {
	p := s.par
	p.now = now
	p.epoch = s.takenEpoch
	p.pool.Run(len(s.dc.Procs), p.fbColK)
	buf := s.availBuf[:0]
	for i := range p.w {
		buf = append(buf, p.w[i].avail...)
	}
	s.availBuf = buf
}

// --- rebalance ------------------------------------------------------

func (p *parState) candCollect(sh, lo, hi int) {
	w := &p.w[sh]
	w.cands = w.cands[:0]
	p.s.dc.QueueEstimatesShard(lo, hi, w.estFn)
}

func (p *parState) availFill(_, lo, hi int) {
	p.s.dc.AvailShard(p.avail, p.now, lo, hi)
}

// rebalTarget is FindFirst's predicate: can preference-order position
// pos host the current candidate? It reads the availability snapshot
// and calls chooseLevel, both pure reads during the search, and applies
// the reference walk's skip conditions exactly, so the first true
// position is the processor a left-to-right walk migrates to.
func (p *parState) rebalTarget(pos int) bool {
	id := p.order[pos]
	if id == p.srcProc {
		return false
	}
	maxTime := p.job.Deadline - p.avail[id]
	if maxTime <= 0 {
		return false
	}
	_, ok := p.s.chooseLevel(id, p.job, maxTime, false)
	return ok
}

// parRebalance is the sharded rebalance: parallel candidate collection
// over queue shards, a sort most-endangered first under the strict
// (estStart desc, job, proc) order, one parallel availability
// snapshot, then a block-cyclic parallel find-first over the
// preference order per candidate. The snapshot is refreshed for
// exactly the two processors a migration mutates, so every predicate
// evaluation sees the value a fresh AvailableAt would compute.
func (s *sim) parRebalance(now units.Seconds) {
	p := s.par
	n := len(s.dc.Procs)
	p.now = now
	p.pool.Run(n, p.candColK)
	cands := s.candBuf[:0]
	for i := range p.w {
		cands = append(cands, p.w[i].cands...)
	}
	s.candBuf = cands
	if len(cands) == 0 {
		return
	}
	slices.SortFunc(cands, rebalCandCmp)
	order := s.candidateOrder(now, false)
	s.ensureKnow()
	p.order = order
	if p.avail == nil {
		p.avail = make([]units.Seconds, n)
	}
	p.pool.Run(n, p.availFillK)
	for _, c := range cands {
		sl := c.sl
		p.job = sl.Job
		p.srcProc = sl.ProcID
		pos := p.pool.FindFirst(len(order), p.rebalPred)
		if pos == len(order) {
			continue
		}
		id := order[pos]
		maxTime := sl.Job.Deadline - p.avail[id]
		level, _ := s.chooseLevel(id, sl.Job, maxTime, false)
		src := sl.ProcID
		started, err := s.dc.Migrate(sl, id, level, now)
		if err != nil {
			continue // raced with a start; leave it be
		}
		if started != nil {
			s.scheduleCompletion(started)
		}
		p.avail[src] = s.dc.AvailableAt(src, now)
		p.avail[id] = s.dc.AvailableAt(id, now)
	}
}

// --- quality metrics ------------------------------------------------

func (p *parState) slowsFill(_, lo, hi int) {
	s := p.s
	for i := lo; i < hi; i++ {
		st := &s.states[i]
		span := float64(st.finish - st.job.Submit)
		runtime := math.Max(float64(st.job.Runtime), 10)
		s.slowsBuf[i] = math.Max(1, span/runtime)
	}
	slices.Sort(s.slowsBuf[lo:hi])
}

// parQualityMetrics computes the end-of-run statistics with a parallel
// slowdown fill + shard sort + merge. The wait sum and the sorted
// slowdown sum run on the event goroutine in their fixed orders (job
// order and ascending order respectively): float addition is not
// associative, and shard boundaries depend on the worker count, so a
// sharded reduction would leak Workers into the result's low bits.
// Merging shard-sorted runs of plain float64 values is still safe —
// equal values are indistinguishable, so the merged value sequence is
// the unique ascending multiset at any worker count.
func (s *sim) parQualityMetrics() (meanSlow, p95Slow float64, meanWait units.Seconds) {
	p := s.par
	m := len(s.states)
	if m == 0 {
		return 0, 0, 0
	}
	if cap(s.slowsBuf) < m {
		s.slowsBuf = make([]float64, m)
	}
	s.slowsBuf = s.slowsBuf[:m]
	p.pool.Run(m, p.slowsFillK)
	var waitSum float64
	for i := range s.states {
		st := &s.states[i]
		span := float64(st.finish - st.job.Submit)
		if w := span - float64(st.job.Runtime); w > 0 {
			waitSum += w
		}
	}
	merged := p.slowMerge.Merge(s.slowsBuf, p.shardStarts(m))
	var sum float64
	for _, v := range merged {
		sum += v
	}
	meanSlow = sum / float64(m)
	p95Slow = merged[m*95/100]
	meanWait = units.Seconds(waitSum / float64(m))
	return meanSlow, p95Slow, meanWait
}
