package scheduler

import (
	"slices"

	"iscope/internal/shard"
	"iscope/internal/units"
)

// This file holds the one sharded scheduling kernel: ScanFair's
// least-used order, the paper's lifetime-balancing policy. Every
// optimized run attaches it at pool width max(1, RunConfig.Workers); a
// one-worker pool owns no goroutines and runs the pass inline over the
// single shard [0, n), so a serial run is simply the one-shard case of
// the same code. Every other kernel runs serially on the event
// goroutine.
//
// A processor's fair key at now is UtilAt(id, now). An idle processor's
// key is its utilTime; a busy processor's key is
// utilTime + (now − busySince), whose offset utilTime − busySince does
// not move with now. The cluster changes neither term without a
// fair-dirty mark, so each fairShard retains its idle processors sorted
// by key and its busy ones sorted by offset, and a pass only folds the
// dirty processors' fresh entries into small overlays. The order then
// materializes lazily: parExtendFair takes the argmin over the shard
// heads, and a busy key is computed only when the merge reaches its
// entry (busyHead). A pass costs O(dirty log dirty + overlay) in the
// workers, then a few keys and O(Workers) compares per emitted id, so
// a placement pays for the prefix it consumes, not for the busy fleet.
// Every shard emits in the strict (u, id) order and the shards' id
// ranges are disjoint, so the merged sequence is the unique global
// sorted permutation wherever the shard boundaries fall. Boundaries
// and the compaction schedule depend only on (n, Workers) and the
// dirty feed and affect performance alone, so the worker count never
// leaks into results or checkpoints.

// fairEntry is one processor's position in a retained fair list. key
// is utilTime for an idle processor and the offset
// utilTime − busySince for a busy one. An entry is authoritative iff
// its ver matches the processor's current fairVer stamp, so
// invalidating a dirtied processor's entry is one counter bump and
// iteration simply skips the husks. At most one entry per processor is
// valid at a time: each dirty pass bumps the stamp once and writes
// exactly one fresh entry, into the idle or the busy list.
type fairEntry struct {
	key     units.Seconds
	id, ver int32
}

// fairAsc orders entries by the strict (key, id) order; ver is
// bookkeeping, never part of the sort key.
func fairAsc(a, b fairEntry) int {
	if a.key != b.key {
		if a.key < b.key {
			return -1
		}
		return 1
	}
	return int(a.id) - int(b.id)
}

// fairList is one class of a shard's processors, idle or busy: a
// sorted main list plus a sorted overlay of the entries written since
// the last compaction, read through pass cursors that skip stale
// entries. batch collects a pass's fresh entries, and spare is the
// merge target add and compact swap in.
type fairList struct {
	main, extra, batch, spare []fairEntry
	mi, ei                    int
}

// add sorts the pass's batch and merges it into the overlay, leaving
// the main list untouched: a binary search per batch entry, and the
// overlay's runs between them copied whole.
func (l *fairList) add() {
	batch := l.batch
	l.batch = batch[:0]
	if len(batch) == 0 {
		return
	}
	slices.SortFunc(batch, fairAsc)
	out, rest := l.spare[:0], l.extra
	for _, e := range batch {
		i, _ := slices.BinarySearchFunc(rest, e, fairAsc)
		out = append(append(out, rest[:i]...), e)
		rest = rest[i:]
	}
	l.extra, l.spare = append(out, rest...), l.extra[:0]
}

// compact folds the overlay into the main list in one linear merge,
// dropping every stale entry.
func (l *fairList) compact(ver []int32) {
	out := l.spare[:0]
	i, j := 0, 0
	for i < len(l.main) || j < len(l.extra) {
		var e fairEntry
		if j == len(l.extra) || i < len(l.main) && fairAsc(l.main[i], l.extra[j]) < 0 {
			e = l.main[i]
			i++
		} else {
			e = l.extra[j]
			j++
		}
		if e.ver == ver[e.id] {
			out = append(out, e)
		}
	}
	l.main, l.spare, l.extra = out, l.main[:0], l.extra[:0]
}

// peek returns the list's least valid entry at the pass cursors,
// first advancing them past stale entries. Validity is frozen with the
// pass: stamps only move in repairShard, so a processor placed mid-pass
// keeps its pass-entry position.
func (l *fairList) peek(ver []int32) (fairEntry, bool) {
	for l.mi < len(l.main) && l.main[l.mi].ver != ver[l.main[l.mi].id] {
		l.mi++
	}
	for l.ei < len(l.extra) && l.extra[l.ei].ver != ver[l.extra[l.ei].id] {
		l.ei++
	}
	if !l.mainFirst() {
		return l.extra[l.ei], true
	}
	if l.mi == len(l.main) {
		return fairEntry{}, false
	}
	return l.main[l.mi], true
}

// pop consumes the entry the last peek returned.
func (l *fairList) pop() {
	if l.mainFirst() {
		l.mi++
	} else {
		l.ei++
	}
}

// mainFirst reports whether the next entry comes from the main list:
// the overlay is exhausted or its cursor entry sorts after main's.
func (l *fairList) mainFirst() bool {
	return l.ei == len(l.extra) || l.mi < len(l.main) && fairAsc(l.main[l.mi], l.extra[l.ei]) < 0
}

// fairShard is one shard's retained fair-order state over the
// processor ids in [lo, hi): the idle list keyed by utilTime, the busy
// list keyed by offset, and the busy window that turns offsets into
// keys during emission. A repair pass touches only the shard's dirty
// ids: their old entries die with a fairVer bump and their fresh ones
// join the overlays. Once stale entries pass the shard's threshold,
// compaction merges each overlay into its main list. fullShard, the one
// sort of the whole shard, runs only on first use and on dirty overflow
// (a restore raises it).
//
// Shards are fixed at construction from the same shard.Range partition
// Pool.Run dispatches, so a worker only ever touches its own arena —
// and the shared fairVer stamps at its own disjoint id range.
// Everything here is derived cache, rebuilt from the cluster on demand;
// checkpoints never see it.
type fairShard struct {
	idle, busy fairList
	stale      int // entries abandoned since the last compaction
	listsOK    bool
	// win holds busy keys pulled in offset order and not yet emitted,
	// sorted by (u, id) from wi on; lastK is the last pulled key.
	win   []utilKey
	wi    int
	lastK units.Seconds
	// keyed counts the busy keys this pass has computed: at most the
	// busy entries it emits plus the window's overhang, len(win) − wi.
	keyed int
	// The cached merge head: the least not-yet-consumed (u, id) of the
	// shard, or headSrc == 0 when the shard is exhausted.
	headU   units.Seconds
	headID  int32
	headSrc int8 // 0 none, 1 idle, 2 busy window
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
	// entry version, bumped when the cluster reports it dirty; each
	// shard writes only its own id range.
	fairSh        []fairShard
	dirtyAll      []int32
	dirtyOverflow bool
	fairVer       []int32

	// now is the pass instant busy keys are computed at and margin its
	// busy-window rounding margin (see busyHead); fairRepK is the pass
	// kernel, bound once so dispatch does not allocate a closure.
	now      units.Seconds
	margin   units.Seconds
	fairRepK func(int, int, int)
}

// newParState builds the fair-order tier: the shard pool and one
// retained shard per worker. The id-indexed stamps are sized by the
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
// cluster's dirty feed, repair every shard in parallel, then settle
// the merge heads. Caller (ensureFairPass) handles the pass cache and
// the dirty-feed reset.
func (p *parState) fairPass(now units.Seconds, dirty []int32, overflow bool) {
	s := p.s
	if p.fairVer == nil {
		s.fairOrder = make([]int, 0, len(s.dc.Procs))
		p.fairVer = make([]int32, len(s.dc.Procs))
	}
	p.now = now
	p.margin = now * 0x1p-49
	p.dirtyAll = dirty
	p.dirtyOverflow = overflow
	p.pool.Run(len(s.dc.Procs), p.fairRepK)
	p.dirtyAll = nil
	for i := range p.fairSh {
		p.shardHead(&p.fairSh[i])
	}
}

// fairShardPass is the per-shard kernel: rebuild the shard on first
// use or dirty overflow, repair it around its dirty ids otherwise, and
// rewind the pass cursors.
func (p *parState) fairShardPass(sh, lo, hi int) {
	fs := &p.fairSh[sh]
	if fs.listsOK && !p.dirtyOverflow {
		p.repairShard(fs, lo, hi)
	} else {
		p.fullShard(fs, lo, hi)
	}
	fs.idle.mi, fs.idle.ei, fs.busy.mi, fs.busy.ei = 0, 0, 0, 0
	fs.win, fs.wi, fs.keyed = fs.win[:0], 0, 0
}

// fullShard is the non-incremental rebuild of [lo, hi): one entry per
// processor, idle ones keyed by utilTime and busy ones by offset, and a
// sort of each list, shedding stale entries and the overlays. Entries
// written at the processors' current stamps are valid without touching
// fairVer — abandoned husks all carry older stamps.
func (p *parState) fullShard(fs *fairShard, lo, hi int) {
	dc, ver := p.s.dc, p.fairVer
	idle, busy := fs.idle.main[:0], fs.busy.main[:0]
	for id := lo; id < hi; id++ {
		if dc.IsBusy(id) {
			busy = append(busy, fairEntry{key: dc.UtilOffset(id), id: int32(id), ver: ver[id]})
		} else {
			idle = append(idle, fairEntry{key: dc.UtilTimeOf(id), id: int32(id), ver: ver[id]})
		}
	}
	slices.SortFunc(idle, fairAsc)
	slices.SortFunc(busy, fairAsc)
	fs.idle.main, fs.idle.extra = idle, fs.idle.extra[:0]
	fs.busy.main, fs.busy.extra = busy, fs.busy.extra[:0]
	fs.stale = 0
	fs.listsOK = true
}

// repairShard refreshes the shard around its dirty ids alone. Every
// shard scans the whole dirty feed for its own ids: O(dirty) per worker
// in wall clock, with no serial partition step. A dirty processor's old
// entry dies with one fairVer bump (the shard's ids only, so the shared
// stamp writes are disjoint across workers) and its fresh entry, keyed
// by what the cluster holds now, joins the idle or the busy overlay.
// Each new entry abandons exactly one old one; once the abandoned
// entries pass max(1024, shard/32), compaction merges each overlay into
// its main list, which keeps the overlays a small fraction of the
// shard.
func (p *parState) repairShard(fs *fairShard, lo, hi int) {
	dc, ver := p.s.dc, p.fairVer
	for _, id := range p.dirtyAll {
		if int(id) < lo || int(id) >= hi {
			continue
		}
		ver[id]++
		if dc.IsBusy(int(id)) {
			fs.busy.batch = append(fs.busy.batch, fairEntry{key: dc.UtilOffset(int(id)), id: id, ver: ver[id]})
		} else {
			fs.idle.batch = append(fs.idle.batch, fairEntry{key: dc.UtilTimeOf(int(id)), id: id, ver: ver[id]})
		}
		fs.stale++
	}
	fs.idle.add()
	fs.busy.add()
	if fs.stale > max(1024, (hi-lo)/32) {
		fs.idle.compact(ver)
		fs.busy.compact(ver)
		fs.stale = 0
	}
}

// busyHead settles the shard's busy window and reports whether the
// shard has a busy entry left; the least is then fs.win[fs.wi]. Entries
// leave the busy list in (offset, id) order and are keyed on the way
// into the window, which keeps them sorted by (u, id). The window's
// least entry is the shard's least busy key once no unpulled entry can
// undercut it, and it stops pulling exactly then.
//
// Why a margin of now·2⁻⁴⁹ proves that. Write t = utilTime,
// b = busySince and ε = 2⁻⁵³: binary64 rounds a sum or difference x to
// fl(x) with |fl(x) − x| ≤ ε|x|. An entry's offset is o = fl(t − b), its
// key the UtilAt expression k = fl(t + fl(now − b)), and its real key
// K = now + (t − b). The clock is monotone and start stamps busySince
// with the then-current instant, so 0 ≤ b ≤ now; utilization is a sum of
// disjoint busy spans, so 0 ≤ t ≤ 2·now with room to spare for the
// accrual's rounding. Hence |t − b| ≤ 2·now and |t + fl(now − b)| ≤
// 3·now, every offset and key lies within a few now in magnitude, and
//
//	|o − (t − b)| ≤ 2ε·now,   |k − K| ≤ ε·now + 3ε·now = 4ε·now.
//
// Let l be the last pulled entry and j any unpulled one; pulls go in
// offset order, so o_j ≥ o_l. Then
//
//	k_j ≥ K_j − 4ε·now ≥ now + o_j − 6ε·now ≥ now + o_l − 6ε·now,
//	k_l ≤ K_l + 4ε·now ≤ now + o_l + 6ε·now,
//
// so k_j ≥ k_l − 12ε·now. The window's least key m is released when
// fl(k_l − m) > margin = 16ε·now. That fails for k_l ≤ m, and
// otherwise gives k_l − m ≥ fl(k_l − m)/(1 + ε) > 12ε·now, so m < k_j:
// strictly, so the id tie-break never reaches across the window edge.
// Emission is therefore the unique strict (u, id) permutation of the
// keys UtilAt computes. At now = 0 every key is exactly 0, the margin
// is 0 and the window drains the list, again exactly.
func (p *parState) busyHead(fs *fairShard) bool {
	for {
		e, more := fs.busy.peek(p.fairVer)
		if fs.wi < len(fs.win) && (!more || fs.lastK-fs.win[fs.wi].u > p.margin) {
			return true
		}
		if !more {
			return false
		}
		fs.busy.pop()
		if fs.wi == len(fs.win) {
			fs.win, fs.wi = fs.win[:0], 0
		}
		k := utilKey{u: p.s.dc.UtilAt(int(e.id), p.now), id: int(e.id)}
		fs.keyed++
		fs.lastK = k.u
		fs.win = append(fs.win, k)
		for i := len(fs.win) - 1; i > fs.wi && utilAsc(fs.win[i], fs.win[i-1]) < 0; i-- {
			fs.win[i], fs.win[i-1] = fs.win[i-1], fs.win[i]
		}
	}
}

// shardHead refreshes the shard's cached merge head: the lesser of the
// idle list's least valid entry and the settled busy window's least
// key, cached so the global argmin below touches one struct per shard.
// At most one entry per processor is valid, so the heads are distinct
// (u, id) keys and the strict comparison needs no dedup.
func (p *parState) shardHead(fs *fairShard) {
	fs.headSrc = 0
	if e, ok := fs.idle.peek(p.fairVer); ok {
		fs.headU, fs.headID, fs.headSrc = e.key, e.id, 1
	}
	if p.busyHead(fs) {
		if k := fs.win[fs.wi]; fs.headSrc == 0 || k.u < fs.headU || (k.u == fs.headU && int32(k.id) < fs.headID) {
			fs.headU, fs.headID, fs.headSrc = k.u, int32(k.id), 2
		}
	}
}

// parExtendFair appends the next processor in global (u, id) order to
// the fairOrder memo: a linear argmin over the shard heads (id ranges
// are disjoint, so ties resolve within a single shard's compare), then
// one cursor advance and head refresh on the taken shard. Returns false
// once every shard is exhausted.
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
	if fs.headSrc == 1 {
		fs.idle.pop()
	} else {
		fs.wi++
	}
	p.s.fairOrder = append(p.s.fairOrder, int(bid))
	p.shardHead(fs)
	return true
}
