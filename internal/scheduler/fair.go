package scheduler

import (
	"slices"

	"iscope/internal/cluster"
	"iscope/internal/units"
)

// This file holds ScanFair's least-used order, the paper's
// lifetime-balancing policy. Like every other kernel it runs on the
// event goroutine.
//
// A processor's fair key at now is UtilAt(id, now). An idle processor's
// key is its utilTime; a busy processor's key is
// utilTime + (now − busySince), whose offset utilTime − busySince does
// not move with now. The cluster changes neither term without a
// fair-dirty mark, so fairState retains the idle processors sorted by
// key and the busy ones sorted by offset, and a pass only folds the
// dirty processors' fresh entries into small overlays. The order then
// materializes lazily: next picks the lesser of the two list heads,
// and a busy key is computed only when the pick reaches its entry
// (busyHead). A pass costs O(dirty log dirty + overlay), then a few
// keys and one compare per emitted id, so a placement pays for the
// prefix it consumes, not for the busy fleet. Both heads follow the
// strict (u, id) order, so the emitted sequence is the unique sorted
// permutation. The compaction schedule depends only on the fleet size
// and the dirty feed and affects performance alone.

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

// fairList is one class of processors, idle or busy: a sorted main
// list plus a sorted overlay of the entries written since the last
// compaction, read through pass cursors that skip stale entries. batch
// collects a pass's fresh entries, and spare is the merge target add
// and compact swap in.
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
// pass: stamps only move in repair, so a processor placed mid-pass
// keeps its pass-entry position, and peek returns the same entry until
// the next pop.
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

// fairState is the retained fair order: the idle list keyed by
// utilTime, the busy list keyed by offset, and the busy window that
// turns offsets into keys during emission. A repair pass touches only
// the dirty ids: their old entries die with a fairVer bump and their
// fresh ones join the overlays. Once stale entries pass the threshold,
// compaction merges each overlay into its main list. rebuild, the one
// sort of the whole fleet, runs only on first use and on dirty
// overflow (a restore raises it). Everything here is derived cache,
// rebuilt from the cluster on demand; checkpoints never see it.
type fairState struct {
	idle, busy fairList
	// fairVer is each processor's entry version, bumped when the
	// cluster reports it dirty. It is sized by the first pass, so a run
	// whose policy never asks for the fair order pays nothing for it.
	fairVer []int32
	stale   int // entries abandoned since the last compaction
	listsOK bool
	// win holds busy keys pulled in offset order and not yet emitted,
	// sorted by (u, id) from wi on; lastK is the last pulled key.
	win   []utilKey
	wi    int
	lastK units.Seconds
	// keyed counts the busy keys this pass has computed: exactly the
	// busy entries it emitted plus the window's overhang, len(win) − wi.
	keyed int
	// now is the pass instant busy keys are computed at and margin its
	// busy-window rounding margin (see busyHead).
	now, margin units.Seconds
}

// pass begins the pass one placement consumes, at now. It folds the
// cluster's fair-dirty feed into the lists — rebuild on first use or
// dirty overflow, repair around the dirty ids otherwise — resets the
// feed and rewinds the cursors. Idle keys live in the lists, but a busy
// key is computed from the cluster's utilTime and busySince only when
// emission reaches it, so the emitted order is exact only while the
// cluster holds still. It does: selectProcs mutates no cluster state
// while it consumes the pass, and every placement begins its own.
func (f *fairState) pass(dc *cluster.Datacenter, now units.Seconds) {
	if f.fairVer == nil {
		f.fairVer = make([]int32, dc.Len())
	}
	f.now, f.margin = now, now*0x1p-49
	feed := dc.FairFeed()
	if dirty, overflow := feed.Dirty(); f.listsOK && !overflow {
		f.repair(dc, dirty)
	} else {
		f.rebuild(dc)
	}
	feed.Reset()
	f.idle.mi, f.idle.ei, f.busy.mi, f.busy.ei = 0, 0, 0, 0
	f.win, f.wi, f.keyed = f.win[:0], 0, 0
}

// rebuild is the non-incremental pass: one entry per processor, idle
// ones keyed by utilTime and busy ones by offset, and a sort of each
// list, shedding stale entries and the overlays. Entries written at the
// processors' current stamps are valid without touching fairVer —
// abandoned husks all carry older stamps.
func (f *fairState) rebuild(dc *cluster.Datacenter) {
	ver := f.fairVer
	idle, busy := f.idle.main[:0], f.busy.main[:0]
	for id := range dc.Len() {
		if dc.IsBusy(id) {
			busy = append(busy, fairEntry{key: dc.UtilOffset(id), id: int32(id), ver: ver[id]})
		} else {
			idle = append(idle, fairEntry{key: dc.UtilTimeOf(id), id: int32(id), ver: ver[id]})
		}
	}
	slices.SortFunc(idle, fairAsc)
	slices.SortFunc(busy, fairAsc)
	f.idle.main, f.idle.extra = idle, f.idle.extra[:0]
	f.busy.main, f.busy.extra = busy, f.busy.extra[:0]
	f.stale = 0
	f.listsOK = true
}

// repair refreshes the lists around the dirty ids alone. A dirty
// processor's old entry dies with one fairVer bump and its fresh entry,
// keyed by what the cluster holds now, joins the idle or the busy
// overlay. Each new entry abandons exactly one old one; once the
// abandoned entries pass max(1024, n/32), compaction merges each
// overlay into its main list, which keeps the overlays a small fraction
// of the fleet.
func (f *fairState) repair(dc *cluster.Datacenter, dirty []int32) {
	ver := f.fairVer
	for _, id := range dirty {
		ver[id]++
		if dc.IsBusy(int(id)) {
			f.busy.batch = append(f.busy.batch, fairEntry{key: dc.UtilOffset(int(id)), id: id, ver: ver[id]})
		} else {
			f.idle.batch = append(f.idle.batch, fairEntry{key: dc.UtilTimeOf(int(id)), id: id, ver: ver[id]})
		}
		f.stale++
	}
	f.idle.add()
	f.busy.add()
	if f.stale > max(1024, dc.Len()/32) {
		f.idle.compact(ver)
		f.busy.compact(ver)
		f.stale = 0
	}
}

// busyHead settles the busy window and reports whether a busy entry is
// left; the least is then f.win[f.wi]. Entries leave the busy list in
// (offset, id) order and are keyed on the way into the window, which
// keeps them sorted by (u, id). The window's least entry is the least
// busy key once no unpulled entry can undercut it, and it stops pulling
// exactly then, so a second call before the next emission pulls
// nothing.
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
func (f *fairState) busyHead(dc *cluster.Datacenter) bool {
	for {
		e, more := f.busy.peek(f.fairVer)
		if f.wi < len(f.win) && (!more || f.lastK-f.win[f.wi].u > f.margin) {
			return true
		}
		if !more {
			return false
		}
		f.busy.pop()
		if f.wi == len(f.win) {
			f.win, f.wi = f.win[:0], 0
		}
		k := utilKey{u: dc.UtilAt(int(e.id), f.now), id: int(e.id)}
		f.keyed++
		f.lastK = k.u
		f.win = append(f.win, k)
		for i := len(f.win) - 1; i > f.wi && utilAsc(f.win[i], f.win[i-1]) < 0; i-- {
			f.win[i], f.win[i-1] = f.win[i-1], f.win[i]
		}
	}
}

// next consumes and returns the pass's next processor in (u, id) order:
// the lesser of the idle list's least valid entry and the settled busy
// window's least key. At most one entry per processor is valid, so the
// two heads are distinct (u, id) keys and the strict comparison needs
// no dedup. Returns false once both are exhausted.
func (f *fairState) next(dc *cluster.Datacenter) (int, bool) {
	e, idle := f.idle.peek(f.fairVer)
	if f.busyHead(dc) {
		if k := f.win[f.wi]; !idle || k.u < e.key || k.u == e.key && int32(k.id) < e.id {
			f.wi++
			return k.id, true
		}
	}
	if !idle {
		return 0, false
	}
	f.idle.pop()
	return int(e.id), true
}
