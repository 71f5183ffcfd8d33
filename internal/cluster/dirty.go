package cluster

// DirtySet is one consumer's change feed: the processors the
// datacenter marked since the consumer last called Reset, each listed
// once. The datacenter keeps one set per consumer and marks each at
// the transitions that move the inputs that consumer reads (see
// FairFeed and QueueFeed), so every consumer drains its own set on its
// own schedule. Past its bound the set stops listing and reports
// overflow, and the consumer must then treat every processor as
// changed. A set starts overflowed, because no consumer has built
// anything from the datacenter yet, and a restore overflows it again.
type DirtySet struct {
	ids      []int32
	marked   []bool
	overflow bool
}

// newDirtySet sizes a feed for n processors that lists at most bound
// of them before it overflows.
func newDirtySet(n, bound int) DirtySet {
	return DirtySet{ids: make([]int32, 0, min(n, bound)), marked: make([]bool, n), overflow: true}
}

// mark records that processor id changed. O(1), allocation-free and
// deduplicating; past the bound it degrades to the overflow flag.
func (d *DirtySet) mark(id int) {
	if d.overflow || d.marked[id] {
		return
	}
	if len(d.ids) == cap(d.ids) {
		d.overflow = true
		return
	}
	d.marked[id] = true
	d.ids = append(d.ids, int32(id))
}

// Dirty returns the processors marked since the last Reset and whether
// the set overflowed, in which case the list is incomplete and the
// consumer must rebuild from scratch. The slice is owned by the set and
// valid until the next datacenter mutation.
func (d *DirtySet) Dirty() ([]int32, bool) { return d.ids, d.overflow }

// Reset empties the set, typically right after its consumer drained
// it.
func (d *DirtySet) Reset() {
	for _, id := range d.ids {
		d.marked[id] = false
	}
	d.ids = d.ids[:0]
	d.overflow = false
}

// invalidate empties the set and raises the overflow flag: every
// consumer-built structure must be rebuilt.
func (d *DirtySet) invalidate() {
	d.Reset()
	d.overflow = true
}
