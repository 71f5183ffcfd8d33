package simulator

import (
	"sort"
	"testing"
	"testing/quick"
	"unsafe"

	"iscope/internal/units"
)

// drain fires events until the queue is empty.
func drain[T any](e *Engine[T]) {
	for e.Step() {
	}
}

// discard is a dispatcher that ignores every event.
func discard(int, units.Seconds) {}

func TestEventsFireInTimeOrder(t *testing.T) {
	var got []units.Seconds
	e := New(func(_ int, now units.Seconds) { got = append(got, now) })
	for _, at := range []units.Seconds{50, 10, 30, 20, 40} {
		if err := e.ScheduleTag(at, 0); err != nil {
			t.Fatal(err)
		}
	}
	drain(e)
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("events fired out of order: %v", got)
	}
	if len(got) != 5 {
		t.Fatalf("fired %d events, want 5", len(got))
	}
	if e.Now() != 50 {
		t.Fatalf("clock = %v, want 50", e.Now())
	}
}

func TestTieBreakByInsertionOrder(t *testing.T) {
	var got []int
	e := New(func(tag int, _ units.Seconds) { got = append(got, tag) })
	for i := 0; i < 10; i++ {
		_ = e.ScheduleTag(100, i)
	}
	drain(e)
	for i, v := range got {
		if v != i {
			t.Fatalf("tie order = %v, want insertion order", got)
		}
	}
}

func TestScheduleInPastRejected(t *testing.T) {
	e := New(discard)
	_ = e.ScheduleTag(100, 0)
	drain(e)
	if err := e.ScheduleTag(50, 0); err == nil {
		t.Fatal("expected error scheduling in the past")
	}
	if err := e.AfterTag(-1, 0); err == nil {
		t.Fatal("expected error scheduling a negative delay")
	}
}

func TestScheduleAtNowAllowed(t *testing.T) {
	fired := false
	var e *Engine[int]
	e = New(func(tag int, now units.Seconds) {
		if tag == 1 {
			fired = true
			return
		}
		if err := e.ScheduleTag(now, 1); err != nil {
			t.Errorf("scheduling at now failed: %v", err)
		}
	})
	_ = e.ScheduleTag(10, 0)
	drain(e)
	if !fired {
		t.Fatal("same-time follow-up event never fired")
	}
}

// A handler can schedule follow-up events from inside its dispatch.
func TestCallbacksCanScheduleMore(t *testing.T) {
	count := 0
	var e *Engine[int]
	e = New(func(int, units.Seconds) {
		count++
		if count < 100 {
			_ = e.AfterTag(10, 0)
		}
	})
	_ = e.ScheduleTag(0, 0)
	drain(e)
	if count != 100 {
		t.Fatalf("chain fired %d times, want 100", count)
	}
	if e.Now() != 990 {
		t.Fatalf("clock = %v, want 990", e.Now())
	}
}

func TestStepOnEmpty(t *testing.T) {
	e := New(discard)
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestDeterministicReplayProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		run := func() []units.Seconds {
			var got []units.Seconds
			e := New(func(_ int, now units.Seconds) { got = append(got, now) })
			for _, d := range delays {
				_ = e.ScheduleTag(units.Seconds(d), 0)
			}
			drain(e)
			return got
		}
		a, b := run(), run()
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return sort.SliceIsSorted(a, func(i, j int) bool { return a[i] < a[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHeavyLoad(t *testing.T) {
	const n = 100000
	count := 0
	e := New(func(int, units.Seconds) { count++ })
	for i := 0; i < n; i++ {
		_ = e.ScheduleTag(units.Seconds(i%997), i)
	}
	drain(e)
	if count != n {
		t.Fatalf("fired %d, want %d", count, n)
	}
}

func TestAfterTag(t *testing.T) {
	var got []string
	var e *Engine[string]
	e = New(func(tag string, now units.Seconds) {
		got = append(got, tag)
		if tag == "a" {
			_ = e.AfterTag(5, "b")
		}
	})
	_ = e.AfterTag(10, "a")
	drain(e)
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("got %v, want [a b]", got)
	}
	if e.Now() != 15 {
		t.Fatalf("clock = %v, want 15", e.Now())
	}
}

// PendingEvents reports every event's time, seq and tag in firing
// order.
func TestPendingEventsSnapshot(t *testing.T) {
	e := New(discard)
	_ = e.ScheduleTag(30, 3)
	_ = e.ScheduleTag(10, 1)
	_ = e.ScheduleTag(20, 2)
	evs := e.PendingEvents()
	if len(evs) != 3 {
		t.Fatalf("len = %d, want 3", len(evs))
	}
	for i, want := range []PendingEvent[int]{{At: 10, Seq: 2, Tag: 1}, {At: 20, Seq: 3, Tag: 2}, {At: 30, Seq: 1, Tag: 3}} {
		if evs[i] != want {
			t.Fatalf("evs[%d] = %+v, want %+v", i, evs[i], want)
		}
	}
}

// Reset + InjectTag restore a queue with original sequence numbers, and
// freshly scheduled events sort after restored ones at equal times.
func TestResetAndInjectTag(t *testing.T) {
	var got []int
	e := New(func(tag int, now units.Seconds) { got = append(got, tag) })
	e.Reset(100, 50)
	if err := e.InjectTag(90, 10, 1); err == nil {
		t.Fatal("expected error injecting before now")
	}
	if err := e.InjectTag(200, 60, 1); err == nil {
		t.Fatal("expected error injecting seq beyond counter")
	}
	if err := e.InjectTag(200, 10, 1); err != nil {
		t.Fatal(err)
	}
	if err := e.ScheduleTag(200, 2); err != nil { // gets seq 51 > 10
		t.Fatal(err)
	}
	drain(e)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("fired %v, want [1 2]", got)
	}
	if e.Seq() != 51 {
		t.Fatalf("seq = %d, want 51", e.Seq())
	}
}

// SkipTo reserves a low sequence band: events injected into the band
// tie-break before everything scheduled after the skip, and the
// counter itself keeps issuing above the band.
func TestSkipToReservesSeqBand(t *testing.T) {
	var got []int
	e := New(func(tag int, now units.Seconds) { got = append(got, tag) })
	const band = 1 << 20
	e.SkipTo(band)
	if e.Seq() != band {
		t.Fatalf("seq = %d, want %d", e.Seq(), band)
	}
	if err := e.ScheduleTag(10, 100); err != nil { // seq band+1
		t.Fatal(err)
	}
	// Same timestamp, injected later but into the reserved band: must
	// fire first.
	if err := e.InjectTag(10, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := e.InjectTag(10, 2, 2); err != nil {
		t.Fatal(err)
	}
	drain(e)
	want := []int{1, 2, 100}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
	// Skipping backward must not rewind the counter.
	e.SkipTo(5)
	if e.Seq() <= band {
		t.Fatalf("SkipTo rewound the counter to %d", e.Seq())
	}
}

func TestPeekNext(t *testing.T) {
	e := New(discard)
	if _, _, ok := e.PeekNext(); ok {
		t.Fatal("PeekNext on empty queue reported an event")
	}
	_ = e.ScheduleTag(30, 1)
	_ = e.ScheduleTag(10, 2)
	_ = e.ScheduleTag(10, 3)
	at, seq, ok := e.PeekNext()
	if !ok || at != 10 || seq != 2 {
		t.Fatalf("PeekNext = (%v, %d, %v), want (10, 2, true)", at, seq, ok)
	}
	e.Step()
	at, seq, ok = e.PeekNext()
	if !ok || at != 10 || seq != 3 {
		t.Fatalf("PeekNext after step = (%v, %d, %v), want (10, 3, true)", at, seq, ok)
	}
	if e.Now() != 10 {
		t.Fatalf("PeekNext advanced the clock to %v", e.Now())
	}
}

// The queue must pop an adversarial mix of times and insertion orders
// in exactly (at, seq) order, whichever of the run and the 4-ary heap
// each push took.
func TestHeapOrderProperty(t *testing.T) {
	f := func(ats []uint8) bool {
		e := New(discard)
		type key struct {
			at  units.Seconds
			seq uint64
		}
		var want []key
		for _, a := range ats {
			at := units.Seconds(a)
			_ = e.ScheduleTag(at, 0)
			want = append(want, key{at, e.Seq()})
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].at != want[j].at {
				return want[i].at < want[j].at
			}
			return want[i].seq < want[j].seq
		})
		var got []key
		for e.Pending() > 0 {
			n := e.popMin()
			got = append(got, key{n.at, n.seq})
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// A node is its 16-byte (at, seq) key and its tag, with no padding
// beside an 8-byte-aligned tag, so every sift copy moves only what the
// order and the dispatcher need.
func TestNodeSize(t *testing.T) {
	type pair struct{ a, b int64 }
	if got, want := unsafe.Sizeof(node[pair]{}), 16+unsafe.Sizeof(pair{}); got != want {
		t.Errorf("node with a %d-byte tag is %d bytes, want %d", unsafe.Sizeof(pair{}), got, want)
	}
	if got, want := unsafe.Sizeof(node[int]{}), 16+unsafe.Sizeof(int(0)); got != want {
		t.Errorf("node with an int tag is %d bytes, want %d", got, want)
	}
}

// Tag scheduling on a warmed engine allocates nothing.
func TestScheduleTagAllocFree(t *testing.T) {
	e := NewWithCapacity(discard, 64, 64)
	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 32; i++ {
			_ = e.ScheduleTag(e.Now()+1, i)
		}
		for i := 0; i < 32; i++ {
			e.Step()
		}
	})
	if allocs != 0 {
		t.Fatalf("ScheduleTag/Step allocated %v per run, want 0", allocs)
	}
}

func BenchmarkScheduleAndStep(b *testing.B) {
	e := NewWithCapacity(discard, 1024, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = e.ScheduleTag(e.Now()+units.Seconds(i%97), i)
		if e.Pending() > 512 {
			e.Step()
		}
	}
	drain(e)
}
