package simulator

import (
	"sort"
	"testing"
	"testing/quick"

	"iscope/internal/units"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	e := New[int]()
	var got []units.Seconds
	for _, at := range []units.Seconds{50, 10, 30, 20, 40} {
		if err := e.Schedule(at, func(now units.Seconds) { got = append(got, now) }); err != nil {
			t.Fatal(err)
		}
	}
	e.Run()
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
	e := New[int]()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		_ = e.Schedule(100, func(units.Seconds) { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie order = %v, want insertion order", got)
		}
	}
}

func TestScheduleInPastRejected(t *testing.T) {
	e := New[int]()
	_ = e.Schedule(100, func(units.Seconds) {})
	e.Run()
	if err := e.Schedule(50, func(units.Seconds) {}); err == nil {
		t.Fatal("expected error scheduling in the past")
	}
	if err := e.Schedule(100, nil); err == nil {
		t.Fatal("expected error for nil callback")
	}
	if err := e.ScheduleTag(50, 0); err == nil {
		t.Fatal("expected error scheduling tag in the past")
	}
}

func TestScheduleAtNowAllowed(t *testing.T) {
	e := New[int]()
	fired := false
	_ = e.Schedule(10, func(now units.Seconds) {
		if err := e.Schedule(now, func(units.Seconds) { fired = true }); err != nil {
			t.Errorf("scheduling at now failed: %v", err)
		}
	})
	e.Run()
	if !fired {
		t.Fatal("same-time follow-up event never fired")
	}
}

func TestCallbacksCanScheduleMore(t *testing.T) {
	e := New[int]()
	count := 0
	var tick Callback
	tick = func(now units.Seconds) {
		count++
		if count < 100 {
			_ = e.After(10, tick)
		}
	}
	_ = e.Schedule(0, tick)
	e.Run()
	if count != 100 {
		t.Fatalf("chain fired %d times, want 100", count)
	}
	if e.Now() != 990 {
		t.Fatalf("clock = %v, want 990", e.Now())
	}
}

func TestRunUntil(t *testing.T) {
	e := New[int]()
	var fired []units.Seconds
	for _, at := range []units.Seconds{10, 20, 30, 40} {
		at := at
		_ = e.Schedule(at, func(now units.Seconds) { fired = append(fired, now) })
	}
	e.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("RunUntil(25) fired %d events, want 2", len(fired))
	}
	if e.Now() != 25 {
		t.Fatalf("clock = %v, want 25", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", e.Pending())
	}
	e.Run()
	if len(fired) != 4 {
		t.Fatalf("total fired = %d, want 4", len(fired))
	}
}

func TestRunUntilDoesNotRewindClock(t *testing.T) {
	e := New[int]()
	_ = e.Schedule(100, func(units.Seconds) {})
	e.Run()
	e.RunUntil(50)
	if e.Now() != 100 {
		t.Fatalf("RunUntil rewound the clock to %v", e.Now())
	}
}

func TestStepOnEmpty(t *testing.T) {
	e := New[int]()
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestDeterministicReplayProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		run := func() []units.Seconds {
			e := New[int]()
			var got []units.Seconds
			for _, d := range delays {
				_ = e.Schedule(units.Seconds(d), func(now units.Seconds) { got = append(got, now) })
			}
			e.Run()
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
	e := New[int]()
	const n = 100000
	count := 0
	for i := 0; i < n; i++ {
		_ = e.Schedule(units.Seconds(i%997), func(units.Seconds) { count++ })
	}
	e.Run()
	if count != n {
		t.Fatalf("fired %d, want %d", count, n)
	}
}

// Tag events route through the dispatcher and interleave with closure
// events in strict (at, seq) order.
func TestTagDispatchInterleavesWithClosures(t *testing.T) {
	e := New[int]()
	var got []int
	e.SetDispatcher(func(tag int, now units.Seconds) { got = append(got, tag) })
	_ = e.ScheduleTag(10, 1)
	_ = e.Schedule(10, func(units.Seconds) { got = append(got, 2) })
	_ = e.ScheduleTag(10, 3)
	_ = e.ScheduleTag(5, 0)
	e.Run()
	want := []int{0, 1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

func TestTagEventWithoutDispatcherPanics(t *testing.T) {
	e := New[int]()
	_ = e.ScheduleTag(1, 7)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic firing tag event with no dispatcher")
		}
	}()
	e.Step()
}

func TestAfterTag(t *testing.T) {
	e := New[string]()
	var got []string
	e.SetDispatcher(func(tag string, now units.Seconds) {
		got = append(got, tag)
		if tag == "a" {
			_ = e.AfterTag(5, "b")
		}
	})
	_ = e.AfterTag(10, "a")
	e.Run()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("got %v, want [a b]", got)
	}
	if e.Now() != 15 {
		t.Fatalf("clock = %v, want 15", e.Now())
	}
}

// PendingEvents reports tags in firing order and flags closure events,
// whose callbacks cannot be serialized.
func TestPendingEventsSnapshot(t *testing.T) {
	e := New[int]()
	e.SetDispatcher(func(int, units.Seconds) {})
	_ = e.ScheduleTag(30, 3)
	_ = e.ScheduleTag(10, 1)
	_ = e.Schedule(20, func(units.Seconds) {})
	evs := e.PendingEvents()
	if len(evs) != 3 {
		t.Fatalf("len = %d, want 3", len(evs))
	}
	if evs[0].Tag != 1 || evs[0].Closure {
		t.Fatalf("evs[0] = %+v, want tag 1, non-closure", evs[0])
	}
	if !evs[1].Closure {
		t.Fatalf("evs[1] = %+v, want closure", evs[1])
	}
	if evs[2].Tag != 3 || evs[2].At != 30 {
		t.Fatalf("evs[2] = %+v, want tag 3 at 30", evs[2])
	}
}

// Reset + InjectTag restore a queue with original sequence numbers, and
// freshly scheduled events sort after restored ones at equal times.
func TestResetAndInjectTag(t *testing.T) {
	e := New[int]()
	e.SetDispatcher(func(int, units.Seconds) {})
	var got []int
	e.SetDispatcher(func(tag int, now units.Seconds) { got = append(got, tag) })
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
	e.Run()
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
	e := New[int]()
	var got []int
	e.SetDispatcher(func(tag int, now units.Seconds) { got = append(got, tag) })
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
	e.Run()
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
	e := New[int]()
	e.SetDispatcher(func(int, units.Seconds) {})
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
		e := New[int]()
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

// Tag scheduling on a warmed engine allocates nothing.
func TestScheduleTagAllocFree(t *testing.T) {
	e := NewWithCapacity[int](64, 64)
	e.SetDispatcher(func(int, units.Seconds) {})
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
	e := NewWithCapacity[int](1024, 1024)
	e.SetDispatcher(func(int, units.Seconds) {})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = e.ScheduleTag(e.Now()+units.Seconds(i%97), i)
		if e.Pending() > 512 {
			e.Step()
		}
	}
	e.Run()
}
