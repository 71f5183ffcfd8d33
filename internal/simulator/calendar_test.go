package simulator

import (
	"math"
	"slices"
	"testing"

	"iscope/internal/rng"
	"iscope/internal/units"
)

// Tests of the engine's event calendar — its pending-event set, the
// in-order run beside the 4-ary heap. The queue's only contract is the
// strict (at, seq) pop order, so the property test below checks every
// fired event against a brute-force model of the pending set rather
// than against a second backend.

const testGrid = units.Seconds(600) // the scheduler's 10-minute supply grid

// mev is one event of the brute-force model. Tags are unique, so a
// fired tag identifies its event.
type mev struct {
	at  units.Seconds
	seq uint64
	tag int
}

func mevCmp(a, b mev) int {
	if a.at != b.at {
		if a.at < b.at {
			return -1
		}
		return 1
	}
	if a.seq < b.seq {
		return -1
	}
	return 1
}

// modelStats counts what the randomized schedules exercised, so the
// property test cannot pass vacuously.
type modelStats struct {
	runPushes, heapPushes int
	mixedBatches          int // batches whose front timestamp sat in both structures
	compactions           int
	batches, resets       int
	halts                 int
	fired                 int
}

// modelRunner runs one randomized schedule through an engine and a
// brute-force pending-set model side by side.
type modelRunner struct {
	t       *testing.T
	e       *Engine[int]
	r       *rng.Rand
	model   []mev // pending events, unordered
	fired   []mev // events fired by the current engine call
	nextTag int
	budget  int // follow-ups handlers may still schedule
	st      *modelStats
}

// minIdx returns the model's (at, seq) minimum.
func (d *modelRunner) minIdx() int {
	best := 0
	for i := 1; i < len(d.model); i++ {
		if mevCmp(d.model[i], d.model[best]) < 0 {
			best = i
		}
	}
	return best
}

func (d *modelRunner) sortedModel() []mev {
	out := slices.Clone(d.model)
	slices.SortFunc(out, mevCmp)
	return out
}

// delay draws a scheduling offset: heavy same-timestamp clustering on
// the grid, off-grid jitter, zero delays and the occasional far-future
// event.
func (d *modelRunner) delay() units.Seconds {
	switch d.r.IntN(16) {
	case 0, 1:
		return 0
	case 2, 3:
		return units.Seconds(d.r.Uniform(0, float64(testGrid)))
	case 4:
		return units.Seconds(5000+d.r.IntN(8)) * testGrid
	}
	return units.Seconds(d.r.IntN(6)) * testGrid
}

// schedule pushes one tag event and mirrors it into the model,
// recording which structure took it and whether the push compacted the
// run.
func (d *modelRunner) schedule(at units.Seconds) {
	d.t.Helper()
	tag := d.nextTag
	d.nextTag++
	heapBefore, headBefore := len(d.e.pq), d.e.head
	if err := d.e.ScheduleTag(at, tag); err != nil {
		d.t.Fatalf("ScheduleTag(%v): %v", at, err)
	}
	d.model = append(d.model, mev{at, d.e.Seq(), tag})
	if len(d.e.pq) > heapBefore {
		d.st.heapPushes++
	} else {
		d.st.runPushes++
		if headBefore > 0 && d.e.head == 0 {
			d.st.compactions++
		}
	}
}

// dispatch is the engine's handler: the fired event must be the
// model's minimum at that moment.
func (d *modelRunner) dispatch(tag int, now units.Seconds) {
	t := d.t
	if len(d.model) == 0 {
		t.Fatalf("tag %d fired at %v with the model empty", tag, now)
	}
	i := d.minIdx()
	want := d.model[i]
	if want.tag != tag || want.at != now {
		t.Fatalf("fired tag %d at %v, model minimum is tag %d at %v (seq %d)", tag, now, want.tag, want.at, want.seq)
	}
	d.model = slices.Delete(d.model, i, i+1)
	d.fired = append(d.fired, want)
	d.st.fired++
	if got := d.e.Pending(); got != len(d.model) {
		t.Fatalf("Pending = %d inside a handler, model holds %d", got, len(d.model))
	}
	if d.r.IntN(25) == 0 {
		// Mid-dispatch, the unfired remainder of a batch is still pending.
		d.pendingEvents()
	}
	// A third of events chain follow-ups, some at delay 0 (the same
	// timestamp, which must fire in a later batch).
	for d.budget > 0 && d.r.IntN(3) == 0 {
		d.budget--
		d.schedule(now + d.delay())
	}
}

// stepBatch calls StepBatch and checks it fired exactly the events
// pending at the front timestamp when it was called, in order — or, when
// halt stops it, exactly a prefix of them, the rest discarded.
func (d *modelRunner) stepBatch() {
	t := d.t
	front := d.sortedModel()
	if len(front) == 0 {
		if n := d.e.StepBatch(nil); n != 0 {
			t.Fatalf("StepBatch on an empty queue fired %d", n)
		}
		return
	}
	at := front[0].at
	k := 0
	for k < len(front) && front[k].at == at {
		k++
	}
	front = front[:k]
	inRun, inHeap := 0, 0
	for i := d.e.head; i < len(d.e.run); i++ {
		if d.e.run[i].at == at {
			inRun++
		}
	}
	for i := range d.e.pq {
		if d.e.pq[i].at == at {
			inHeap++
		}
	}
	if inRun+inHeap != k {
		t.Fatalf("front timestamp %v: run holds %d and heap %d, model %d", at, inRun, inHeap, k)
	}
	if inRun > 0 && inHeap > 0 {
		d.st.mixedBatches++
	}
	var halt func() bool
	stopAfter := k
	if k > 1 && d.r.IntN(20) == 0 {
		stopAfter = 1 + d.r.IntN(k-1)
		halt = func() bool { return len(d.fired) == stopAfter }
	}
	d.fired = d.fired[:0]
	n := d.e.StepBatch(halt)
	d.st.batches++
	if n != stopAfter || len(d.fired) != stopAfter {
		t.Fatalf("StepBatch at %v fired %d (handler saw %d), want %d of %d pending", at, n, len(d.fired), stopAfter, k)
	}
	for i := range d.fired {
		if d.fired[i] != front[i] {
			t.Fatalf("StepBatch event %d = %+v, want %+v", i, d.fired[i], front[i])
		}
	}
	if stopAfter < k {
		// The halted batch's remainder is discarded, not re-queued.
		d.st.halts++
		for _, ev := range front[stopAfter:] {
			i := slices.Index(d.model, ev)
			if i < 0 {
				t.Fatalf("halted event %+v fired", ev)
			}
			d.model = slices.Delete(d.model, i, i+1)
		}
		if got := d.e.Pending(); got != len(d.model) {
			t.Fatalf("Pending = %d after a halted batch, model %d", got, len(d.model))
		}
	}
}

// pendingEvents returns the engine's PendingEvents after checking them
// against the sorted model.
func (d *modelRunner) pendingEvents() []PendingEvent[int] {
	evs := d.e.PendingEvents()
	want := d.sortedModel()
	if len(evs) != len(want) {
		d.t.Fatalf("PendingEvents has %d events, model %d", len(evs), len(want))
	}
	for k := range want {
		if evs[k].At != want[k].at || evs[k].Seq != want[k].seq || evs[k].Tag != want[k].tag {
			d.t.Fatalf("PendingEvents[%d] = %+v, model %+v", k, evs[k], want[k])
		}
	}
	return evs
}

// restore takes the queue through Reset and InjectTag, the checkpoint
// restore path: in (at, seq) order, as the scheduler re-injects, or
// shuffled.
func (d *modelRunner) restore() {
	t := d.t
	evs := d.pendingEvents()
	if d.r.IntN(2) == 0 {
		for i := len(evs) - 1; i > 0; i-- {
			j := d.r.IntN(i + 1)
			evs[i], evs[j] = evs[j], evs[i]
		}
	}
	d.e.Reset(d.e.Now(), d.e.Seq())
	for _, ev := range evs {
		if err := d.e.InjectTag(ev.At, ev.Seq, ev.Tag); err != nil {
			t.Fatalf("InjectTag: %v", err)
		}
	}
	d.st.resets++
}

func (d *modelRunner) run(ops int) {
	t := d.t
	for op := 0; op < ops; op++ {
		switch d.r.IntN(10) {
		case 0, 1, 2:
			for n := 1 + d.r.IntN(6); n > 0; n-- {
				d.schedule(d.e.Now() + d.delay())
			}
		case 3, 4:
			at, seq, ok := d.e.PeekNext()
			if ok != (len(d.model) > 0) {
				t.Fatalf("PeekNext ok=%v with %d pending in the model", ok, len(d.model))
			}
			if ok {
				if m := d.model[d.minIdx()]; m.at != at || m.seq != seq {
					t.Fatalf("PeekNext = (%v, %d), model minimum (%v, %d)", at, seq, m.at, m.seq)
				}
			}
			d.fired = d.fired[:0]
			if stepped := d.e.Step(); stepped != ok || ok && len(d.fired) != 1 {
				t.Fatalf("Step = %v after firing %d events, want one fired iff %v", stepped, len(d.fired), ok)
			}
		case 5, 6, 7:
			d.stepBatch()
		case 8:
			until := d.e.Now() + units.Seconds(d.r.IntN(4))*testGrid
			before := d.e.Now()
			d.e.RunUntil(until)
			for _, ev := range d.model {
				if ev.at <= until {
					t.Fatalf("RunUntil(%v) left %+v pending", until, ev)
				}
			}
			if want := max(before, until); d.e.Now() != want {
				t.Fatalf("RunUntil(%v) left the clock at %v, want %v", until, d.e.Now(), want)
			}
		case 9:
			d.restore()
		}
		if got := d.e.Pending(); got != len(d.model) {
			t.Fatalf("Pending = %d, model holds %d", got, len(d.model))
		}
	}
	d.e.Run()
	if len(d.model) != 0 || d.e.Pending() != 0 {
		t.Fatalf("Run left %d pending (model %d)", d.e.Pending(), len(d.model))
	}
}

// TestCalendarMatchesModelPopOrder drives random schedules through
// Step, StepBatch (sometimes halted), RunUntil and Reset + InjectTag —
// with same-timestamp clusters, zero-delay follow-ups from handlers and
// far-future events — and checks every fired event against the model's
// (at, seq) minimum at that moment.
func TestCalendarMatchesModelPopOrder(t *testing.T) {
	var st modelStats
	for seed := uint64(1); seed <= 40; seed++ {
		d := &modelRunner{t: t, e: New[int](), r: rng.New(seed, 7), budget: 400, st: &st}
		d.e.SetDispatcher(d.dispatch)
		d.run(300)
	}
	t.Logf("%+v", st)
	if st.runPushes == 0 || st.heapPushes == 0 {
		t.Errorf("pushes never took one side: run %d, heap %d", st.runPushes, st.heapPushes)
	}
	if st.mixedBatches == 0 {
		t.Error("no batch spanned the run and the heap")
	}
	if st.compactions == 0 {
		t.Error("the run never compacted")
	}
	if st.halts == 0 || st.resets == 0 {
		t.Errorf("halts %d, resets %d: want both exercised", st.halts, st.resets)
	}
}

func TestCalendarSameTimestampSeqTieBreak(t *testing.T) {
	eng := New[int]()
	var order []int
	eng.SetDispatcher(func(tag int, _ units.Seconds) { order = append(order, tag) })
	// All at one timestamp: must fire in insertion order.
	for i := 0; i < 50; i++ {
		if err := eng.ScheduleTag(testGrid*3, i); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	for i, tag := range order {
		if tag != i {
			t.Fatalf("tie-break violated at %d: got tag %d", i, tag)
		}
	}
}

func TestCalendarPendingAndPeek(t *testing.T) {
	eng := New[int]()
	eng.SetDispatcher(func(int, units.Seconds) {})
	if _, _, ok := eng.PeekNext(); ok {
		t.Fatal("PeekNext on empty engine reported an event")
	}
	// The first push starts the run; the second sorts before its tail
	// and takes the heap. Pending counts both, PeekNext sees the heap's.
	if err := eng.ScheduleTag(testGrid*5, 0); err != nil {
		t.Fatal(err)
	}
	if err := eng.ScheduleTag(testGrid*2, 1); err != nil {
		t.Fatal(err)
	}
	if len(eng.run) != 1 || len(eng.pq) != 1 {
		t.Fatalf("run holds %d and heap %d, want one each", len(eng.run), len(eng.pq))
	}
	if got := eng.Pending(); got != 2 {
		t.Fatalf("Pending = %d, want 2", got)
	}
	if at, _, ok := eng.PeekNext(); !ok || at != testGrid*2 {
		t.Fatalf("PeekNext = %v,%v want %v,true", at, ok, testGrid*2)
	}
	if !eng.Step() {
		t.Fatal("Step on non-empty engine returned false")
	}
	// Only the run's event remains; PeekNext must surface it.
	if at, _, ok := eng.PeekNext(); !ok || at != testGrid*5 {
		t.Fatalf("PeekNext after the heap drained = %v,%v", at, ok)
	}
	if got := eng.Pending(); got != 1 {
		t.Fatalf("Pending = %d, want 1", got)
	}
}

func TestCalendarResetAndInject(t *testing.T) {
	eng := New[int]()
	eng.SetDispatcher(func(int, units.Seconds) {})
	for i := 0; i < 10; i++ {
		if err := eng.ScheduleTag(units.Seconds(i)*testGrid, i); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunUntil(testGrid * 4)
	eng.Reset(testGrid*4, 100)
	if got := eng.Pending(); got != 0 {
		t.Fatalf("Pending after Reset = %d, want 0", got)
	}
	// Inject a checkpointed mix out of order: two events start and
	// extend the run, two sort before its tail and take the heap.
	inject := []struct {
		at  units.Seconds
		seq uint64
	}{
		{testGrid * 6, 42},
		{testGrid * 5, 41},
		{testGrid * 5, 17}, // same timestamp, earlier seq: must pop first
		{testGrid * 5000, 50},
	}
	for _, iv := range inject {
		if err := eng.InjectTag(iv.at, iv.seq, 0); err != nil {
			t.Fatalf("InjectTag(%v,%d): %v", iv.at, iv.seq, err)
		}
	}
	if len(eng.run) != 2 || len(eng.pq) != 2 {
		t.Fatalf("run holds %d and heap %d, want two each", len(eng.run), len(eng.pq))
	}
	var got []uint64
	for eng.Pending() > 0 {
		_, seq, _ := eng.PeekNext()
		got = append(got, seq)
		eng.Step()
	}
	want := []uint64{17, 41, 42, 50}
	if !slices.Equal(got, want) {
		t.Fatalf("popped seqs %v, want %v", got, want)
	}
}

func TestCalendarLongHorizonProgress(t *testing.T) {
	// Events spread over a long horizon, pushed in order so they all
	// append to the run, with an out-of-order push after each fired
	// event: the clock must follow both structures to the last event.
	eng := New[int]()
	var fired int
	eng.SetDispatcher(func(tag int, now units.Seconds) {
		fired++
		if tag >= 0 {
			_ = eng.ScheduleTag(now+testGrid/2, -1)
		}
	})
	last := units.Seconds(0)
	for i := 0; i < 5*1024; i += 97 {
		at := units.Seconds(i) * testGrid
		if err := eng.ScheduleTag(at, i); err != nil {
			t.Fatal(err)
		}
		last = at
	}
	eng.Run()
	if eng.Now() != last+testGrid/2 {
		t.Fatalf("clock at %v, want %v", eng.Now(), last+testGrid/2)
	}
	if eng.Pending() != 0 || fired != 2*53 {
		t.Fatalf("pending %d fired %d, want 0 and %d", eng.Pending(), fired, 2*53)
	}
}

func TestCalendarPendingEventsSorted(t *testing.T) {
	eng := New[int]()
	eng.SetDispatcher(func(int, units.Seconds) {})
	r := rng.New(3, 11)
	for i := 0; i < 200; i++ {
		at := units.Seconds(r.IntN(2 * 1024))
		at *= testGrid / 4 // quarter-grid offsets, pushed out of order
		if err := eng.ScheduleTag(at, i); err != nil {
			t.Fatal(err)
		}
	}
	if len(eng.run) == 0 || len(eng.pq) == 0 {
		t.Fatalf("run holds %d and heap %d, want both in use", len(eng.run), len(eng.pq))
	}
	evs := eng.PendingEvents()
	if len(evs) != 200 {
		t.Fatalf("snapshot has %d events, want 200", len(evs))
	}
	prevAt := units.Seconds(math.Inf(-1))
	prevSeq := uint64(0)
	for i, ev := range evs {
		if ev.At < prevAt || (ev.At == prevAt && ev.Seq <= prevSeq) {
			t.Fatalf("snapshot out of order at %d: (%v,%d) after (%v,%d)", i, ev.At, ev.Seq, prevAt, prevSeq)
		}
		prevAt, prevSeq = ev.At, ev.Seq
	}
}
