package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"iscope/internal/units"
)

func TestHighestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 0, ok: false},
		{n: 19, ok: false},
		{n: 20, want: 50, ok: true},
		{n: 39, want: 50, ok: true},
		{n: 40, want: 75, ok: true},
		{n: 100, want: 90, ok: true},
		{n: 199, want: 90, ok: true},
		{n: 200, want: 95, ok: true},
		{n: 999, want: 95, ok: true},
		{n: 1000, want: 99, ok: true},
		{n: 9999, want: 99, ok: true},
		{n: 10000, want: 99.9, ok: true},
	} {
		got, ok := highestPercentile(c.n)
		if ok != c.ok || got != c.want {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && beyond(c.n, got) < minTail {
			t.Errorf("n=%d: p%v leaves only %d samples beyond it", c.n, got, beyond(c.n, got))
		}
	}
}

func TestLatencyTail(t *testing.T) {
	var l latency
	for i := 1; i <= 1000; i++ {
		l.add(time.Duration(i) * time.Millisecond)
	}
	p50, p99, err := l.tail(99)
	if err != nil {
		t.Fatal(err)
	}
	if p50 != 0.5 || p99 != 0.99 {
		t.Errorf("p50, p99 = %v, %v; want 0.5, 0.99", p50, p99)
	}
	l.samples = l.samples[:999]
	if _, _, err := l.tail(99); err == nil || !strings.Contains(err.Error(), "999 samples support only p95") {
		t.Errorf("999 samples: err = %v, want it to name the count and p95", err)
	}
}

func TestMedianAndMean(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := mean([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("mean = %v", got)
	}
	if median(nil) != 0 || mean(nil) != 0 {
		t.Error("no samples should give 0")
	}
}

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	spans := []span{
		{Name: "run", Parent: -1, Start: 0, End: 10},
		{Name: "a", Parent: 0, Start: 1, End: 3},
		{Name: "b", Parent: 0, Start: 2, End: 5}, // overlaps a
		{Name: "c", Parent: 0, Start: 8, End: 12},
		{Name: "d", Parent: 2, Start: 2.5, End: 3.5}, // grandchild of run
	}
	self := selfTimes(spans)
	// run: children cover [1,5] and [8,10].
	for i, want := range []float64{4, 2, 2, 4, 1} {
		if diff := self[i] - want; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, self[i], want)
		}
	}
	tot := totals(spans)
	if tot[0].Name != "run" || tot[0].Total != 10 || tot[0].Self != 4 {
		t.Errorf("run totals = %+v", tot[0])
	}
}

func TestTracerFiltersByRoot(t *testing.T) {
	tr := newTracer(true)
	t0 := tr.epoch
	run := tr.open("run", -1)
	tr.add("scheduler.batch", run, t0, t0.Add(2*time.Second), "off-grid")
	tr.add("scheduler.batch", run, t0, t0.Add(3*time.Second), "on-grid")
	tr.close(run)
	rec := tr.open("recover", -1)
	tr.add("scheduler.batch", rec, t0, t0.Add(5*time.Second), "off-grid")
	tr.close(rec)
	if got := tr.total("run", "scheduler.batch", "off-grid"); got != 2 {
		t.Errorf("off-grid under run = %v, want 2", got)
	}
	if got := tr.total("run", "scheduler.batch", ""); got != 5 {
		t.Errorf("all batches under run = %v, want 5", got)
	}
	off := newTracer(false)
	if id := off.open("run", -1); id != -1 {
		t.Errorf("disabled tracer opened span %d", id)
	}
	off.add("x", -1, t0, t0, "")
	if len(off.spans) != 0 {
		t.Errorf("disabled tracer recorded %d spans", len(off.spans))
	}
}

func TestOnGridClassification(t *testing.T) {
	const grid = units.Seconds(600)
	for _, c := range []struct {
		at   units.Seconds
		grid units.Seconds
		want bool
	}{
		{0, grid, true},
		{600, grid, true},
		{600 * 1e6, grid, true},
		{600.5, grid, false},
		{1200.0000001, grid, false},
		{599.9999999, grid, false},
		{37.25, grid, false},
		{600, 0, false},
	} {
		if got := onGrid(c.at, c.grid); got != c.want {
			t.Errorf("onGrid(%v, %v) = %v, want %v", c.at, c.grid, got, c.want)
		}
	}
}

func TestTallyCountsFailedRequestsAndChecks(t *testing.T) {
	var tl tally
	tl.check(true, "fine")
	tl.request(nil)
	tl.check(false, "result of %s differs", "tenant-a")
	tl.request(errors.New("connection refused"))
	tl.check(true, "fine")
	if tl.attempted != 5 || tl.failed != 2 {
		t.Fatalf("attempted %d failed %d, want 5 and 2", tl.attempted, tl.failed)
	}
	if got := tl.failFrac(); got != 0.4 {
		t.Errorf("failFrac = %v, want 0.4", got)
	}
	if tl.first != "result of tenant-a differs" {
		t.Errorf("first failure = %q", tl.first)
	}
	var empty tally
	if empty.failFrac() != 0 {
		t.Error("empty tally has a failure share")
	}
}

func TestReadWALCountsRecordsAfterCheckpoint(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "a.tenant.json"), []byte(`{"journal_seq": 2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "wal", "a")
	if err := os.MkdirAll(seg, 0o755); err != nil {
		t.Fatal(err)
	}
	var data []byte
	for seq, payload := range []string{`{"kind":"submit"}`, `{"kind":"advance"}`, `{"kind":"seal"}`} {
		frame := make([]byte, 16+len(payload))
		binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
		binary.LittleEndian.PutUint64(frame[4:], uint64(seq+1))
		copy(frame[16:], payload)
		data = append(data, frame...)
	}
	if err := os.WriteFile(filepath.Join(seg, "seg-00000000000000000001.wal"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	ws, err := readWAL(dir, []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	if ws != (walStats{Records: 3, Bytes: int64(len(data)), Replay: 1}) {
		t.Errorf("readWAL = %+v", ws)
	}
	if err := os.WriteFile(filepath.Join(seg, "seg-00000000000000000001.wal"), data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readWAL(dir, []string{"a"}); err == nil {
		t.Error("a torn last record was not reported")
	}
}

func TestEnsembleIsAFunctionOfTheFlags(t *testing.T) {
	if got := ensembleSize(1, 4.5); got != 3 {
		t.Errorf("ensembleSize(1, 4.5) = %d, want the floor of 3", got)
	}
	if got := ensembleSize(35, 1.7); got != 21 {
		t.Errorf("ensembleSize(35, 1.7) = %d, want 21", got)
	}
	a, b := inputSeeds(1, 3), inputSeeds(1, 5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("input %d differs between ensemble sizes", i)
		}
	}
	if inputSeeds(2, 1)[0] == a[0] {
		t.Error("seeds 1 and 2 give the same first input")
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the metrics the program prints
// and BENCHMARK.json in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Errorf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(defs), len(got))
			return
		}
		for i, d := range defs {
			if d.name != got[i].Name || d.unit != got[i].Unit {
				t.Errorf("%s %d: program %s [%s], BENCHMARK.json %s [%s]", kind, i, d.name, d.unit, got[i].Name, got[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	for _, w := range spec.Workloads {
		if _, ok := batchWorkloads[w.Name]; !ok && w.Name != "daemon-stream" {
			t.Errorf("BENCHMARK.json names workload %s, which the program does not run", w.Name)
		}
	}
}

func TestStolenFromDividesStealOverBusyCPUs(t *testing.T) {
	for _, c := range []struct {
		name                    string
		wall, busy, steal, want float64
	}{
		{"no steal", 2, 2, 0, 0},
		{"one CPU wanting to run bears all of it", 2, 1.5, 0.5, 0.5},
		{"idle time does not dilute it", 2, 1, 0.5, 0.5},
		{"two CPUs wanting to run each waited half", 2, 3, 1, 0.5},
		{"never more than the interval", 1, 0, 3, 1},
		{"empty interval", 0, 0, 0.1, 0},
	} {
		if got := stolenFrom(c.wall, c.busy, c.steal); got != c.want {
			t.Errorf("%s: stolenFrom(%v, %v, %v) = %v, want %v", c.name, c.wall, c.busy, c.steal, got, c.want)
		}
	}
}

func TestMeasureRunsEveryInputInOrder(t *testing.T) {
	var calls []int
	runs, err := measure([]int{2, 0, 1}, func(i int) (int, error) {
		calls = append(calls, i)
		return 10 * i, nil
	})
	if err != nil || !slices.Equal(calls, []int{2, 0, 1}) || !slices.Equal(runs, []int{20, 0, 10}) {
		t.Errorf("calls %v, runs %v, err %v", calls, runs, err)
	}
	boom := errors.New("boom")
	if _, err := measure([]int{0, 1}, func(i int) (int, error) { return 0, boom }); err != boom {
		t.Errorf("err = %v, want the input's error", err)
	}
}
