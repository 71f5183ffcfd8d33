package main

import (
	"encoding/json"
	"strings"
	"testing"
)

const rawSample = `goos: linux
goarch: amd64
pkg: iscope
cpu: AMD EPYC 7B13
BenchmarkScanChip-8        	 2000000	       600 ns/op	      48 B/op	       1 allocs/op
BenchmarkScanChip-8        	 2000000	       580 ns/op	      48 B/op	       1 allocs/op
BenchmarkScanChip-8        	 2000000	       590 ns/op	      48 B/op	       1 allocs/op
BenchmarkSimulationRun-8   	     270	   4400000 ns/op	  977200 B/op	   15515 allocs/op
PASS
ok  	iscope	12.3s
`

func TestParseRawAggregates(t *testing.T) {
	f, err := parse(strings.NewReader(rawSample))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if f.Goos != "linux" || f.Goarch != "amd64" || f.Pkg != "iscope" || f.CPU != "AMD EPYC 7B13" {
		t.Errorf("header metadata not captured: %+v", f)
	}
	if len(f.Benchmarks) != 2 {
		t.Fatalf("got %d benchmarks, want 2", len(f.Benchmarks))
	}
	scan := f.Benchmarks[0]
	if scan.Name != "BenchmarkScanChip" {
		t.Errorf("GOMAXPROCS suffix not stripped: %q", scan.Name)
	}
	if scan.Runs != 3 || scan.NsPerOp != 590 {
		t.Errorf("median over 3 runs: got runs=%d ns=%v, want 3/590", scan.Runs, scan.NsPerOp)
	}
	if scan.BytesPerOp != 48 || scan.AllocsPerOp != 1 {
		t.Errorf("memory stats: got %v B/op %v allocs/op", scan.BytesPerOp, scan.AllocsPerOp)
	}
	sim := f.Benchmarks[1]
	if sim.Name != "BenchmarkSimulationRun" || sim.NsPerOp != 4400000 || sim.AllocsPerOp != 15515 {
		t.Errorf("single-run benchmark: %+v", sim)
	}
}

// TestParseRecordsGOMAXPROCS: the document records the core count its
// cells ran on — Go's -N name suffix, or 1 when Go omits the suffix
// (GOMAXPROCS=1) — and refuses to fold results from different counts
// into one document.
func TestParseRecordsGOMAXPROCS(t *testing.T) {
	f, err := parse(strings.NewReader(rawSample))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if f.GOMAXPROCS != 8 {
		t.Errorf("suffix -8: gomaxprocs %d, want 8", f.GOMAXPROCS)
	}

	single := "BenchmarkSimulationRunLarge/procs=4800 \t 1\t 999000000 ns/op\t 80 B/op\t 3 allocs/op\n"
	f, err = parse(strings.NewReader(single))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if f.GOMAXPROCS != 1 || f.Benchmarks[0].Name != "BenchmarkSimulationRunLarge/procs=4800" {
		t.Errorf("no suffix: gomaxprocs %d name %q, want 1 and the full name", f.GOMAXPROCS, f.Benchmarks[0].Name)
	}

	mixed := "BenchmarkA-2 \t 10\t 100 ns/op\nBenchmarkA-4 \t 10\t 90 ns/op\n"
	if _, err := parse(strings.NewReader(mixed)); err == nil {
		t.Error("results at GOMAXPROCS 2 and 4 folded into one document")
	}

	// The emitted document carries the count through a JSON round trip.
	data, err := json.Marshal(&File{GOMAXPROCS: 2, Benchmarks: []Benchmark{{Name: "BenchmarkA"}}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"gomaxprocs":2`) {
		t.Errorf("emitted document lacks gomaxprocs: %s", data)
	}
	g, err := parse(strings.NewReader(string(data)))
	if err != nil || g.GOMAXPROCS != 2 {
		t.Errorf("round trip: gomaxprocs %d (err %v), want 2", g.GOMAXPROCS, err)
	}
}

// TestGateReportsGOMAXPROCS: gate mode prints the baseline's core count
// next to the current one, and marks a baseline that predates the field.
func TestGateReportsGOMAXPROCS(t *testing.T) {
	cur := &File{GOMAXPROCS: 2, Benchmarks: []Benchmark{{Name: "BenchmarkA", NsPerOp: 100}}}
	for _, tc := range []struct {
		base int
		want string
	}{
		{1, "gomaxprocs: baseline 1, current 2"},
		{0, "gomaxprocs: baseline unrecorded, current 2"},
	} {
		var out strings.Builder
		base := &File{GOMAXPROCS: tc.base, Benchmarks: []Benchmark{{Name: "BenchmarkA", NsPerOp: 100}}}
		if gate(&out, base, cur, 0.10, 0.10) {
			t.Errorf("baseline gomaxprocs %d: equal timings failed the gate", tc.base)
		}
		if !strings.Contains(out.String(), tc.want) {
			t.Errorf("baseline gomaxprocs %d: report lacks %q:\n%s", tc.base, tc.want, out.String())
		}
	}
}

func TestParseJSONRoundTrip(t *testing.T) {
	f, err := parse(strings.NewReader(rawSample))
	if err != nil {
		t.Fatalf("parse raw: %v", err)
	}
	// A benchjson document on stdin (gate mode against a JSON file)
	// must decode to the same thing.
	var sb strings.Builder
	sb.WriteString(`{"benchmarks":[{"name":"BenchmarkScanChip","runs":3,"ns_per_op":590,"bytes_per_op":48,"allocs_per_op":1}]}`)
	g, err := parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("parse json: %v", err)
	}
	if g.Benchmarks[0] != f.Benchmarks[0] {
		t.Errorf("round trip mismatch: %+v vs %+v", g.Benchmarks[0], f.Benchmarks[0])
	}
}

func TestGate(t *testing.T) {
	base := &File{Benchmarks: []Benchmark{
		{Name: "BenchmarkA", NsPerOp: 1000, AllocsPerOp: 10},
		{Name: "BenchmarkGone", NsPerOp: 5, AllocsPerOp: 0},
	}}
	cases := []struct {
		name string
		cur  Benchmark
		fail bool
	}{
		{"within budget", Benchmark{Name: "BenchmarkA", NsPerOp: 1050, AllocsPerOp: 10}, false},
		{"improvement", Benchmark{Name: "BenchmarkA", NsPerOp: 400, AllocsPerOp: 1}, false},
		{"ns regression", Benchmark{Name: "BenchmarkA", NsPerOp: 1200, AllocsPerOp: 10}, true},
		{"alloc regression", Benchmark{Name: "BenchmarkA", NsPerOp: 1000, AllocsPerOp: 12}, true},
		{"unknown benchmark never fails", Benchmark{Name: "BenchmarkNew", NsPerOp: 9e9, AllocsPerOp: 9e9}, false},
	}
	for _, tc := range cases {
		var out strings.Builder
		cur := &File{Benchmarks: []Benchmark{tc.cur}}
		if got := gate(&out, base, cur, 0.10, 0.10); got != tc.fail {
			t.Errorf("%s: gate=%v, want %v\n%s", tc.name, got, tc.fail, out.String())
		}
		if !strings.Contains(out.String(), "BenchmarkGone") {
			t.Errorf("%s: missing-benchmark note absent from report", tc.name)
		}
	}
}

// TestGatePerBenchmarkBudgets covers the baseline-carried overrides:
// a loose per-entry budget admits a swing the global default would
// reject, a tight one rejects a swing the default would admit, and the
// failure report names the benchmark, the metric and the budget.
func TestGatePerBenchmarkBudgets(t *testing.T) {
	loose, tight := 0.50, 0.02
	base := &File{Benchmarks: []Benchmark{
		{Name: "BenchmarkLoose", NsPerOp: 1000, AllocsPerOp: 10, MaxNsRegress: &loose},
		{Name: "BenchmarkTight", NsPerOp: 1000, AllocsPerOp: 10, MaxAllocsRegress: &tight},
	}}

	var out strings.Builder
	cur := &File{Benchmarks: []Benchmark{
		// +30% ns/op: over the 10% default, under the 50% override.
		{Name: "BenchmarkLoose", NsPerOp: 1300, AllocsPerOp: 10},
	}}
	if gate(&out, base, cur, 0.10, 0.10) {
		t.Errorf("loose override ignored; report:\n%s", out.String())
	}

	out.Reset()
	cur = &File{Benchmarks: []Benchmark{
		// +50% ns/op exceeds even the loose override.
		{Name: "BenchmarkLoose", NsPerOp: 1600, AllocsPerOp: 10},
	}}
	if !gate(&out, base, cur, 0.10, 0.10) {
		t.Errorf("regression past the loose override passed; report:\n%s", out.String())
	}
	for _, want := range []string{"BenchmarkLoose", "ns/op regressed", "budget +50%"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("failure diff missing %q:\n%s", want, out.String())
		}
	}

	out.Reset()
	cur = &File{Benchmarks: []Benchmark{
		// +10% allocs/op: inside the default, outside the 2% override.
		{Name: "BenchmarkTight", NsPerOp: 1000, AllocsPerOp: 11},
	}}
	if !gate(&out, base, cur, 0.10, 0.10) {
		t.Errorf("tight alloc override ignored; report:\n%s", out.String())
	}
	for _, want := range []string{"BenchmarkTight", "allocs/op regressed", "budget +2%"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("failure diff missing %q:\n%s", want, out.String())
		}
	}
}

// TestBudgetsSurviveJSONRoundTrip pins that a baseline's per-entry
// budgets are preserved when the file is re-read in gate mode.
func TestBudgetsSurviveJSONRoundTrip(t *testing.T) {
	doc := `{"benchmarks":[{"name":"BenchmarkA","ns_per_op":100,"allocs_per_op":1,"max_ns_regress":0.5}]}`
	f, err := parse(strings.NewReader(doc))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	b := f.Benchmarks[0]
	if b.MaxNsRegress == nil || *b.MaxNsRegress != 0.5 {
		t.Errorf("max_ns_regress not decoded: %+v", b)
	}
	if b.MaxAllocsRegress != nil {
		t.Errorf("absent max_allocs_regress decoded as %v, want nil", *b.MaxAllocsRegress)
	}
}

func TestRatioZeroBase(t *testing.T) {
	if r := ratio(0, 0); r != 0 {
		t.Errorf("ratio(0,0)=%v, want 0", r)
	}
	// Going from zero allocations to any allocations is a regression.
	if r := ratio(3, 0); r <= 0.10 {
		t.Errorf("ratio(3,0)=%v, want > gate budget", r)
	}
}
