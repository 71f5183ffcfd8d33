package main

import (
	"fmt"
	"strings"
	"testing"
)

const rawSample = `goos: linux
goarch: amd64
pkg: iscope
cpu: AMD EPYC 7B13
BenchmarkScanChip-8        	 2000000	       600 ns/op	      48 B/op	       1 allocs/op
BenchmarkSimulationRun-8   	     270	   4400000 ns/op	  977200 B/op	   15515 allocs/op
PASS
ok  	iscope	12.3s
goos: linux
goarch: amd64
pkg: iscope
cpu: AMD EPYC 7B13
BenchmarkScanChip-8        	 2000000	       580 ns/op	      48 B/op	       2 allocs/op
BenchmarkSimulationRun-8   	     270	   4300000 ns/op	  977200 B/op	   15515 allocs/op
PASS
ok  	iscope	12.1s
`

// TestParseRawAggregates: a side's output is the runs appended one
// after another, and each benchmark keeps its results in run order.
func TestParseRawAggregates(t *testing.T) {
	s, err := parseRaw(strings.NewReader(rawSample))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if fmt.Sprint(s.names) != "[BenchmarkScanChip BenchmarkSimulationRun]" {
		t.Fatalf("names %v, want ScanChip then SimulationRun with the -8 suffix stripped", s.names)
	}
	scan := s.results["BenchmarkScanChip"]
	if fmt.Sprint(scan.ns, scan.allocs) != "[600 580] [1 2]" {
		t.Errorf("ScanChip: ns %v allocs %v, want [600 580] [1 2] in run order", scan.ns, scan.allocs)
	}
	sim := s.results["BenchmarkSimulationRun"]
	if fmt.Sprint(sim.ns, sim.allocs) != "[4.4e+06 4.3e+06] [15515 15515]" {
		t.Errorf("SimulationRun: ns %v allocs %v", sim.ns, sim.allocs)
	}
}

// TestParseRawReportMetricColumns feeds BenchmarkSnapshot's rows, where
// Go prints the snapshot_bytes column between ns/op and B/op: each
// value is read by its unit, not its position.
func TestParseRawReportMetricColumns(t *testing.T) {
	const rows = `BenchmarkSnapshot/procs=4800/encode-2  	      60	  17176566 ns/op	    595425 snapshot_bytes	 7256784 B/op	    6673 allocs/op
BenchmarkSnapshot/procs=4800/restore-2 	      61	  22627172 ns/op	    595425 snapshot_bytes	 8641011 B/op	   15109 allocs/op
`
	s, err := parseRaw(strings.NewReader(rows))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for name, want := range map[string]string{
		"BenchmarkSnapshot/procs=4800/encode":  "[1.7176566e+07] [6673]",
		"BenchmarkSnapshot/procs=4800/restore": "[2.2627172e+07] [15109]",
	} {
		r := s.results[name]
		if r == nil {
			t.Errorf("%s not parsed; names %v", name, s.names)
			continue
		}
		if got := fmt.Sprint(r.ns, r.allocs); got != want {
			t.Errorf("%s: ns and allocs %s, want %s", name, got, want)
		}
	}

	if _, err := parseRaw(strings.NewReader("BenchmarkA-2 \t 10\t 100 ns/op\n")); err == nil {
		t.Error("a row without allocs/op parsed; the allocs rule could never fire on it")
	}
}

// TestParseRecordsGOMAXPROCS: a side records the core count its results
// ran on — Go's -N name suffix, or 1 when Go omits the suffix
// (GOMAXPROCS=1) — and refuses results from different counts.
func TestParseRecordsGOMAXPROCS(t *testing.T) {
	s, err := parseRaw(strings.NewReader(rawSample))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if s.gomaxprocs != 8 {
		t.Errorf("suffix -8: gomaxprocs %d, want 8", s.gomaxprocs)
	}

	single := "BenchmarkSimulationRunLarge/procs=4800 \t 1\t 999000000 ns/op\t 80 B/op\t 3 allocs/op\n"
	s, err = parseRaw(strings.NewReader(single))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if s.gomaxprocs != 1 || s.names[0] != "BenchmarkSimulationRunLarge/procs=4800" {
		t.Errorf("no suffix: gomaxprocs %d name %q, want 1 and the full name", s.gomaxprocs, s.names[0])
	}

	mixed := "BenchmarkA-2 \t 10\t 100 ns/op\t 0 allocs/op\nBenchmarkA-4 \t 10\t 90 ns/op\t 0 allocs/op\n"
	if _, err := parseRaw(strings.NewReader(mixed)); err == nil {
		t.Error("results at GOMAXPROCS 2 and 4 folded into one side")
	}
}

// raw renders one side's output at GOMAXPROCS procs: run i prints each
// benchmark's i-th ns/op, at that benchmark's allocs/op.
func raw(procs int, bench ...result) string {
	var sb strings.Builder
	for i := 0; ; i++ {
		printed := false
		for _, b := range bench {
			if i < len(b.ns) {
				fmt.Fprintf(&sb, "%s-%d \t 100\t %.1f ns/op\t 48 B/op\t %.0f allocs/op\n", b.name, procs, b.ns[i], b.allocs)
				printed = true
			}
		}
		if !printed {
			return sb.String()
		}
		sb.WriteString("PASS\n")
	}
}

type result struct {
	name   string
	ns     []float64
	allocs float64
}

// scale returns v with each element multiplied by f.
func scale(v []float64, f float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * f
	}
	return out
}

func TestGate(t *testing.T) {
	// Sorted: 96 … 104, median 100, quartiles 98 and 102.
	base := []float64{100, 104, 98, 101, 99, 103, 97, 102, 100, 96}
	// Slower in the six pairs at 112 and faster in the four at 99: the
	// median moves +12%, but only 6 of 10 pairs are lost.
	mixed := []float64{112, 112, 99, 112, 99, 112, 99, 112, 99, 112}
	flat := []float64{100, 100, 100, 100, 100, 100, 100, 100, 100, 100}
	const sim = "BenchmarkSimulationRun"
	cases := []struct {
		name           string
		parent, change string
		want           string   // "pass", "fail" or "error"
		report         []string // in the report, or the error
	}{
		{"identical sides pass",
			raw(2, result{sim, base, 600}), raw(2, result{sim, base, 600}),
			"pass", []string{"ok  ", "100.0 [98.0, 102.0]", "+0.0%", "0/10", "600 -> 600", "gate passed"}},
		{"consistent +15% fails and names the benchmark",
			raw(2, result{sim, base, 600}), raw(2, result{sim, scale(base, 1.15), 600}),
			"fail", []string{"FAIL " + sim + ": median ns/op +15.0%, slower in 10 of 10 pairs", "gate FAILED"}},
		{"+12% median losing 6 of 10 pairs passes",
			raw(2, result{sim, flat, 600}), raw(2, result{sim, mixed, 600}),
			"pass", []string{"+12.0%", "6/10", "gate passed"}},
		{"allocs +11% fails",
			raw(2, result{sim, base, 100}), raw(2, result{sim, base, 111}),
			"fail", []string{"FAIL " + sim + ": largest allocs/op 100 -> 111 (+11.0%)"}},
		{"allocs +9% passes",
			raw(2, result{sim, base, 100}), raw(2, result{sim, base, 109}),
			"pass", []string{"100 -> 109", "gate passed"}},
		{"benchmark on one side only is reported, not failed",
			raw(2, result{sim, base, 600}, result{"BenchmarkGone", base, 1}),
			raw(2, result{sim, base, 600}, result{"BenchmarkNew", scale(base, 1e6), 1e6}),
			"pass", []string{"only parent  BenchmarkGone", "only change  BenchmarkNew", "gate passed"}},
		{"mixed GOMAXPROCS is an error",
			raw(2, result{sim, base, 600}), raw(4, result{sim, base, 600}),
			"error", []string{"parent ran at GOMAXPROCS 2, change at 4"}},
		{"9 pairs is an error",
			raw(2, result{sim, base, 600}), raw(2, result{sim, base[:9], 600}),
			"error", []string{"change has 9 results of " + sim + ", want 10"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			parent, err := parseRaw(strings.NewReader(tc.parent))
			if err != nil {
				t.Fatalf("parse parent: %v", err)
			}
			change, err := parseRaw(strings.NewReader(tc.change))
			if err != nil {
				t.Fatalf("parse change: %v", err)
			}
			var out strings.Builder
			failed, err := gate(&out, parent, change)
			got := "pass"
			switch {
			case err != nil:
				got = "error"
			case failed:
				got = "fail"
			}
			if got != tc.want {
				t.Fatalf("gate: %s (err %v), want %s; report:\n%s", got, err, tc.want, out.String())
			}
			text := out.String()
			if err != nil {
				text = err.Error()
			}
			for _, want := range tc.report {
				if !strings.Contains(text, want) {
					t.Errorf("report lacks %q:\n%s", want, text)
				}
			}
		})
	}
}

func TestRatioZeroBase(t *testing.T) {
	if r := ratio(0, 0); r != 0 {
		t.Errorf("ratio(0,0)=%v, want 0", r)
	}
	// Going from zero allocations to any allocations is a regression.
	if r := ratio(3, 0); r <= bound {
		t.Errorf("ratio(3,0)=%v, want > gate bound", r)
	}
}
