// Command benchjson converts `go test -bench -benchmem` output into a
// stable JSON summary, and gates changes against a committed baseline.
//
// Emit mode (default) reads raw benchmark output on stdin:
//
//	go test -run '^$' -bench . -benchmem -count 5 . | benchjson -o BENCH.json
//
// Gate mode compares stdin (raw output or a benchjson file) against a
// baseline JSON and exits non-zero on regression:
//
//	go test -run '^$' -bench . -benchmem -count 5 . |
//	    benchjson -baseline BENCH.json -max-ns-regress 0.10
//
// Repeated -count runs of one benchmark are aggregated by median
// (ns/op and B/op) — robust to a single noisy run — and by maximum
// (allocs/op), so an allocation that appears in any run is visible.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one aggregated benchmark result. The two *Regress
// fields are only meaningful in a baseline file: when present they
// override the -max-ns-regress / -max-allocs-regress flags for that
// benchmark alone, so a noisy fleet-scale entry can carry a looser
// budget than the tight micro-benchmark default.
type Benchmark struct {
	Name             string   `json:"name"`
	Runs             int      `json:"runs"`
	NsPerOp          float64  `json:"ns_per_op"`
	BytesPerOp       float64  `json:"bytes_per_op"`
	AllocsPerOp      float64  `json:"allocs_per_op"`
	MaxNsRegress     *float64 `json:"max_ns_regress,omitempty"`
	MaxAllocsRegress *float64 `json:"max_allocs_regress,omitempty"`
}

// File is the emitted document. Goos/Goarch/CPU and GOMAXPROCS are
// informational — they tell a reader which machine produced the
// numbers. GOMAXPROCS is the core count every result ran on: the -N
// suffix Go appends to each result name, or 1 when Go omits it.
type File struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	GOMAXPROCS int         `json:"gomaxprocs,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// benchLine matches one result row. The -N GOMAXPROCS suffix is split
// off the base name so counts aggregate across identical runs, and
// recorded once per document.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-(\d+))?\s+(\d+)\s+([0-9.]+) ns/op(?:\s+([0-9.]+) B/op\s+(\d+) allocs/op)?`)

func main() {
	var (
		out       = flag.String("o", "", "write JSON here instead of stdout")
		baseline  = flag.String("baseline", "", "gate mode: compare stdin against this benchjson file")
		maxNs     = flag.Float64("max-ns-regress", 0.10, "gate mode: fail when ns/op grows by more than this fraction")
		maxAllocs = flag.Float64("max-allocs-regress", 0.10, "gate mode: fail when allocs/op grows by more than this fraction")
	)
	flag.Parse()

	cur, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(2)
	}
	if len(cur.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark results on stdin")
		os.Exit(2)
	}

	if *baseline != "" {
		base, err := readFile(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(2)
		}
		if gate(os.Stdout, base, cur, *maxNs, *maxAllocs) {
			os.Exit(1)
		}
		return
	}

	data, err := json.MarshalIndent(cur, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(2)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(2)
	}
}

// parse reads either raw `go test -bench` output or an already-emitted
// benchjson document (sniffed by the leading '{').
func parse(r io.Reader) (*File, error) {
	br := bufio.NewReader(r)
	head, _ := br.Peek(1)
	if len(head) == 1 && head[0] == '{' {
		var f File
		if err := json.NewDecoder(br).Decode(&f); err != nil {
			return nil, fmt.Errorf("decode baseline JSON: %w", err)
		}
		return &f, nil
	}
	return parseRaw(br)
}

// sample accumulates per-run values for one benchmark name.
type sample struct {
	ns, bytes []float64
	allocs    float64
}

func parseRaw(r io.Reader) (*File, error) {
	f := &File{}
	samples := map[string]*sample{}
	var order []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			f.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			f.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			f.Pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			f.CPU = strings.TrimPrefix(line, "cpu: ")
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		procs := 1
		if m[2] != "" {
			procs, _ = strconv.Atoi(m[2])
		}
		if f.GOMAXPROCS != 0 && procs != f.GOMAXPROCS {
			return nil, fmt.Errorf("results ran at GOMAXPROCS %d and %d; one document records one core count", f.GOMAXPROCS, procs)
		}
		f.GOMAXPROCS = procs
		name := m[1]
		s := samples[name]
		if s == nil {
			s = &sample{}
			samples[name] = s
			order = append(order, name)
		}
		ns, err := strconv.ParseFloat(m[4], 64)
		if err != nil {
			return nil, fmt.Errorf("bad ns/op in %q: %w", line, err)
		}
		s.ns = append(s.ns, ns)
		if m[5] != "" {
			b, err := strconv.ParseFloat(m[5], 64)
			if err != nil {
				return nil, fmt.Errorf("bad B/op in %q: %w", line, err)
			}
			a, err := strconv.ParseFloat(m[6], 64)
			if err != nil {
				return nil, fmt.Errorf("bad allocs/op in %q: %w", line, err)
			}
			s.bytes = append(s.bytes, b)
			if a > s.allocs {
				s.allocs = a
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, name := range order {
		s := samples[name]
		f.Benchmarks = append(f.Benchmarks, Benchmark{
			Name:        name,
			Runs:        len(s.ns),
			NsPerOp:     median(s.ns),
			BytesPerOp:  median(s.bytes),
			AllocsPerOp: s.allocs,
		})
	}
	return f, nil
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func readFile(path string) (*File, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	return parse(fh)
}

// gate reports regressions of cur against base; returns true when any
// benchmark regressed beyond its budget. Per-entry budgets in the
// baseline override the flag defaults. Benchmarks present on only
// one side are reported but never fail the gate, so adding or retiring
// a benchmark doesn't require touching the baseline in the same change.
// The report opens with both documents' core counts, since ns/op only
// compares across runs on the same count.
func gate(w io.Writer, base, cur *File, maxNs, maxAllocs float64) bool {
	fmt.Fprintf(w, "  gomaxprocs: baseline %s, current %s\n", procsLabel(base.GOMAXPROCS), procsLabel(cur.GOMAXPROCS))
	baseBy := map[string]Benchmark{}
	for _, b := range base.Benchmarks {
		baseBy[b.Name] = b
	}
	failed := false
	for _, c := range cur.Benchmarks {
		b, ok := baseBy[c.Name]
		if !ok {
			fmt.Fprintf(w, "  new  %-28s %12.1f ns/op %10.0f allocs/op (no baseline)\n", c.Name, c.NsPerOp, c.AllocsPerOp)
			continue
		}
		delete(baseBy, c.Name)
		nsBudget, allocBudget := maxNs, maxAllocs
		if b.MaxNsRegress != nil {
			nsBudget = *b.MaxNsRegress
		}
		if b.MaxAllocsRegress != nil {
			allocBudget = *b.MaxAllocsRegress
		}
		nsDelta := ratio(c.NsPerOp, b.NsPerOp)
		allocDelta := ratio(c.AllocsPerOp, b.AllocsPerOp)
		verdict := "ok  "
		if nsDelta > nsBudget || allocDelta > allocBudget {
			verdict = "FAIL"
			failed = true
		}
		fmt.Fprintf(w, "  %s %-28s ns/op %12.1f -> %12.1f (%+6.1f%%, budget %+.0f%%)  allocs/op %8.0f -> %8.0f (%+6.1f%%, budget %+.0f%%)\n",
			verdict, c.Name, b.NsPerOp, c.NsPerOp, 100*nsDelta, 100*nsBudget, b.AllocsPerOp, c.AllocsPerOp, 100*allocDelta, 100*allocBudget)
		if nsDelta > nsBudget {
			fmt.Fprintf(w, "       %s: ns/op regressed %+.1f%%, budget %+.0f%%\n", c.Name, 100*nsDelta, 100*nsBudget)
		}
		if allocDelta > allocBudget {
			fmt.Fprintf(w, "       %s: allocs/op regressed %+.1f%%, budget %+.0f%%\n", c.Name, 100*allocDelta, 100*allocBudget)
		}
	}
	for name := range baseBy {
		fmt.Fprintf(w, "  gone %-28s (in baseline, not measured)\n", name)
	}
	if failed {
		fmt.Fprintln(w, "benchjson: regression gate FAILED")
	} else {
		fmt.Fprintln(w, "benchjson: regression gate passed")
	}
	return failed
}

// procsLabel prints a recorded core count; baselines written before
// benchjson recorded it carry none.
func procsLabel(n int) string {
	if n == 0 {
		return "unrecorded"
	}
	return strconv.Itoa(n)
}

// ratio is the fractional growth of cur over base; a zero base only
// regresses when cur became non-zero.
func ratio(cur, base float64) float64 {
	if base == 0 {
		if cur == 0 {
			return 0
		}
		return 1
	}
	return cur/base - 1
}
