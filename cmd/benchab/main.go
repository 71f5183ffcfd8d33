// Command benchab compares paired benchmark runs of a parent commit
// and a change made on one machine, and fails on a consistent
// regression:
//
//	benchab PARENT.txt CHANGE.txt
//
// Each file holds one side's raw `go test -bench -benchmem` output:
// ten runs of `-count 1`, appended in the order scripts/bench_ab.sh
// ran them, alternating the sides. The i-th result of a benchmark on
// one side pairs with its i-th on the other, so the two halves of a
// pair ran back to back.
//
// A benchmark fails when the change is slower in at least 9 of the 10
// pairs and its median ns/op is more than 10% above the parent's, or
// when its largest allocs/op is more than 10% above the parent's (an
// allocation that appears in any run is real). A benchmark on one
// side only is reported and never fails, so a change may add or
// retire one.
//
// Exit status: 0 when no benchmark fails, 1 when one does, 2 when the
// two outputs cannot be compared: a file is unreadable or holds no
// results, a benchmark has other than 10 results on a side, or the
// sides ran at different GOMAXPROCS.
package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// The rule. The 9-of-10 threshold is the one a claimed gain must meet,
// turned round. On a 2-vCPU VM, two A/A checks of 10 alternating pairs
// (two copies of one test binary, and one commit gated against itself)
// read median ratios of 0.979–1.125 while the slower side lost 4–7
// pairs: a bound on the median alone fires on that noise, and the
// pair count keeps it from doing so.
const (
	pairs   = 10   // results per benchmark on each side
	minLost = 9    // pairs a change must lose before its ns/op fails
	bound   = 0.10 // growth of median ns/op or largest allocs/op that fails
)

// benchLine matches one result row: the name, the -N GOMAXPROCS suffix
// Go appends when GOMAXPROCS > 1, the iteration count, and the row's
// `value unit` columns.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-(\d+))?\s+(\d+)\s+(.+)$`)

// side is one commit's output: each benchmark's results in run order.
type side struct {
	gomaxprocs int
	names      []string // in first-seen order
	results    map[string]*samples
}

type samples struct {
	ns, allocs []float64
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchab PARENT.txt CHANGE.txt")
		os.Exit(2)
	}
	check := func(err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchab: %v\n", err)
			os.Exit(2)
		}
	}
	parent, err := readRaw(os.Args[1])
	check(err)
	change, err := readRaw(os.Args[2])
	check(err)
	failed, err := gate(os.Stdout, parent, change)
	check(err)
	if failed {
		os.Exit(1)
	}
}

func readRaw(path string) (*side, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	s, err := parseRaw(fh)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// parseRaw reads raw `go test -bench -benchmem` output. Go prints
// ns/op first, then any b.ReportMetric columns, then B/op and
// allocs/op, so each value is read by its unit.
func parseRaw(r io.Reader) (*side, error) {
	s := &side{results: map[string]*samples{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		procs := 1
		if m[2] != "" {
			procs, _ = strconv.Atoi(m[2])
		}
		if s.gomaxprocs != 0 && procs != s.gomaxprocs {
			return nil, fmt.Errorf("results ran at GOMAXPROCS %d and %d; one side runs at one core count", s.gomaxprocs, procs)
		}
		s.gomaxprocs = procs
		cols := strings.Fields(m[4])
		if len(cols)%2 != 0 {
			return nil, fmt.Errorf("unpaired value and unit in %q", line)
		}
		ns, allocs := -1.0, -1.0
		for i := 0; i < len(cols); i += 2 {
			if cols[i+1] != "ns/op" && cols[i+1] != "allocs/op" {
				continue
			}
			v, err := strconv.ParseFloat(cols[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad %s in %q: %w", cols[i+1], line, err)
			}
			if cols[i+1] == "ns/op" {
				ns = v
			} else {
				allocs = v
			}
		}
		if ns < 0 || allocs < 0 {
			return nil, fmt.Errorf("no ns/op or allocs/op in %q (run with -benchmem)", line)
		}
		name := m[1]
		r := s.results[name]
		if r == nil {
			r = &samples{}
			s.results[name] = r
			s.names = append(s.names, name)
		}
		r.ns = append(r.ns, ns)
		r.allocs = append(r.allocs, allocs)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return s, nil
}

// gate writes the report of change against parent and returns true
// when a benchmark regressed. It returns an error, and no verdict, when
// the two sides cannot be compared.
func gate(w io.Writer, parent, change *side) (bool, error) {
	if len(parent.names) == 0 || len(change.names) == 0 {
		return false, fmt.Errorf("no benchmark results: parent has %d benchmarks, change %d", len(parent.names), len(change.names))
	}
	if parent.gomaxprocs != change.gomaxprocs {
		return false, fmt.Errorf("parent ran at GOMAXPROCS %d, change at %d; ns/op compares only at one core count", parent.gomaxprocs, change.gomaxprocs)
	}
	for _, sd := range []struct {
		label string
		s     *side
	}{{"parent", parent}, {"change", change}} {
		for _, name := range sd.s.names {
			if n := len(sd.s.results[name].ns); n != pairs {
				return false, fmt.Errorf("%s has %d results of %s, want %d", sd.label, n, name, pairs)
			}
		}
	}

	fmt.Fprintf(w, "benchab: %d pairs at GOMAXPROCS %d; a benchmark fails when the change loses %d or more pairs with its median ns/op up more than %.0f%%, or its largest allocs/op is up more than %.0f%%\n",
		pairs, parent.gomaxprocs, minLost, 100*bound, 100*bound)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "\tbenchmark\tparent ns/op [q1, q3]\tchange ns/op [q1, q3]\tmedian\tlost\tlargest allocs/op")
	var reasons []string
	for _, name := range parent.names {
		p := parent.results[name]
		c, ok := change.results[name]
		pAllocs := slices.Max(p.allocs)
		if !ok {
			fmt.Fprintf(tw, "only parent\t%s\t%s\t-\t\t\t%.0f -> -\n", name, spread(p.ns), pAllocs)
			continue
		}
		nsDelta := ratio(median(c.ns), median(p.ns))
		lost := 0
		for i := range p.ns {
			if c.ns[i] > p.ns[i] {
				lost++
			}
		}
		cAllocs := slices.Max(c.allocs)
		allocDelta := ratio(cAllocs, pAllocs)
		verdict := "ok"
		if lost >= minLost && nsDelta > bound {
			verdict = "FAIL"
			reasons = append(reasons, fmt.Sprintf("%s: median ns/op %+.1f%%, slower in %d of %d pairs", name, 100*nsDelta, lost, pairs))
		}
		if allocDelta > bound {
			verdict = "FAIL"
			reasons = append(reasons, fmt.Sprintf("%s: largest allocs/op %.0f -> %.0f (%+.1f%%)", name, pAllocs, cAllocs, 100*allocDelta))
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+.1f%%\t%d/%d\t%.0f -> %.0f\n",
			verdict, name, spread(p.ns), spread(c.ns), 100*nsDelta, lost, pairs, pAllocs, cAllocs)
	}
	for _, name := range change.names {
		if _, ok := parent.results[name]; !ok {
			c := change.results[name]
			fmt.Fprintf(tw, "only change\t%s\t-\t%s\t\t\t- -> %.0f\n", name, spread(c.ns), slices.Max(c.allocs))
		}
	}
	tw.Flush()
	for _, r := range reasons {
		fmt.Fprintf(w, "benchab: FAIL %s\n", r)
	}
	if len(reasons) > 0 {
		fmt.Fprintln(w, "benchab: regression gate FAILED")
		return true, nil
	}
	fmt.Fprintln(w, "benchab: regression gate passed")
	return false, nil
}

// spread prints the median of v and its quartiles, the medians of v's
// lower and upper halves.
func spread(v []float64) string {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	return fmt.Sprintf("%.1f [%.1f, %.1f]", median(s), median(s[:n/2]), median(s[(n+1)/2:]))
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
