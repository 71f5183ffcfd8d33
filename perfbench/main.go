// Command perfbench is the repository benchmark. It runs one workload
// for about --seconds, checks the program's outputs, and prints one JSON
// result as its last line: the end-to-end metrics with --trace 0, or,
// with --trace 1, the per-layer metrics of one traced pass. The spans
// of a traced pass are written under --out.
//
// Run it from the repository root through the launcher, which builds
// this package and the iscoped daemon from source first:
//
//	bash perfbench/run.sh --workload paper4800 --seed 1 --seconds 25 --trace 0
//
// Workloads, metrics and the reasons for each are listed in
// perfbench/README.md and BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"iscope/internal/rng"
)

// endToEnd and perLayer name every metric the benchmark reports, with
// its unit: what --trace 0 prints and what --trace 1 prints. Both must
// match BENCHMARK.json.
var (
	endToEnd = []metricDef{
		{"setup_s", "s"},
		{"run_s", "s"},
		{"recover_s", "s"},
		{"peak_rss_mb", "MB"},
		{"checkpoint_mb", "MB"},
	}
	perLayer = []metricDef{
		{"fleet.build_s", "s"},
		{"workload.synth_s", "s"},
		{"wind.generate_s", "s"},
		{"scheduler.new_s", "s"},
		{"scheduler.pending_start", "count"},
		{"simulator.batches", "count"},
		{"simulator.events", "count"},
		{"simulator.events_per_batch", "ratio"},
		{"simulator.pending_peak", "count"},
		{"scheduler.event_s", "s"},
		{"scheduler.event_p50_us", "us"},
		{"scheduler.event_p99_us", "us"},
		{"scheduler.tick_s", "s"},
		{"scheduler.tick_p90_us", "us"},
		{"scheduler.result_s", "s"},
		{"checkpoint.encode_s", "s"},
		{"checkpoint.restore_s", "s"},
		{"shard.cpu_per_wall", "ratio"},
		{"shard.speedup", "ratio"},
		{"heap.alloc_mb", "MB"},
		{"heap.objects", "count"},
		{"heap.live_end_mb", "MB"},
		{"gc.cycles", "count"},
		{"gc.pause_ms", "ms"},
		{"gc.cpu_frac", "ratio"},
		{"service.create_s", "s"},
		{"service.submit_p50_ms", "ms"},
		{"service.submit_p99_ms", "ms"},
		{"service.advance_p50_ms", "ms"},
		{"service.advance_p99_ms", "ms"},
		{"service.events_fired", "count"},
		{"service.advance_empty_frac", "ratio"},
		{"service.status_p50_us", "us"},
		{"service.checkpoint_s", "s"},
		{"service.result_s", "s"},
		{"wal.records", "count"},
		{"wal.bytes", "bytes"},
		{"wal.bytes_per_record", "bytes"},
		{"wal.replay_records", "count"},
		{"proc.cpu_s", "s"},
		{"tracing.overhead_frac", "ratio"},
	}
)

type metricDef struct{ name, unit string }

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	iscoped  string
	out      string
}

// report is what a workload hands back: metric values by name, the
// self-check tally, and details printed before the result line.
type report struct {
	values map[string]float64
	tally  tally
	detail map[string]any
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: paper4800, fleet48k or daemon-stream")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed (1 is the default seed, 2 the held-out seed)")
	flag.IntVar(&o.seconds, "seconds", 25, "measuring time in seconds")
	flag.IntVar(&trace, "trace", 0, "0 reports end-to-end metrics; 1 adds a traced pass and reports per-layer metrics")
	flag.StringVar(&o.iscoped, "iscoped", "", "iscoped binary, for daemon-stream")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for daemon state and span files")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1, got %d\n", trace)
		os.Exit(2)
	}
	o.trace = trace == 1
	if err := run(o); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.seconds < 1 {
		return fmt.Errorf("--seconds must be positive, got %d", o.seconds)
	}
	var rep *report
	var err error
	if w, ok := batchWorkloads[o.workload]; ok {
		rep, err = runBatch(w, o)
	} else if o.workload == "daemon-stream" {
		rep, err = runDaemon(o)
	} else {
		return fmt.Errorf("unknown workload %q (want paper4800, fleet48k or daemon-stream)", o.workload)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", o.workload, err)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	line := resultLine{
		Correct:   rep.tally.failed == 0,
		Attempted: rep.tally.attempted,
		Failed:    rep.tally.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := rep.values[d.name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", o.workload, d.name)
		}
		line.Metrics[d.name] = metricValue{v, d.unit}
	}
	rep.detail["machine"] = describeMachine(o.out)
	rep.detail["workload"] = o.workload
	rep.detail["seed"] = o.seed
	rep.detail["fail_frac"] = rep.tally.failFrac()
	if rep.tally.first != "" {
		rep.detail["first_failure"] = rep.tally.first
	}
	if err := printJSON(map[string]any{"detail": rep.detail}); err != nil {
		return err
	}
	if err := printJSON(line); err != nil {
		return err
	}
	if !line.Correct {
		return fmt.Errorf("%s: %d of %d self-checks and requests failed; first: %s",
			o.workload, rep.tally.failed, rep.tally.attempted, rep.tally.first)
	}
	return nil
}

func printJSON(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(data))
	return err
}

// spanPath is where a traced pass's spans are written.
func spanPath(o options) string {
	return filepath.Join(o.out, "spans", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
}

// ensembleSize is how many inputs a run measures: as many as fit in
// the measuring time at the workload's nominal cost per input, at least
// three. It depends on the flags alone, so a seed always names the same
// inputs.
func ensembleSize(seconds int, inputCost float64) int {
	return max(3, int(float64(seconds)/inputCost+0.5))
}

func indices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// inputSeeds derives the ensemble's input seeds from the workload seed.
func inputSeeds(seed uint64, n int) []uint64 {
	r := rng.Named(seed, "perfbench-inputs")
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.Uint64()
	}
	return out
}

// writeSpans saves each traced pass's spans with the run's details, in
// a file named by the pass's suffix.
func writeSpans(o options, detail map[string]any, passes map[string]*tracer) error {
	for suffix, tr := range passes {
		path := strings.TrimSuffix(spanPath(o), ".json") + suffix + ".json"
		if err := tr.write(path, detail); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return nil
}
