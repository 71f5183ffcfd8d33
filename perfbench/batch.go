package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"time"

	"iscope/internal/scheduler"
	"iscope/internal/units"
	"iscope/internal/wind"
	"iscope/internal/workload"
)

// batchWorkload is a sealed simulation with the whole trace pre-loaded,
// driven through Stepper.ProcessEventBatch: the path of the iscope CLI
// and of BenchmarkSimulationRunLarge.
type batchWorkload struct {
	procs int
	// workers is the worker count of the measured runs; altWorkers that
	// of the one traced comparison pass behind shard.speedup.
	workers, altWorkers int
	// inputCost is the nominal wall time of one input (run plus resume),
	// so the ensemble size is a function of --seconds alone and the
	// same seed and duration always give the same inputs.
	inputCost float64
}

// Every workload runs the synthesized Thunder-like trace of
// BenchmarkSimulationRunLarge's 4,800-proc tier, 12,000 jobs of up to 64
// procs a day, at the paper's HU share, over wind whose mean covers half
// the fleet's peak demand, as the daemon's tenants and `experiments
// -daemon` scale it.
const (
	traceJobs  = 12000
	traceDays  = 1.0
	maxWidth   = 64
	huFraction = 0.3
	windMean   = 0.5
	// snapAt is the fixed virtual instant of the one snapshot: mid-way
	// through the arrival window, never a wall-clock timer.
	snapAt = units.Seconds(12 * 3600)
)

var batchWorkloads = map[string]batchWorkload{
	"paper4800": {procs: 4800, workers: 1, altWorkers: 2, inputCost: 1.55},
	"fleet48k":  {procs: 48000, workers: 2, altWorkers: 1, inputCost: 4.0},
}

// batchInput is one generated input and what set-up built from it.
type batchInput struct {
	fleet *scheduler.Fleet
	cfg   scheduler.RunConfig
	jobs  int
}

// counts are the figures that must repeat exactly whenever the same
// input runs again.
type counts struct {
	PendingStart int `json:"pending_start"`
	Batches      int `json:"batches"`
	OnGrid       int `json:"on_grid_batches"`
	Events       int `json:"events"`
	PendingPeak  int `json:"pending_peak"`
	SnapBytes    int `json:"snapshot_bytes"`
}

// batchRun is one input's measurements.
type batchRun struct {
	Input   int          `json:"input"`
	Seed    uint64       `json:"seed"`
	Workers int          `json:"workers"`
	Setup   float64      `json:"setup_s"`
	Run     float64      `json:"run_s"`
	Recover float64      `json:"recover_s"`
	PeakRSS float64      `json:"peak_rss_mb"`
	Counts  counts       `json:"counts"`
	Usage   runtimeDelta `json:"usage"`
	// Steal is the time the hypervisor took from the timed phases,
	// which their timings leave out.
	Steal  float64 `json:"steal_s"`
	result []byte
	live   float64
}

func scanFair() scheduler.Scheme {
	sch, ok := scheduler.SchemeByName("ScanFair")
	if !ok {
		panic("ScanFair scheme missing")
	}
	return sch
}

// setup builds the fleet, synthesizes the trace and the wind, and
// builds the stepper with every job pre-loaded and the stream sealed.
func (w batchWorkload) setup(seed uint64, workers int, tr *tracer, root int) (*batchInput, *scheduler.Stepper, error) {
	t0 := time.Now()
	fleet, err := scheduler.BuildFleet(scheduler.DefaultFleetSpec(seed, w.procs))
	t1 := time.Now()
	tr.add("fleet.build", root, t0, t1, "")
	if err != nil {
		return nil, nil, err
	}
	trace, err := synthesize(seed, traceJobs)
	t2 := time.Now()
	tr.add("workload.synth", root, t1, t2, "")
	if err != nil {
		return nil, nil, err
	}
	wt, err := wind.Generate(wind.DefaultConfig(seed+2, units.Days(2*traceDays+2)))
	t3 := time.Now()
	tr.add("wind.generate", root, t2, t3, "")
	if err != nil {
		return nil, nil, err
	}
	cfg := scheduler.RunConfig{
		Seed:            seed,
		Jobs:            trace,
		Wind:            wt.Scale(windMean * float64(fleet.PeakDemand()) / float64(wt.Mean())),
		EnableRebalance: true,
		Workers:         workers,
	}
	st, err := scheduler.NewStepper(fleet, scanFair(), cfg)
	tr.add("scheduler.new", root, t3, time.Now(), "")
	if err != nil {
		return nil, nil, err
	}
	st.Seal()
	return &batchInput{fleet: fleet, cfg: cfg, jobs: len(trace.Jobs)}, st, nil
}

// synthesize generates jobs at the trace's arrival rate, with deadlines.
func synthesize(seed uint64, jobs int) (*workload.Trace, error) {
	sc := workload.DefaultSynthConfig(seed, jobs)
	sc.MaxProcs = maxWidth
	sc.Span = units.Days(traceDays * float64(jobs) / traceJobs)
	trace, err := workload.Synthesize(sc)
	if err != nil {
		return nil, err
	}
	return trace, trace.AssignDeadlines(workload.DefaultDeadlines(seed+1, huFraction))
}

// onGrid reports whether a batch's timestamp lies on the supply grid,
// where the matching, DVFS and rebalance ticks fire; arrivals and
// completions land between grid points.
func onGrid(at, interval units.Seconds) bool {
	return interval > 0 && math.Mod(float64(at), float64(interval)) == 0
}

// drive fires batches until the run finishes or, with a finite limit,
// until the next event lies past limit. With snap non-nil it takes the
// one snapshot before the first batch past snapAt and stores it there.
// It returns the events fired and the snapshot's own seconds of work,
// which callers exclude.
func drive(st *scheduler.Stepper, limit, grid units.Seconds, c *counts, snap *[]byte, tr *tracer, root int) (fired int, encode float64, err error) {
	for !st.Finished() {
		at, ok := st.PeekNextEventTime()
		if !ok && math.IsInf(float64(limit), 1) {
			return fired, encode, fmt.Errorf("simulation stalled at t=%v", st.Now())
		}
		if !ok || at > limit {
			break
		}
		if snap != nil && *snap == nil && at > snapAt {
			sw := startWatch()
			*snap, err = st.Snapshot()
			tr.add("checkpoint.encode", root, sw.t0, time.Now(), "")
			encode += sw.work(nil)
			if err != nil {
				return fired, encode, err
			}
			c.SnapBytes = len(*snap)
		}
		t0 := time.Now()
		n, err := st.ProcessEventBatch()
		t1 := time.Now()
		if err != nil {
			return fired, encode, err
		}
		fired += n
		c.Batches++
		c.Events += n
		tag := "off-grid"
		if onGrid(st.Now(), grid) {
			tag = "on-grid"
			c.OnGrid++
			c.PendingPeak = max(c.PendingPeak, st.Status().PendingEvents)
		}
		tr.add("scheduler.batch", root, t0, t1, tag)
	}
	return fired, encode, nil
}

// end is the limit that drives a sealed run to its finish.
var end = units.Seconds(math.Inf(1))

// runInput sets up one input and runs it to its Result with one
// snapshot at snapAt. With resume it then restores a second stepper
// from that snapshot, as a restarted process would, and runs it to the
// end too. Self-checks go to t.
func (w batchWorkload) runInput(idx int, seed uint64, workers int, resume bool, tr *tracer, t *tally) (*batchRun, error) {
	r := &batchRun{Input: idx, Seed: seed, Workers: workers}
	var rss peakRSS
	rss.reset()
	in, snap, err := w.firstRun(r, tr, t)
	if err != nil {
		return nil, err
	}
	if snap != nil && resume {
		if err := resumeRun(r, in, snap, tr, t); err != nil {
			return nil, err
		}
	}
	r.PeakRSS = rss.read()
	return r, nil
}

// firstRun is runInput's set-up and uninterrupted run. The stepper is
// closed and unreachable once it returns, so a resume does not hold two
// simulations at once.
func (w batchWorkload) firstRun(r *batchRun, tr *tracer, t *tally) (*batchInput, []byte, error) {
	root := tr.open("setup", -1)
	sw := startWatch()
	in, st, err := w.setup(r.Seed, r.Workers, tr, root)
	r.Setup = sw.work(&r.Steal)
	tr.close(root)
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	defer st.Close()
	r.Counts.PendingStart = st.Status().PendingEvents

	root = tr.open("run", -1)
	u := readUsage()
	sw = startWatch()
	var snap []byte
	_, encode, err := drive(st, end, in.cfg.Wind.Interval, &r.Counts, &snap, tr, root)
	var res *scheduler.Result
	if err == nil {
		t1 := time.Now()
		res, err = st.Result()
		tr.add("scheduler.result", root, t1, time.Now(), "")
	}
	r.Run = sw.work(&r.Steal) - encode
	r.Usage = since(u)
	tr.close(root)
	if err != nil {
		return nil, nil, fmt.Errorf("run: %w", err)
	}
	if tr.on {
		r.live = liveHeapMB()
	}
	if r.result, err = json.Marshal(res); err != nil {
		return nil, nil, err
	}
	t.check(res.JobsCompleted == in.jobs, "input %d: %d of %d jobs completed", r.Input, res.JobsCompleted, in.jobs)
	t.check(snap != nil, "input %d: the run ended before the snapshot instant %v", r.Input, snapAt)
	return in, snap, nil
}

// resumeRun restores a stepper from the snapshot, runs it to its
// Result and checks that Result against the uninterrupted run's.
func resumeRun(r *batchRun, in *batchInput, snap []byte, tr *tracer, t *tally) error {
	root := tr.open("recover", -1)
	sw := startWatch()
	cfg := in.cfg
	cfg.Resume = snap
	st, err := scheduler.NewStepper(in.fleet, scanFair(), cfg)
	tr.add("checkpoint.restore", root, sw.t0, time.Now(), "")
	if err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	defer st.Close()
	st.Seal()
	var c counts
	_, _, err = drive(st, end, cfg.Wind.Interval, &c, nil, tr, root)
	var res *scheduler.Result
	if err == nil {
		t1 := time.Now()
		res, err = st.Result()
		tr.add("scheduler.result", root, t1, time.Now(), "")
	}
	r.Recover = sw.work(&r.Steal)
	tr.close(root)
	if err != nil {
		return fmt.Errorf("resumed run: %w", err)
	}
	resumed, err := json.Marshal(res)
	if err != nil {
		return err
	}
	t.check(bytes.Equal(resumed, r.result), "input %d: the run resumed from the snapshot ended with a different Result", r.Input)
	return nil
}

// sameRun checks that a second run of one input repeated the first: the
// same counts, the same snapshot size and a byte-identical Result.
func sameRun(t *tally, a, b *batchRun) {
	t.check(a.Counts == b.Counts, "input %d: counts changed between runs: %+v then %+v", a.Input, a.Counts, b.Counts)
	t.check(string(a.result) == string(b.result), "input %d: Result changed between runs", a.Input)
}

// runBatch measures a batch workload. Untraced, it runs an ensemble of
// inputs generated from the seed, then the first input once more, and
// reports medians over the ensemble: one input's run time depends on its
// trace and wind far more than on noise, so the ensemble is what keeps
// the figures steady across seeds. Traced, it repeats the first input
// untraced, then runs it once traced, and once more traced at the
// alternative worker count.
func runBatch(w batchWorkload, o options) (*report, error) {
	rep := &report{values: map[string]float64{}, detail: map[string]any{}}
	t := &rep.tally
	seeds := inputSeeds(o.seed, ensembleSize(o.seconds, w.inputCost))
	off := newTracer(false)
	run := func(i int) (*batchRun, error) { return w.runInput(i, seeds[i], w.workers, true, off, t) }
	inputs := indices(len(seeds))
	if o.trace {
		inputs = make([]int, max(2, len(seeds)-2))
	}
	runs, err := measure(inputs, run)
	if err != nil {
		return nil, err
	}
	pick := func(f func(*batchRun) float64) float64 { return median(collect(runs, f)) }
	v := rep.values
	if !o.trace {
		again, err := run(0)
		if err != nil {
			return nil, err
		}
		sameRun(t, runs[0], again)
		v["setup_s"] = pick(func(r *batchRun) float64 { return r.Setup })
		v["run_s"] = pick(func(r *batchRun) float64 { return r.Run })
		v["recover_s"] = pick(func(r *batchRun) float64 { return r.Recover })
		v["peak_rss_mb"] = pick(func(r *batchRun) float64 { return r.PeakRSS })
		// Snapshot bytes carry no timing noise, only the inputs' own
		// spread, which the mean averages better than the median.
		v["checkpoint_mb"] = mean(collect(runs, func(r *batchRun) float64 { return float64(r.Counts.SnapBytes) })) / 1e6
		rep.detail["runs"] = append(runs, again)
		return rep, nil
	}

	for _, r := range runs[1:] {
		sameRun(t, runs[0], r)
	}
	tr := newTracer(true)
	traced, err := w.runInput(0, seeds[0], w.workers, true, tr, t)
	if err != nil {
		return nil, err
	}
	sameRun(t, runs[0], traced)
	alt := newTracer(true)
	altRun, err := w.runInput(0, seeds[0], w.altWorkers, false, alt, t)
	if err != nil {
		return nil, err
	}
	t.check(string(altRun.result) == string(traced.result),
		"Result at %d workers differs from the one at %d", w.altWorkers, w.workers)

	if err := schedulerLayers(v, tr, traced.Counts); err != nil {
		return nil, err
	}
	v["checkpoint.restore_s"] = tr.total("recover", "checkpoint.restore", "")
	serial, sharded := traced.Run, altRun.Run
	if w.workers > 1 {
		serial, sharded = sharded, serial
	}
	v["shard.speedup"] = serial / sharded
	runtimeLayers(v, collect(runs, func(r *batchRun) runtimeDelta { return r.Usage }))
	v["heap.live_end_mb"] = traced.live
	// The batch workloads bypass the service and the journal.
	for _, d := range perLayer {
		if strings.HasPrefix(d.name, "service.") || strings.HasPrefix(d.name, "wal.") {
			v[d.name] = 0
		}
	}
	v["tracing.overhead_frac"] = traced.Run/pick(func(r *batchRun) float64 { return r.Run }) - 1
	rep.detail["runs"] = append(runs, traced, altRun)
	rep.detail["spans"] = spanPath(o)
	return rep, writeSpans(o, rep.detail, map[string]*tracer{"": tr, fmt.Sprintf("-workers%d", w.altWorkers): alt})
}

// schedulerLayers fills the fleet, workload, wind, scheduler and
// simulator metrics from a traced run's spans and counts.
func schedulerLayers(v map[string]float64, tr *tracer, c counts) error {
	v["fleet.build_s"] = tr.total("setup", "fleet.build", "")
	v["workload.synth_s"] = tr.total("setup", "workload.synth", "")
	v["wind.generate_s"] = tr.total("setup", "wind.generate", "")
	v["scheduler.new_s"] = tr.total("setup", "scheduler.new", "")
	v["scheduler.pending_start"] = float64(c.PendingStart)
	v["simulator.batches"] = float64(c.Batches)
	v["simulator.events"] = float64(c.Events)
	v["simulator.events_per_batch"] = float64(c.Events) / float64(max(c.Batches, 1))
	v["simulator.pending_peak"] = float64(c.PendingPeak)
	offGrid := latency{samples: tr.durations("run", "scheduler.batch", "off-grid")}
	p50, p99, err := offGrid.tail(99)
	if err != nil {
		return fmt.Errorf("off-grid batches: %w", err)
	}
	v["scheduler.event_s"] = sum(offGrid.samples)
	v["scheduler.event_p50_us"] = p50 * 1e6
	v["scheduler.event_p99_us"] = p99 * 1e6
	ticks := latency{samples: tr.durations("run", "scheduler.batch", "on-grid")}
	_, p90, err := ticks.tail(90)
	if err != nil {
		return fmt.Errorf("on-grid batches: %w", err)
	}
	v["scheduler.tick_s"] = sum(ticks.samples)
	v["scheduler.tick_p90_us"] = p90 * 1e6
	v["scheduler.result_s"] = tr.total("run", "scheduler.result", "")
	v["checkpoint.encode_s"] = tr.total("run", "checkpoint.encode", "")
	return nil
}

// runtimeLayers fills the Go runtime metrics with medians over untraced
// runs, whose figures the spans' own allocations do not inflate.
func runtimeLayers(v map[string]float64, us []runtimeDelta) {
	pick := func(f func(runtimeDelta) float64) float64 { return median(collect(us, f)) }
	v["shard.cpu_per_wall"] = pick(func(u runtimeDelta) float64 { return u.CPU / u.Wall })
	v["heap.alloc_mb"] = pick(func(u runtimeDelta) float64 { return u.AllocMB })
	v["heap.objects"] = pick(func(u runtimeDelta) float64 { return u.Objects })
	v["gc.cycles"] = pick(func(u runtimeDelta) float64 { return u.GCCycles })
	v["gc.pause_ms"] = pick(func(u runtimeDelta) float64 { return u.GCPause })
	v["gc.cpu_frac"] = pick(func(u runtimeDelta) float64 { return u.GCFrac })
	v["proc.cpu_s"] = pick(func(u runtimeDelta) float64 { return u.CPU })
}
