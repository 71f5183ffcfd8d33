// Command iscope runs one green-datacenter simulation and prints the
// energy, cost and balance summary.
//
// Usage:
//
//	iscope -scheme ScanFair -procs 960 -jobs 1200 -hu 0.3 -wind
//	iscope -scheme BinRan -procs 4800 -jobs 4000 -rate 3
//	iscope -swf thunder.swf -scheme ScanEffi -wind
//	iscope -scheme ScanFair -wind -battery 30 -faults
//	iscope -scheme ScanFair -wind -battery 5 -faults -brownout -invariants
//	iscope -scheme ScanEffi -wind -brownout-spec t1=0.1,up=2m,hold=1h
//	iscope -scheme ScanFair -wind -checkpoint run.ck -checkpoint-every 2h
//	iscope -scheme ScanFair -wind -resume run.ck -checkpoint run.ck
//	iscope -daemon http://127.0.0.1:8080 -scheme ScanFair -wind -jobs 600
//
// A run with -checkpoint can be interrupted (Ctrl-C / SIGTERM): a final
// snapshot is flushed before exiting, and -resume continues it with
// results bit-identical to an uninterrupted run.
//
// With -daemon URL the command becomes a thin client of an iscoped
// daemon: it creates a tenant from the same flags, streams the
// synthesized workload over the wire, seals the stream and prints the
// daemon's result. Flags that have no wire equivalent (-swf, -trace,
// -online, -battery, the fault flags, -brownout-spec, -checkpoint,
// -resume) are rejected in daemon mode; in this mode -windscale is the
// wind mean as a fraction of the fleet's peak demand.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"text/tabwriter"
	"time"

	"iscope"
	"iscope/internal/brownout"
	"iscope/internal/checkpoint"
	"iscope/internal/profiles"
	"iscope/internal/service"
)

// options collects every flag; one struct keeps run's signature sane.
type options struct {
	scheme    string
	procs     int
	jobs      int
	maxWidth  int
	rebalance bool
	spanDays  float64
	hu        float64
	rate      float64
	useWind   bool
	windScale float64
	seed      uint64
	swfPath   string
	trace     bool
	online    bool
	battery   float64

	// Faults section.
	faults        bool
	crashMTBFDays float64
	repairMin     float64
	dropouts      float64
	falsePass     float64
	fadePerDay    float64

	// Telemetry section.
	telemetry     bool
	telemetrySpec string

	// Brownout/invariants section.
	brownout     bool
	brownoutSpec string
	invariants   bool

	// Checkpoint/resume section.
	checkpointPath  string
	checkpointEvery time.Duration
	resumePath      string

	// Runtime profiling section. (-trace is already the power-trace
	// sampler, so the execution trace goes by -exectrace.)
	cpuProfile string
	memProfile string
	execTrace  string

	// Daemon client section.
	daemonURL  string
	tenant     string
	rpcTimeout time.Duration
	rpcRetries int
}

func main() {
	var o options
	flag.StringVar(&o.scheme, "scheme", "ScanFair", "scheduling scheme (BinRan, BinEffi, ScanRan, ScanEffi, ScanFair, BinFair)")
	flag.IntVar(&o.procs, "procs", 960, "number of processors")
	flag.IntVar(&o.jobs, "jobs", 1200, "number of synthesized jobs")
	flag.IntVar(&o.maxWidth, "maxwidth", 0, "widest synthesized job in processors (0 = procs/2; the bench tiers use 64)")
	flag.BoolVar(&o.rebalance, "rebalance", false, "enable periodic queue rebalancing (the bench large tiers run with it on)")
	flag.Float64Var(&o.spanDays, "span", 2, "workload arrival window in days")
	flag.Float64Var(&o.hu, "hu", 0.3, "fraction of high-urgency jobs")
	flag.Float64Var(&o.rate, "rate", 1, "arrival-rate factor (5 = submit times compressed to 20%)")
	flag.BoolVar(&o.useWind, "wind", false, "power the datacenter with wind + utility (default utility-only)")
	flag.Float64Var(&o.windScale, "windscale", 1, "wind strength multiplier (SWP factor)")
	flag.Uint64Var(&o.seed, "seed", 42, "master random seed")
	flag.StringVar(&o.swfPath, "swf", "", "load jobs from an SWF trace file instead of synthesizing")
	flag.BoolVar(&o.trace, "trace", false, "sample the power trace every 350 s and print it")
	flag.BoolVar(&o.online, "online", false, "profile opportunistically during the run instead of pre-scanning")
	flag.Float64Var(&o.battery, "battery", 0, "on-site battery capacity in kWh (0 = none)")

	// Faults: deterministic injection compiled from the master seed.
	// -faults enables the full default environment; the per-class flags
	// activate (or, combined with -faults, override) single classes.
	flag.BoolVar(&o.faults, "faults", false, "inject the default fault environment (crashes, supply dropouts, scanner false passes, battery fade)")
	flag.Float64Var(&o.crashMTBFDays, "crash-mtbf", 0, "mean days between per-processor crashes (0 = class off)")
	flag.Float64Var(&o.repairMin, "repair", 0, "mean crash repair time in minutes (default 30 when crashes are on)")
	flag.Float64Var(&o.dropouts, "dropouts", 0, "renewable derating windows per day (0 = class off)")
	flag.Float64Var(&o.falsePass, "false-pass", 0, "fraction of the fleet with optimistic scan reports (0 = class off)")
	flag.Float64Var(&o.fadePerDay, "fade", 0, "daily battery capacity fade fraction (0 = class off)")

	// Telemetry: replace the scheduler's oracle view of power with
	// deterministic noisy sensors and a disaggregating estimator.
	flag.BoolVar(&o.telemetry, "telemetry", false, "drive the scheduler from simulated power sensors (noise, drift, quantization, dropouts) instead of true watts")
	flag.StringVar(&o.telemetrySpec, "telemetry-spec", "", "sensor-environment overrides as key=value pairs (interval, noise, drift, quant, node, dropouts, dropmean, stuck, spikes, spikemag, margin, horizon); implies -telemetry")

	// Brownout ladder: staged graceful degradation under supply
	// deficit, with an optional inline runtime-verification monitor.
	flag.BoolVar(&o.brownout, "brownout", false, "enable the staged degradation ladder (needs -wind): DVFS down-leveling, admission deferral, battery reserve, load shedding")
	flag.StringVar(&o.brownoutSpec, "brownout-spec", "", "ladder overrides as key=value pairs (t1..t4, up, down, reserve, downlevel, restarts, hold, slack); implies -brownout")
	flag.BoolVar(&o.invariants, "invariants", false, "run the online invariant monitor (energy conservation, SoC bounds, slice conservation) and report violations")

	// Checkpoint/resume: periodic snapshots of the full simulation
	// state, plus a final one on SIGINT/SIGTERM, so a long run can be
	// interrupted and continued bit-identically.
	flag.StringVar(&o.checkpointPath, "checkpoint", "", "write snapshots of the simulation state to this file (atomically, overwriting)")
	flag.DurationVar(&o.checkpointEvery, "checkpoint-every", time.Hour, "simulated time between snapshots (with -checkpoint)")
	flag.StringVar(&o.resumePath, "resume", "", "resume the run from a snapshot file written by -checkpoint")

	// Runtime profiling: collectors flush on clean exit and on
	// SIGINT/SIGTERM alike, because a signal cancels the run
	// cooperatively and the normal return path still executes.
	flag.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&o.memProfile, "memprofile", "", "write a heap profile to this file on exit")
	flag.StringVar(&o.execTrace, "exectrace", "", "write a runtime execution trace to this file (-trace is the power-trace sampler)")

	// Daemon client mode: stream the run into an iscoped instance
	// instead of simulating in-process.
	flag.StringVar(&o.daemonURL, "daemon", "", "iscoped base URL (e.g. http://127.0.0.1:8080): stream this run into the daemon instead of simulating locally")
	flag.StringVar(&o.tenant, "tenant", "iscope-cli", "tenant name to create on the daemon (with -daemon)")
	flag.DurationVar(&o.rpcTimeout, "rpc-timeout", 30*time.Second, "per-request timeout for daemon calls (with -daemon)")
	flag.IntVar(&o.rpcRetries, "rpc-retries", 5, "retry budget per daemon call for transport errors and 503s (with -daemon); submissions carry idempotency keys, so retries never duplicate jobs")
	flag.Parse()

	// A signal cancels the run cooperatively: the scheduler stops at
	// the next event boundary and flushes a final snapshot first.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	runner := run
	if o.daemonURL != "" {
		runner = runDaemon
	}
	if err := runner(ctx, o); err != nil {
		fmt.Fprintf(os.Stderr, "iscope: %v\n", err)
		if errors.Is(err, context.Canceled) && o.checkpointPath != "" {
			fmt.Fprintf(os.Stderr, "iscope: state saved; continue with -resume %s\n", o.checkpointPath)
		}
		os.Exit(1)
	}
}

// faultSpec assembles the fault environment from the flag section;
// nil means injection stays off and the run is bit-identical to a
// fault-free one.
func (o options) faultSpec() *iscope.FaultSpec {
	spec := iscope.FaultSpec{}
	if o.faults {
		spec = iscope.DefaultFaultSpec()
	}
	if o.crashMTBFDays > 0 {
		spec.CrashMTBF = iscope.Seconds(o.crashMTBFDays * 86400)
	}
	if o.repairMin > 0 {
		spec.RepairTime = iscope.Seconds(o.repairMin * 60)
	}
	if o.dropouts > 0 {
		spec.DropoutsPerDay = o.dropouts
	}
	if o.falsePass > 0 {
		spec.FalsePassFrac = o.falsePass
	}
	if o.fadePerDay > 0 {
		spec.FadeInterval = iscope.Seconds(86400)
		spec.FadeFrac = o.fadePerDay
	}
	if !spec.Enabled() {
		return nil
	}
	return &spec
}

// synthMaxWidth is the widest job SynthesizeWorkload may emit: the
// explicit -maxwidth when given, else half the fleet.
func (o options) synthMaxWidth() int {
	if o.maxWidth > 0 {
		return o.maxWidth
	}
	maxW := o.procs / 2
	if maxW < 1 {
		maxW = 1
	}
	return maxW
}

func run(ctx context.Context, o options) (err error) {
	prof, err := profiles.Start(o.cpuProfile, o.memProfile, o.execTrace)
	if err != nil {
		return err
	}
	defer func() {
		if perr := prof.Stop(); perr != nil && err == nil {
			err = perr
		}
	}()

	scheme, ok := iscope.SchemeByName(o.scheme)
	if !ok {
		return fmt.Errorf("unknown scheme %q", o.scheme)
	}

	start := time.Now()
	fleet, err := iscope.BuildFleet(iscope.DefaultFleetSpec(o.seed, o.procs))
	if err != nil {
		return err
	}
	fmt.Printf("fleet: %d processors built and scanned in %v (scan energy %s)\n",
		o.procs, time.Since(start).Round(time.Millisecond), fleet.ScanReport.Energy)

	var tr *iscope.WorkloadTrace
	if o.swfPath != "" {
		f, err := os.Open(o.swfPath)
		if err != nil {
			return err
		}
		defer f.Close()
		tr, err = iscope.ReadSWF(f, true, o.jobs)
		if err != nil {
			return err
		}
		if err := iscope.AssignDeadlines(tr, o.seed+1, o.hu); err != nil {
			return err
		}
	} else {
		tr, err = iscope.SynthesizeWorkload(o.seed, o.jobs, o.synthMaxWidth(), o.spanDays, o.hu)
		if err != nil {
			return err
		}
	}
	if o.rate != 1 {
		if err := tr.ScaleArrival(o.rate); err != nil {
			return err
		}
	}

	cfg := iscope.RunConfig{Seed: o.seed, Jobs: tr, EnableRebalance: o.rebalance}
	if o.useWind {
		w, err := iscope.GenerateWind(o.seed+2, o.spanDays*2+2)
		if err != nil {
			return err
		}
		cfg.Wind = w.Scale(o.windScale * float64(o.procs) / 4800.0)
	}
	if o.battery > 0 {
		b := iscope.DefaultBattery(o.battery)
		cfg.Battery = &b
	}
	if o.trace {
		cfg.SampleInterval = 350
	}
	if o.online {
		cfg.Online = &iscope.OnlineProfiling{}
	}
	cfg.Faults = o.faultSpec()

	if o.telemetry || o.telemetrySpec != "" {
		spec, err := iscope.ParseTelemetrySpec(o.telemetrySpec)
		if err != nil {
			return err
		}
		cfg.Telemetry = &spec
	}

	if o.brownout || o.brownoutSpec != "" {
		if !o.useWind {
			return fmt.Errorf("-brownout watches the renewable supply; it needs -wind")
		}
		bc, err := iscope.ParseBrownoutSpec(o.brownoutSpec)
		if err != nil {
			return err
		}
		cfg.Brownout = &bc
	}
	if o.invariants {
		cfg.Invariants = &iscope.InvariantsConfig{Action: iscope.RecordInvariants}
	}

	if o.checkpointPath != "" && o.checkpointEvery > 0 {
		path := o.checkpointPath
		cfg.Checkpoint = &iscope.CheckpointConfig{
			Every: iscope.Seconds(o.checkpointEvery.Seconds()),
			Sink:  func(data []byte) error { return checkpoint.WriteBytes(path, data) },
		}
	}
	if o.resumePath != "" {
		snap, err := checkpoint.ReadBytes(o.resumePath)
		if err != nil {
			return fmt.Errorf("resume: %w", err)
		}
		cfg.Resume = snap
	}

	res, err := iscope.RunCtx(ctx, fleet, scheme, cfg)
	if err != nil {
		return err
	}

	if err := printSummary(res, cfg.Brownout != nil, cfg.Invariants != nil, cfg.Faults != nil, cfg.Telemetry != nil && cfg.Telemetry.Enabled()); err != nil {
		return err
	}

	if o.trace {
		fmt.Println("\npower trace (350 s sampling):")
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "t\twind\tdemand\tutility")
		for _, p := range res.Trace {
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", p.Time, p.Wind, p.Demand, p.Utility)
		}
		return tw.Flush()
	}
	return nil
}

// printSummary renders the result table shared by the local and
// -daemon paths; the booleans select which optional sections the run
// actually configured.
func printSummary(res *iscope.Result, showBrownout, showInvariants, showFaults, showTelemetry bool) error {
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "scheme\t%s\n", res.Scheme)
	fmt.Fprintf(tw, "jobs completed\t%d (%d deadline violations)\n", res.JobsCompleted, res.DeadlineViolations)
	fmt.Fprintf(tw, "makespan\t%s\n", res.Makespan)
	fmt.Fprintf(tw, "utility energy\t%s\n", res.UtilityEnergy)
	fmt.Fprintf(tw, "wind energy\t%s of %s offered (%.1f%% utilized)\n",
		res.WindEnergy, res.WindAvailable, 100*res.WindUtilization)
	fmt.Fprintf(tw, "energy cost\t%s (utility share %s)\n", res.Cost, res.UtilityCost)
	fmt.Fprintf(tw, "utilization variance\t%.2f h^2\n", res.UtilVariance)
	if res.ProfiledChips > 0 {
		fmt.Fprintf(tw, "online profiling\t%d chips scanned in-run, %s test energy\n",
			res.ProfiledChips, res.ProfilingEnergy)
	}
	if showBrownout {
		b := res.Brownout
		fmt.Fprintf(tw, "brownout: stages\t%d transitions, peaked at %s, ended at %s\n",
			b.Transitions, brownout.Stage(b.MaxStage), brownout.Stage(b.FinalStage))
		var degraded iscope.Seconds
		for st := 1; st < int(brownout.NumStages); st++ {
			degraded += b.StageDwell[st]
		}
		fmt.Fprintf(tw, "brownout: degraded time\t%s (%d forced down-steps, %d jobs deferred, %d reserve holds)\n",
			degraded, b.DownlevelSteps, b.JobsDeferred, b.ReserveHolds)
		if b.SlicesShed > 0 {
			fmt.Fprintf(tw, "brownout: shedding\t%d slices shed (%s work discarded), %d parks / %d releases (%d forced)\n",
				b.SlicesShed, b.ShedWork, b.ProcsParked, b.ParkReleases, b.ForcedReleases)
		}
	}
	if showInvariants {
		iv := res.Invariants
		if iv.Violations == 0 {
			fmt.Fprintf(tw, "invariants\tclean (%d checks)\n", iv.Checks)
		} else {
			fmt.Fprintf(tw, "invariants\t%d violations in %d checks; first: %s\n",
				iv.Violations, iv.Checks, iv.First)
		}
	}
	if showTelemetry {
		ts := res.Telemetry
		fmt.Fprintf(tw, "telemetry\t%d sensors, %d samples, estimation error %.1f%% mean / %.1f%% max, %s stale in dropouts\n",
			ts.Sensors, ts.Samples, 100*ts.MeanAbsErr, 100*ts.MaxAbsErr, ts.DropoutSeconds)
		if ts.GuardTrips > 0 {
			suffix := ""
			if ts.GuardActive {
				suffix = "; still degraded at end of run"
			}
			fmt.Fprintf(tw, "telemetry: guard\t%d trips, %s on factory-bin assumptions%s\n",
				ts.GuardTrips, ts.GuardSeconds, suffix)
		}
	}
	if showFaults {
		fs := res.Faults
		fmt.Fprintf(tw, "faults: crashes\t%d (%d requeues, %.1f node-hours in repair)\n",
			fs.Crashes, fs.Requeues, fs.RepairHours)
		fmt.Fprintf(tw, "faults: false passes\t%d trips, %d re-executions, %s work lost, %.1f chip-hours at fallback voltage\n",
			fs.FalsePassTrips, fs.ReExecutions, fs.LostWork, fs.FallbackVoltHours)
		fmt.Fprintf(tw, "faults: supply\t%s withheld by derating windows\n", fs.DeratedEnergy)
		if fs.BatteryFadeSteps > 0 {
			fmt.Fprintf(tw, "faults: battery\t%d fade steps, %s capacity lost\n",
				fs.BatteryFadeSteps, fs.BatteryCapacityLost)
		}
	}
	return tw.Flush()
}

// runDaemon is the -daemon client mode: create a tenant on an iscoped
// instance from the same flags, stream the synthesized workload over
// the wire, seal, and print the daemon's result through the shared
// summary table.
func runDaemon(ctx context.Context, o options) error {
	for _, f := range []struct {
		name string
		set  bool
	}{
		{"-swf", o.swfPath != ""},
		{"-trace", o.trace},
		{"-online", o.online},
		{"-battery", o.battery > 0},
		{"-faults (or a fault class flag)", o.faultSpec() != nil},
		{"-telemetry", o.telemetry || o.telemetrySpec != ""},
		{"-brownout-spec", o.brownoutSpec != ""},
		{"-checkpoint", o.checkpointPath != ""},
		{"-resume", o.resumePath != ""},
		{"-rebalance", o.rebalance},
	} {
		if f.set {
			return fmt.Errorf("%s has no wire equivalent; drop it or run without -daemon", f.name)
		}
	}
	if o.brownout && !o.useWind {
		return fmt.Errorf("-brownout watches the renewable supply; it needs -wind")
	}

	spec := service.TenantSpec{
		Name:       o.tenant,
		Scheme:     o.scheme,
		Seed:       o.seed,
		FleetSeed:  o.seed,
		Procs:      o.procs,
		Brownout:   o.brownout,
		Invariants: o.invariants,
	}
	if o.useWind {
		spec.Wind = &service.WindSpec{Seed: o.seed + 2, Days: o.spanDays*2 + 2, MeanFrac: o.windScale}
	}

	tr, err := iscope.SynthesizeWorkload(o.seed, o.jobs, o.synthMaxWidth(), o.spanDays, o.hu)
	if err != nil {
		return err
	}
	if o.rate != 1 {
		if err := tr.ScaleArrival(o.rate); err != nil {
			return err
		}
	}
	subs := make([]service.JobSubmission, len(tr.Jobs))
	for i, j := range tr.Jobs {
		subs[i] = service.JobSubmission{
			ID: j.ID, At: float64(j.Submit), Runtime: float64(j.Runtime),
			Procs: j.Procs, Boundness: j.Boundness, Deadline: float64(j.Deadline),
		}
	}

	c := &service.Client{BaseURL: o.daemonURL, Timeout: o.rpcTimeout, Retries: o.rpcRetries}
	if _, err := c.CreateTenant(ctx, spec); err != nil {
		return fmt.Errorf("create tenant %q: %w", o.tenant, err)
	}
	const batch = 256
	streamed := 0
	for i := 0; i < len(subs); i += batch {
		j := i + batch
		if j > len(subs) {
			j = len(subs)
		}
		rsp, err := c.Submit(ctx, o.tenant, subs[i:j])
		if err != nil {
			return fmt.Errorf("stream jobs [%d,%d): %w", i, j, err)
		}
		streamed += rsp.Admitted
	}
	if err := c.Seal(ctx, o.tenant); err != nil {
		return fmt.Errorf("seal tenant %q: %w", o.tenant, err)
	}
	res, err := c.Result(ctx, o.tenant)
	if err != nil {
		return fmt.Errorf("result for tenant %q: %w", o.tenant, err)
	}
	st, err := c.Status(ctx, o.tenant)
	if err != nil {
		return fmt.Errorf("status for tenant %q: %w", o.tenant, err)
	}
	fmt.Printf("daemon: tenant %q on %s — %d jobs streamed, virtual clock %s\n",
		o.tenant, o.daemonURL, streamed, iscope.Seconds(st.Now))
	if err := printSummary(res, o.brownout, o.invariants, false, false); err != nil {
		return err
	}
	// The run is read out; free the daemon-side tenant.
	return c.DeleteTenant(ctx, o.tenant)
}
