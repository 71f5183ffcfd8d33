// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -run all                 # everything, 1/5 scale
//	experiments -run fig8 -scale paper   # one figure at full 4800 CPUs
//	experiments -run fig5,fig6 -seed 7
//	experiments -run fig8 -manifest .cells -retries 2 -cell-timeout 10m
//	experiments -daemon http://127.0.0.1:8080 -jobs 600 -procs 240
//
// Available targets: table1, table2, fig4, fig5, fig6, fig7, fig8,
// fig9, fig10, ablations, online, percore, brownout, telemetry, all.
//
// With -daemon URL the command skips the local pipeline and instead
// runs a per-scheme comparison against a live iscoped daemon: one
// tenant per Table 2 scheme, an identical workload streamed into all
// of them in interleaved batches, then a side-by-side result table.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"iscope"
	"iscope/internal/experiments"
	"iscope/internal/profiles"
	"iscope/internal/service"
)

func main() {
	var (
		run     = flag.String("run", "all", "comma-separated targets (table1,table2,fig4..fig10,ablations,online,percore,brownout,telemetry,all)")
		scale   = flag.String("scale", "default", "experiment scale: quick, default, paper")
		seed    = flag.Uint64("seed", 42, "master random seed")
		procs   = flag.Int("procs", 0, "override fleet size")
		jobs    = flag.Int("jobs", 0, "override job count")
		csvDir  = flag.String("csvdir", "", "also write machine-readable CSVs into this directory")
		plotDir = flag.String("plotdir", "", "also write gnuplot bundles (.dat + .gp) into this directory")

		parallel    = flag.Int("parallel", 0, "worker count for each cell's sharded fair-order pass, the one parallel scheduling kernel (0/1 = serial; results are bit-identical for every value)")
		cellTimeout = flag.Duration("cell-timeout", 0, "wall-clock budget per grid cell (0 = unlimited)")
		retries     = flag.Int("retries", 0, "extra attempts for a failed grid cell")
		manifestDir = flag.String("manifest", "", "persist completed grid cells here; an interrupted run resumes only the missing ones")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		execTrace  = flag.String("trace", "", "write a runtime execution trace to this file")

		daemonURL  = flag.String("daemon", "", "iscoped base URL: run the per-scheme comparison against a live daemon instead of the local pipeline")
		rpcTimeout = flag.Duration("rpc-timeout", 30*time.Second, "per-request timeout for daemon calls (with -daemon)")
		rpcRetries = flag.Int("rpc-retries", 5, "retry budget per daemon call for transport errors and 503s (with -daemon); submissions carry idempotency keys, so retries never duplicate jobs")
	)
	flag.Parse()

	var opt experiments.Options
	switch *scale {
	case "quick":
		opt = experiments.QuickOptions(*seed)
	case "default":
		opt = experiments.DefaultOptions(*seed)
	case "paper":
		opt = experiments.PaperOptions(*seed)
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}
	if *procs > 0 {
		opt.NumProcs = *procs
	}
	if *jobs > 0 {
		opt.NumJobs = *jobs
	}
	opt.CellTimeout = *cellTimeout
	opt.CellRetries = *retries
	opt.SimWorkers = *parallel

	// SIGINT/SIGTERM cancels the grid cooperatively: in-flight cells
	// stop, completed ones stay in the manifest, and a re-run with the
	// same -manifest resumes only the missing cells.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	opt.Context = ctx

	if *daemonURL != "" {
		c := &service.Client{BaseURL: *daemonURL, Timeout: *rpcTimeout, Retries: *rpcRetries}
		if err := runDaemon(ctx, c, opt); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		return
	}

	targets := strings.Split(*run, ",")
	if *run == "all" {
		targets = []string{"table1", "table2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "ablations", "online", "percore", "brownout", "telemetry"}
	}

	// Profiles flush on every exit path below — including the
	// signal-cancelled one, which returns through the same code —
	// so an interrupted grid still leaves usable collector output.
	prof, err := profiles.Start(*cpuProfile, *memProfile, *execTrace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	code := runAll(targets, opt, *csvDir, *plotDir, *manifestDir)
	if err := prof.Stop(); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		if code == 0 {
			code = 1
		}
	}
	if code != 0 {
		os.Exit(code)
	}
}

// runDaemon is the -daemon mode: the Table 2 scheme comparison run
// remotely. One tenant per scheme is created on the daemon, the same
// synthesized workload is streamed into all of them in interleaved
// batches (exercising the multiplexer the way concurrent clients
// would), and the sealed results are printed side by side.
func runDaemon(ctx context.Context, c *service.Client, opt experiments.Options) error {
	const (
		spanDays = 2.0
		huFrac   = 0.3
		batch    = 128
	)
	maxW := opt.NumProcs / 2
	if maxW < 1 {
		maxW = 1
	}
	tr, err := iscope.SynthesizeWorkload(opt.Seed, opt.NumJobs, maxW, spanDays, huFrac)
	if err != nil {
		return err
	}
	subs := make([]service.JobSubmission, len(tr.Jobs))
	for i, j := range tr.Jobs {
		subs[i] = service.JobSubmission{
			ID: j.ID, At: float64(j.Submit), Runtime: float64(j.Runtime),
			Procs: j.Procs, Boundness: j.Boundness, Deadline: float64(j.Deadline),
		}
	}

	schemes := iscope.Schemes()
	tenantName := func(s iscope.Scheme) string { return "exp-" + s.Name }
	for _, s := range schemes {
		spec := service.TenantSpec{
			Name:      tenantName(s),
			Scheme:    s.Name,
			Seed:      opt.Seed,
			FleetSeed: opt.Seed,
			Procs:     opt.NumProcs,
			Wind:      &service.WindSpec{Seed: opt.Seed + 2, Days: spanDays*2 + 2, MeanFrac: 0.5},
			Workers:   opt.SimWorkers,
		}
		if _, err := c.CreateTenant(ctx, spec); err != nil {
			return fmt.Errorf("create tenant %q: %w", spec.Name, err)
		}
	}
	for i := 0; i < len(subs); i += batch {
		j := i + batch
		if j > len(subs) {
			j = len(subs)
		}
		for _, s := range schemes {
			if _, err := c.Submit(ctx, tenantName(s), subs[i:j]); err != nil {
				return fmt.Errorf("stream jobs [%d,%d) into %q: %w", i, j, tenantName(s), err)
			}
		}
	}

	fmt.Printf("==== remote scheme comparison via %s (procs=%d jobs=%d seed=%d) ====\n",
		c.BaseURL, opt.NumProcs, opt.NumJobs, opt.Seed)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scheme\tjobs\tviol\tutility\twind\tutilized\tcost\tvariance")
	for _, s := range schemes {
		name := tenantName(s)
		if err := c.Seal(ctx, name); err != nil {
			return fmt.Errorf("seal %q: %w", name, err)
		}
		res, err := c.Result(ctx, name)
		if err != nil {
			return fmt.Errorf("result for %q: %w", name, err)
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%s\t%s\t%.1f%%\t%s\t%.2f h^2\n",
			s.Name, res.JobsCompleted, res.DeadlineViolations,
			res.UtilityEnergy, res.WindEnergy, 100*res.WindUtilization,
			res.Cost, res.UtilVariance)
		if err := c.DeleteTenant(ctx, name); err != nil {
			return fmt.Errorf("delete %q: %w", name, err)
		}
	}
	return tw.Flush()
}

// runAll drives every requested target and returns the process exit
// code, so main can flush the profiling collectors before exiting.
func runAll(targets []string, opt experiments.Options, csvDir, plotDir, manifestDir string) int {
	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			return 1
		}
	}
	for _, tgt := range targets {
		tgt = strings.TrimSpace(tgt)
		if manifestDir != "" {
			// One manifest subdirectory per target: cell keys are only
			// unique within a figure's grid.
			opt.ManifestDir = filepath.Join(manifestDir, tgt)
		}
		if err := runOne(tgt, opt, csvDir, plotDir); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", tgt, err)
			if errors.Is(err, context.Canceled) && manifestDir != "" {
				fmt.Fprintf(os.Stderr, "experiments: completed cells saved; re-run with -manifest %s to resume\n", manifestDir)
			}
			return 1
		}
	}
	return 0
}

// csvWriter is implemented by every figure result with a CSV dump.
type csvWriter interface {
	WriteCSV(w io.Writer) error
}

// writeCSV dumps a result to <dir>/<target>.csv when dir is set.
func writeCSV(dir, target string, r csvWriter) error {
	if dir == "" || r == nil {
		return nil
	}
	f, err := os.Create(filepath.Join(dir, target+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return r.WriteCSV(f)
}

// plotter is implemented by figure results with a gnuplot bundle.
type plotter interface {
	WriteGnuplot(dir string) error
}

func writePlot(dir string, r plotter) error {
	if dir == "" || r == nil {
		return nil
	}
	return r.WriteGnuplot(dir)
}

func runOne(target string, opt experiments.Options, csvDir, plotDir string) error {
	start := time.Now()
	fmt.Printf("==== %s (procs=%d jobs=%d seed=%d) ====\n", target, opt.NumProcs, opt.NumJobs, opt.Seed)
	var err error
	switch target {
	case "table1":
		err = experiments.WriteTable1(os.Stdout)
	case "table2":
		err = experiments.WriteTable2(os.Stdout)
	case "fig4":
		var r *experiments.Fig4Result
		if r, err = experiments.Fig4(opt); err == nil {
			if err = r.WriteText(os.Stdout); err == nil {
				err = writeCSV(csvDir, "fig4", r)
			}
		}
	case "fig5":
		var r *experiments.Fig5Result
		if r, err = experiments.Fig5(opt); err == nil {
			if err = r.WriteText(os.Stdout); err == nil {
				err = writeCSV(csvDir, "fig5", r)
			}
			if err == nil {
				err = writePlot(plotDir, r)
			}
		}
	case "fig6":
		var r *experiments.Fig6Result
		if r, err = experiments.Fig6(opt); err == nil {
			if err = r.WriteText(os.Stdout); err == nil {
				err = writeCSV(csvDir, "fig6", r)
			}
			if err == nil {
				err = writePlot(plotDir, r)
			}
		}
	case "fig7":
		var r *experiments.Fig7Result
		if r, err = experiments.Fig7(opt); err == nil {
			if err = r.WriteText(os.Stdout); err == nil {
				err = writeCSV(csvDir, "fig7", r)
			}
			if err == nil {
				err = writePlot(plotDir, r)
			}
		}
	case "fig8":
		var r *experiments.Fig8Result
		if r, err = experiments.Fig8(opt); err == nil {
			if err = r.WriteText(os.Stdout); err == nil {
				err = writeCSV(csvDir, "fig8", r)
			}
			if err == nil {
				err = writePlot(plotDir, r)
			}
		}
	case "fig9":
		var r *experiments.Fig9Result
		if r, err = experiments.Fig9(opt); err == nil {
			if err = r.WriteText(os.Stdout); err == nil {
				err = writeCSV(csvDir, "fig9", r)
			}
			if err == nil {
				err = writePlot(plotDir, r)
			}
		}
	case "fig10":
		var r *experiments.Fig10Result
		if r, err = experiments.Fig10(opt); err == nil {
			if err = r.WriteText(os.Stdout); err == nil {
				err = writeCSV(csvDir, "fig10", r)
			}
			if err == nil {
				err = writePlot(plotDir, r)
			}
		}
	case "ablations":
		var r *experiments.AblationResult
		if r, err = experiments.Ablations(opt); err == nil {
			err = r.WriteText(os.Stdout)
		}
	case "online":
		var r *experiments.OnlineStudyResult
		if r, err = experiments.OnlineStudy(opt); err == nil {
			err = r.WriteText(os.Stdout)
		}
	case "percore":
		var r *experiments.PerCoreStudyResult
		if r, err = experiments.PerCoreStudy(opt); err == nil {
			err = r.WriteText(os.Stdout)
		}
	case "brownout":
		var r *experiments.BrownoutStudyResult
		if r, err = experiments.BrownoutStudy(opt); err == nil {
			err = r.WriteText(os.Stdout)
		}
	case "telemetry":
		var r *experiments.TelemetryStudyResult
		if r, err = experiments.TelemetryStudy(opt); err == nil {
			if err = r.WriteText(os.Stdout); err == nil {
				err = writeCSV(csvDir, "telemetry", r)
			}
		}
	default:
		return fmt.Errorf("unknown target (want table1, table2, fig4..fig10, ablations, online, percore, brownout, telemetry, all)")
	}
	if err != nil {
		return err
	}
	fmt.Printf("---- %s done in %v ----\n\n", target, time.Since(start).Round(time.Millisecond))
	return nil
}
