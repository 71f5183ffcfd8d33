package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"iscope/internal/invariants"
	"iscope/internal/scheduler"
	"iscope/internal/service"
	"iscope/internal/units"
	"iscope/internal/wind"
)

// The daemon-stream workload: five 4,800-proc tenants, one per Table 2
// scheme, as `experiments -daemon` creates them, fed by one client on
// one connection in a closed loop.
const (
	streamProcs = 4800
	// streamJobs batches of streamBatch to five tenants make 1,250
	// submits a pass, enough for a p99 with ten samples beyond it.
	streamJobs  = 2000
	streamBatch = 8
	// daemonCost is the nominal wall time of one input (its reference
	// pass and its daemon pass), which sizes the ensemble from --seconds.
	daemonCost = 5.5
	// restarts is how often a pass kills the daemon and restarts it on
	// the same state directory before reading the Results. A restart
	// only reads the directory (at most it adds an empty journal
	// segment), so each one recovers the same state, and the pass's
	// recovery time is their median: one restart of one input varied by
	// up to a quarter.
	restarts = 3
)

// streamInput is everything generated from the seed: the tenant specs
// and the submissions, already cut into batches.
type streamInput struct {
	specs   []service.TenantSpec
	batches [][]service.JobSubmission
}

// makeStream generates one daemon-stream input from seed.
func makeStream(seed uint64) (*streamInput, error) {
	trace, err := synthesize(seed, streamJobs)
	if err != nil {
		return nil, err
	}
	in := &streamInput{}
	for _, s := range scheduler.Schemes() {
		in.specs = append(in.specs, service.TenantSpec{
			Name:       "bench-" + s.Name,
			Scheme:     s.Name,
			Seed:       seed,
			FleetSeed:  seed,
			Procs:      streamProcs,
			Wind:       &service.WindSpec{Seed: seed + 2, Days: 2*traceDays*streamJobs/traceJobs + 2, MeanFrac: windMean},
			Invariants: true,
		})
	}
	var batch []service.JobSubmission
	for _, j := range trace.Jobs {
		batch = append(batch, service.JobSubmission{
			ID: j.ID, At: float64(j.Submit), Runtime: float64(j.Runtime),
			Procs: j.Procs, Boundness: j.Boundness, Deadline: float64(j.Deadline),
		})
		if len(batch) == streamBatch {
			in.batches = append(in.batches, batch)
			batch = nil
		}
	}
	if len(batch) > 0 {
		in.batches = append(in.batches, batch)
	}
	return in, nil
}

// advanceTarget is where the client advances a tenant after batch i:
// just before the next batch's first arrival, so that arrival is still
// in the tenant's future. The last batch is followed by a seal instead.
func (in *streamInput) advanceTarget(i int) (float64, bool) {
	if i+1 >= len(in.batches) {
		return 0, false
	}
	to := in.batches[i+1][0].At - 1
	return to, to > 0
}

// checkpointAfter is the batch after which the client asks for the
// mid-stream checkpoint: a fixed point in the traffic, never a timer.
func (in *streamInput) checkpointAfter() int { return len(in.batches) / 2 }

// daemonProc is one life of an iscoped process.
type daemonProc struct {
	cmd      *exec.Cmd
	url      string
	restored int
	done     chan error
}

// startDaemon execs iscoped on stateDir and returns once it listens.
func startDaemon(bin, stateDir string) (*daemonProc, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-state", stateDir, "-wal-fsync", "always", "-checkpoint-every", "0")
	cmd.Stderr = os.Stderr
	// The daemon must not outlive the benchmark, even one killed on a
	// timeout.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemonProc{cmd: cmd, done: make(chan error, 1)}
	ready := make(chan struct{})
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if _, err := fmt.Sscanf(line, "iscoped: restored %d tenants", &d.restored); err == nil {
				continue
			}
			if url, ok := strings.CutPrefix(line, "iscoped: listening on "); ok && d.url == "" {
				d.url = url
				close(ready)
			}
		}
		_, _ = io.Copy(io.Discard, stdout)
		d.done <- cmd.Wait()
	}()
	select {
	case <-ready:
		return d, nil
	case err := <-d.done:
		return nil, fmt.Errorf("iscoped exited before listening: %v", err)
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, fmt.Errorf("iscoped did not listen within 60s")
	}
}

// kill sends SIGKILL and waits until the process is gone.
func (d *daemonProc) kill() {
	_ = d.cmd.Process.Kill()
	<-d.done
}

// usage reads the daemon's peak resident set size and CPU time; call
// it before kill.
func (d *daemonProc) usage() (rssMB, cpu float64, err error) {
	b, err := vmHWM(d.cmd.Process.Pid)
	if err != nil {
		return 0, 0, err
	}
	rssMB = b / 1e6
	cpu, err = procCPU(d.cmd.Process.Pid)
	return rssMB, cpu, err
}

// daemonRun is one pass of the daemon workload.
type daemonRun struct {
	Input    int       `json:"input"`
	Seed     uint64    `json:"seed"`
	Setup    float64   `json:"setup_s"`
	Create   float64   `json:"create_s"`
	Stream   float64   `json:"stream_s"`
	Ckpt     float64   `json:"checkpoint_s"`
	Results  float64   `json:"results_s"`
	Run      float64   `json:"run_s"`
	Recover  float64   `json:"recover_s"`
	Recovers []float64 `json:"restarts_s"`
	PeakRSS  float64   `json:"peak_rss_mb"`
	Submit   callTail  `json:"submit"`
	Advance  callTail  `json:"advance"`
	CkptB    int64     `json:"checkpoint_bytes"`
	Fired    int       `json:"events_fired"`
	Empty    int       `json:"empty_advances"`
	Advances int       `json:"advances"`
	WAL      walStats  `json:"wal"`
	CPU      float64   `json:"daemon_cpu_s"`
	// Steal is the time the hypervisor took from the timed phases,
	// which their timings leave out.
	Steal float64 `json:"steal_s"`
	// StatusP50 is the median Client.Status latency in seconds, probed
	// only by a traced pass.
	StatusP50 float64 `json:"status_p50_s,omitempty"`
	results   map[string][]byte
	ckpts     map[string][]byte
	// ref is the reference pass this pass was checked against.
	ref *referenceRun
}

// walStats describes the journal segments under a state directory.
type walStats struct {
	Records int   `json:"records"`
	Bytes   int64 `json:"bytes"`
	Replay  int   `json:"replay_records"`
}

// readWAL walks every tenant's journal segments in the documented frame
// format (a little-endian uint32 payload length, then the uint64
// sequence, a CRC and the payload) and counts the records a restart
// would replay: those after the sequence the tenant's checkpoint
// metadata says it covers.
func readWAL(stateDir string, names []string) (walStats, error) {
	var ws walStats
	for _, name := range names {
		var meta struct {
			JournalSeq uint64 `json:"journal_seq"`
		}
		raw, err := os.ReadFile(filepath.Join(stateDir, name+".tenant.json"))
		if err != nil {
			return ws, err
		}
		if err := json.Unmarshal(raw, &meta); err != nil {
			return ws, fmt.Errorf("%s metadata: %w", name, err)
		}
		segs, err := filepath.Glob(filepath.Join(stateDir, "wal", name, "seg-*.wal"))
		if err != nil {
			return ws, err
		}
		for _, seg := range segs {
			data, err := os.ReadFile(seg)
			if err != nil {
				return ws, err
			}
			ws.Bytes += int64(len(data))
			for off := 0; off+16 <= len(data); {
				n := int(binary.LittleEndian.Uint32(data[off:]))
				if off+16+n > len(data) {
					return ws, fmt.Errorf("%s: torn record at offset %d", seg, off)
				}
				ws.Records++
				if binary.LittleEndian.Uint64(data[off+4:]) > meta.JournalSeq {
					ws.Replay++
				}
				off += 16 + n
			}
		}
	}
	return ws, nil
}

// checkpointFiles reads the snapshot of the current checkpoint era of
// each tenant.
func checkpointFiles(stateDir string, names []string) (map[string][]byte, int64, error) {
	out := map[string][]byte{}
	var total int64
	for _, name := range names {
		files, err := filepath.Glob(filepath.Join(stateDir, name+".*.ckpt"))
		if err != nil {
			return nil, 0, err
		}
		if len(files) != 1 {
			return nil, 0, fmt.Errorf("tenant %s has %d checkpoint files, want 1", name, len(files))
		}
		data, err := os.ReadFile(files[0])
		if err != nil {
			return nil, 0, err
		}
		out[name] = data
		total += int64(len(data))
	}
	return out, total, nil
}

func tenantNames(in *streamInput) []string {
	return collect(in.specs, func(s service.TenantSpec) string { return s.Name })
}

// daemonPass runs the workload once against a fresh iscoped: set-up,
// the stream with its mid-stream checkpoint, the seals, a SIGKILL, the
// restart, and the five Results.
func daemonPass(idx int, seed uint64, o options, in *streamInput, stateDir string, tr *tracer, t *tally) (*daemonRun, error) {
	ctx := context.Background()
	names := tenantNames(in)
	r := &daemonRun{Input: idx, Seed: seed, results: map[string][]byte{}}
	if err := os.RemoveAll(stateDir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(stateDir)
	submits, advances, status := &latency{}, &latency{}, &latency{}

	root := tr.open("setup", -1)
	sw := startWatch()
	d, err := startDaemon(o.iscoped, stateDir)
	tr.add("service.start", root, sw.t0, time.Now(), "")
	if err != nil {
		return nil, err
	}
	alive := d
	defer func() {
		if alive != nil {
			alive.kill()
		}
	}()
	c := &service.Client{BaseURL: d.url, Timeout: 60 * time.Second}
	for _, spec := range in.specs {
		t1 := time.Now()
		_, err := c.CreateTenant(ctx, spec)
		t2 := time.Now()
		tr.add("service.create", root, t1, t2, "")
		r.Create += t2.Sub(t1).Seconds()
		t.request(err)
		if err != nil {
			return nil, fmt.Errorf("create %s: %w", spec.Name, err)
		}
	}
	r.Setup = sw.work(&r.Steal)
	tr.close(root)

	root = tr.open("run", -1)
	sw = startWatch()
	// probes is the time of the traced pass's Status calls, which the
	// stream's time leaves out: only a traced pass makes them.
	var probes time.Duration
	for i, batch := range in.batches {
		key := fmt.Sprintf("batch-%d", i)
		for _, name := range names {
			t1 := time.Now()
			_, err := c.SubmitIdem(ctx, name, key, batch)
			t2 := time.Now()
			tr.add("service.submit", root, t1, t2, "")
			submits.add(t2.Sub(t1))
			t.request(err)
			if err != nil {
				return nil, fmt.Errorf("submit batch %d to %s: %w", i, name, err)
			}
			to, ok := in.advanceTarget(i)
			if !ok {
				continue
			}
			t1 = time.Now()
			resp, err := c.Advance(ctx, name, to)
			t2 = time.Now()
			tr.add("service.advance", root, t1, t2, "")
			advances.add(t2.Sub(t1))
			t.request(err)
			if err != nil {
				return nil, fmt.Errorf("advance %s after batch %d: %w", name, i, err)
			}
			r.Advances++
			r.Fired += resp.Fired
			if resp.Fired == 0 {
				r.Empty++
			}
		}
		if tr.on {
			t1 := time.Now()
			_, err := c.Status(ctx, names[i%len(names)])
			t2 := time.Now()
			tr.add("service.status", root, t1, t2, "")
			status.add(t2.Sub(t1))
			probes += t2.Sub(t1)
			t.request(err)
		}
		if i == in.checkpointAfter() {
			t1 := time.Now()
			n, err := c.Checkpoint(ctx)
			t2 := time.Now()
			tr.add("service.checkpoint", root, t1, t2, "")
			r.Ckpt = t2.Sub(t1).Seconds()
			t.request(err)
			if err != nil {
				return nil, fmt.Errorf("checkpoint: %w", err)
			}
			t.check(n == len(names), "checkpoint saved %d of %d tenants", n, len(names))
		}
	}
	for _, name := range names {
		t1 := time.Now()
		err := c.Seal(ctx, name)
		tr.add("service.seal", root, t1, time.Now(), "")
		t.request(err)
		if err != nil {
			return nil, fmt.Errorf("seal %s: %w", name, err)
		}
	}
	r.Stream = sw.work(&r.Steal) - probes.Seconds()
	tr.close(root)
	if r.Submit, err = submits.callTail(); err != nil {
		return nil, fmt.Errorf("submit latency: %w", err)
	}
	if r.Advance, err = advances.callTail(); err != nil {
		return nil, fmt.Errorf("advance latency: %w", err)
	}
	if tr.on {
		if r.StatusP50, _, err = status.tail(50); err != nil {
			return nil, fmt.Errorf("status latency: %w", err)
		}
	}

	// The daemon is idle and every acknowledged record is fsynced: the
	// state directory now holds exactly what a SIGKILL leaves behind.
	if r.WAL, err = readWAL(stateDir, names); err != nil {
		return nil, fmt.Errorf("read journal: %w", err)
	}
	if r.ckpts, r.CkptB, err = checkpointFiles(stateDir, names); err != nil {
		return nil, fmt.Errorf("read checkpoints: %w", err)
	}

	root = tr.open("recover", -1)
	for k := range restarts {
		if err := r.addUsage(d); err != nil {
			return nil, err
		}
		sw = startWatch()
		d.kill()
		alive = nil
		d, err = startDaemon(o.iscoped, stateDir)
		tr.add("service.restart", root, sw.t0, time.Now(), "")
		r.Recovers = append(r.Recovers, sw.work(&r.Steal))
		if err != nil {
			return nil, fmt.Errorf("restart %d: %w", k+1, err)
		}
		alive = d
		t.check(d.restored == len(names), "restart %d restored %d of %d tenants", k+1, d.restored, len(names))
	}
	tr.close(root)
	r.Recover = median(r.Recovers)

	root = tr.open("results", -1)
	c = &service.Client{BaseURL: d.url, Timeout: 60 * time.Second}
	sw = startWatch()
	for _, name := range names {
		t1 := time.Now()
		res, err := c.Result(ctx, name)
		tr.add("service.result", root, t1, time.Now(), "")
		t.request(err)
		if err != nil {
			return nil, fmt.Errorf("result %s: %w", name, err)
		}
		t.check(res.Invariants.Violations == 0, "tenant %s: %d invariant violations, first: %s", name, res.Invariants.Violations, res.Invariants.First)
		if r.results[name], err = json.Marshal(res); err != nil {
			return nil, err
		}
	}
	r.Results = sw.work(&r.Steal)
	tr.close(root)
	r.Run = r.Stream + r.Results
	if err := r.addUsage(d); err != nil {
		return nil, err
	}
	return r, nil
}

// addUsage folds one daemon life's peak RSS and CPU time into the
// pass's; call it before the life ends.
func (r *daemonRun) addUsage(d *daemonProc) error {
	rss, cpu, err := d.usage()
	r.PeakRSS = max(r.PeakRSS, rss)
	r.CPU += cpu
	return err
}

// referenceRun is the in-process reference pass's outcome.
type referenceRun struct {
	Counts  counts       `json:"counts"`
	Fired   int          `json:"events_fired"`
	Usage   runtimeDelta `json:"usage"`
	Run     float64      `json:"run_s"`
	results map[string][]byte
	ckpts   map[string][]byte
	live    float64
}

// reference replays the same traffic straight into five in-process
// steppers, built the way the daemon builds a tenant, with no daemon, no
// journal and no kill. It advances and drains through batch dispatch
// where the daemon steps one event at a time, snapshots every tenant
// where the daemon checkpoints, and times a restore of each snapshot.
// The daemon's Results and checkpoints must match it byte for byte.
func reference(in *streamInput, tr *tracer) (*referenceRun, error) {
	rr := &referenceRun{results: map[string][]byte{}, ckpts: map[string][]byte{}}
	type tenant struct {
		name  string
		fleet *scheduler.Fleet
		cfg   scheduler.RunConfig
		sch   scheduler.Scheme
		st    *scheduler.Stepper
	}
	var ts []*tenant
	defer func() {
		for _, tn := range ts {
			tn.st.Close()
		}
	}()
	root := tr.open("setup", -1)
	for _, spec := range in.specs {
		sch, ok := scheduler.SchemeByName(spec.Scheme)
		if !ok {
			return nil, fmt.Errorf("unknown scheme %q", spec.Scheme)
		}
		t0 := time.Now()
		fleet, err := scheduler.BuildFleet(scheduler.DefaultFleetSpec(spec.FleetSeed, spec.Procs))
		t1 := time.Now()
		tr.add("fleet.build", root, t0, t1, "")
		if err != nil {
			return nil, err
		}
		wt, err := wind.Generate(wind.DefaultConfig(spec.Wind.Seed, units.Days(spec.Wind.Days)))
		t2 := time.Now()
		tr.add("wind.generate", root, t1, t2, "")
		if err != nil {
			return nil, err
		}
		cfg := scheduler.RunConfig{
			Seed:       spec.Seed,
			Workers:    spec.Workers,
			Wind:       wt.Scale(spec.Wind.MeanFrac * float64(fleet.PeakDemand()) / float64(wt.Mean())),
			Invariants: &invariants.Config{},
		}
		st, err := scheduler.NewStepper(fleet, sch, cfg)
		tr.add("scheduler.new", root, t2, time.Now(), "")
		if err != nil {
			return nil, err
		}
		ts = append(ts, &tenant{name: spec.Name, fleet: fleet, cfg: cfg, sch: sch, st: st})
		rr.Counts.PendingStart += st.Status().PendingEvents
	}
	tr.close(root)

	root = tr.open("run", -1)
	u := readUsage()
	t0 := time.Now()
	for i, batch := range in.batches {
		for _, tn := range ts {
			for _, js := range batch {
				t1 := time.Now()
				_, err := tn.st.InjectJob(units.Seconds(js.At), js.Job())
				tr.add("scheduler.inject", root, t1, time.Now(), "")
				if err != nil {
					return nil, fmt.Errorf("%s: inject job %d: %w", tn.name, js.ID, err)
				}
			}
			if to, ok := in.advanceTarget(i); ok {
				n, _, err := drive(tn.st, units.Seconds(to), tn.cfg.Wind.Interval, &rr.Counts, nil, tr, root)
				if err != nil {
					return nil, fmt.Errorf("%s: advance: %w", tn.name, err)
				}
				rr.Fired += n
			}
		}
		if i == in.checkpointAfter() {
			for _, tn := range ts {
				t1 := time.Now()
				snap, err := tn.st.Snapshot()
				tr.add("checkpoint.encode", root, t1, time.Now(), "")
				if err != nil {
					return nil, fmt.Errorf("%s: snapshot: %w", tn.name, err)
				}
				rr.ckpts[tn.name] = snap
				rr.Counts.SnapBytes += len(snap)
			}
		}
	}
	for _, tn := range ts {
		tn.st.Seal()
		if _, _, err := drive(tn.st, end, tn.cfg.Wind.Interval, &rr.Counts, nil, tr, root); err != nil {
			return nil, fmt.Errorf("%s: drain: %w", tn.name, err)
		}
		t1 := time.Now()
		res, err := tn.st.Result()
		tr.add("scheduler.result", root, t1, time.Now(), "")
		if err != nil {
			return nil, fmt.Errorf("%s: result: %w", tn.name, err)
		}
		if rr.results[tn.name], err = json.Marshal(res); err != nil {
			return nil, err
		}
	}
	rr.Run = time.Since(t0).Seconds()
	rr.Usage = since(u)
	tr.close(root)
	if tr.on {
		rr.live = liveHeapMB()
	}

	root = tr.open("recover", -1)
	for _, tn := range ts {
		cfg := tn.cfg
		cfg.Resume = rr.ckpts[tn.name]
		t1 := time.Now()
		st, err := scheduler.NewStepper(tn.fleet, tn.sch, cfg)
		tr.add("checkpoint.restore", root, t1, time.Now(), "")
		if err != nil {
			return nil, fmt.Errorf("%s: restore: %w", tn.name, err)
		}
		st.Close()
	}
	tr.close(root)
	return rr, nil
}

// matchReference checks a daemon pass against the reference: the same
// Results and checkpoint bytes for every tenant and the same events.
func matchReference(t *tally, r *daemonRun, rr *referenceRun) {
	for name, want := range rr.results {
		t.check(string(r.results[name]) == string(want), "input %d: tenant %s: the restarted daemon's Result differs from the reference", r.Input, name)
		t.check(string(r.ckpts[name]) == string(rr.ckpts[name]), "input %d: tenant %s: the mid-stream checkpoint differs from the reference snapshot", r.Input, name)
	}
	t.check(r.Fired == rr.Fired, "input %d: the daemon fired %d events while streaming, the reference %d", r.Input, r.Fired, rr.Fired)
}

// sameDaemonRun checks that a second pass of one input repeated the
// first one's counts and bytes.
func sameDaemonRun(t *tally, a, b *daemonRun) {
	t.check(a.WAL == b.WAL, "input %d: journal %+v, then %+v", a.Input, a.WAL, b.WAL)
	t.check(a.CkptB == b.CkptB, "input %d: checkpoint %d bytes, then %d", a.Input, a.CkptB, b.CkptB)
	t.check(a.Fired == b.Fired && a.Empty == b.Empty, "input %d: %d events fired (%d empty advances), then %d (%d)", a.Input, a.Fired, a.Empty, b.Fired, b.Empty)
}

// runDaemon measures daemon-stream. Untraced, it runs an ensemble of
// inputs generated from the seed, each against a fresh daemon and
// checked against its own in-process reference, then the first input
// once more, and reports medians over the ensemble. Traced, it repeats
// the first input untraced, each time with a fresh untraced reference
// whose runtime figures give the heap and GC medians, then runs the
// input and its reference once more each with spans on.
func runDaemon(o options) (*report, error) {
	if o.iscoped == "" {
		return nil, fmt.Errorf("--iscoped is required")
	}
	rep := &report{values: map[string]float64{}, detail: map[string]any{}}
	t := &rep.tally
	seeds := inputSeeds(o.seed, ensembleSize(o.seconds, daemonCost))
	stateDir := filepath.Join(o.out, "state", fmt.Sprintf("%s-%d", o.workload, os.Getpid()))
	off := newTracer(false)
	streams := map[int]*streamInput{}
	refs := map[int]*referenceRun{}
	// run generates input i once and runs a pass of it against a fresh
	// daemon, checked against the input's untraced reference pass. The
	// reference runs once per input, or before every pass when traced.
	run := func(i int) (*daemonRun, error) {
		in, ok := streams[i]
		if !ok {
			var err error
			if in, err = makeStream(seeds[i]); err != nil {
				return nil, err
			}
			streams[i] = in
		}
		rr, ok := refs[i]
		if !ok || o.trace {
			var err error
			if rr, err = reference(in, off); err != nil {
				return nil, fmt.Errorf("reference for input %d: %w", i, err)
			}
			refs[i] = rr
		}
		r, err := daemonPass(i, seeds[i], o, in, stateDir, off, t)
		if err != nil {
			return nil, err
		}
		matchReference(t, r, rr)
		r.ref = rr
		return r, nil
	}
	inputs := indices(len(seeds))
	if o.trace {
		inputs = make([]int, max(2, len(seeds)-1))
	}
	runs, err := measure(inputs, run)
	if err != nil {
		return nil, err
	}
	rep.detail["references"] = collect(runs, func(r *daemonRun) *referenceRun { return r.ref })
	pick := func(f func(*daemonRun) float64) float64 { return median(collect(runs, f)) }
	v := rep.values
	if !o.trace {
		again, err := run(0)
		if err != nil {
			return nil, err
		}
		sameDaemonRun(t, runs[0], again)
		v["setup_s"] = pick(func(r *daemonRun) float64 { return r.Setup })
		v["run_s"] = pick(func(r *daemonRun) float64 { return r.Run })
		v["recover_s"] = pick(func(r *daemonRun) float64 { return r.Recover })
		v["peak_rss_mb"] = pick(func(r *daemonRun) float64 { return r.PeakRSS })
		v["checkpoint_mb"] = mean(collect(runs, func(r *daemonRun) float64 { return float64(r.CkptB) })) / 1e6
		rep.detail["runs"] = append(runs, again)
		return rep, nil
	}

	for _, r := range runs[1:] {
		sameDaemonRun(t, runs[0], r)
	}
	rtr := newTracer(true)
	root := rtr.open("setup", -1)
	t0 := time.Now()
	in0, err := makeStream(seeds[0])
	rtr.add("workload.synth", root, t0, time.Now(), "")
	rtr.close(root)
	if err != nil {
		return nil, err
	}
	rr0, err := reference(in0, rtr)
	if err != nil {
		return nil, fmt.Errorf("traced reference: %w", err)
	}
	tr := newTracer(true)
	traced, err := daemonPass(0, seeds[0], o, in0, stateDir, tr, t)
	if err != nil {
		return nil, err
	}
	matchReference(t, traced, rr0)
	sameDaemonRun(t, runs[0], traced)
	if err := schedulerLayers(v, rtr, rr0.Counts); err != nil {
		return nil, err
	}
	v["checkpoint.restore_s"] = rtr.total("recover", "checkpoint.restore", "")
	v["shard.speedup"] = 0
	runtimeLayers(v, collect(runs, func(r *daemonRun) runtimeDelta { return r.ref.Usage }))
	v["proc.cpu_s"] = pick(func(r *daemonRun) float64 { return r.CPU })
	v["heap.live_end_mb"] = rr0.live
	v["service.create_s"] = pick(func(r *daemonRun) float64 { return r.Create })
	v["service.submit_p50_ms"] = pick(func(r *daemonRun) float64 { return r.Submit.P50 })
	v["service.submit_p99_ms"] = pick(func(r *daemonRun) float64 { return r.Submit.P99 })
	v["service.advance_p50_ms"] = pick(func(r *daemonRun) float64 { return r.Advance.P50 })
	v["service.advance_p99_ms"] = pick(func(r *daemonRun) float64 { return r.Advance.P99 })
	v["service.events_fired"] = float64(traced.Fired)
	v["service.advance_empty_frac"] = float64(traced.Empty) / float64(max(traced.Advances, 1))
	v["service.status_p50_us"] = traced.StatusP50 * 1e6
	v["service.checkpoint_s"] = pick(func(r *daemonRun) float64 { return r.Ckpt })
	v["service.result_s"] = pick(func(r *daemonRun) float64 { return r.Results })
	v["wal.records"] = float64(traced.WAL.Records)
	v["wal.bytes"] = float64(traced.WAL.Bytes)
	v["wal.bytes_per_record"] = float64(traced.WAL.Bytes) / float64(max(traced.WAL.Records, 1))
	v["wal.replay_records"] = float64(traced.WAL.Replay)
	v["tracing.overhead_frac"] = traced.Run/pick(func(r *daemonRun) float64 { return r.Run }) - 1
	rep.detail["runs"] = append(runs, traced)
	rep.detail["spans"] = spanPath(o)
	return rep, writeSpans(o, rep.detail, map[string]*tracer{"": tr, "-reference": rtr})
}
