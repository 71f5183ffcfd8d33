package workload

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"iscope/internal/units"
)

func synth(t *testing.T, seed uint64, jobs int) *Trace {
	t.Helper()
	tr, err := Synthesize(DefaultSynthConfig(seed, jobs))
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	return tr
}

func TestSynthesizeBasics(t *testing.T) {
	tr := synth(t, 1, 2000)
	if len(tr.Jobs) != 2000 {
		t.Fatalf("jobs = %d, want 2000", len(tr.Jobs))
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("synthetic trace invalid: %v", err)
	}
	st := tr.ComputeStats()
	if st.MaxProcs > 4096 {
		t.Errorf("max procs %d exceeds Thunder's 4096", st.MaxProcs)
	}
	if st.MeanRuntime <= 0 {
		t.Error("mean runtime must be positive")
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	a := synth(t, 42, 500)
	b := synth(t, 42, 500)
	for i := range a.Jobs {
		if a.Jobs[i] != b.Jobs[i] {
			t.Fatalf("job %d differs between identical seeds", i)
		}
	}
	c := synth(t, 43, 500)
	same := true
	for i := range a.Jobs {
		if a.Jobs[i] != c.Jobs[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestWidthsPowerOfTwoBias(t *testing.T) {
	tr := synth(t, 7, 5000)
	pow2 := 0
	for _, j := range tr.Jobs {
		if j.Procs&(j.Procs-1) == 0 {
			pow2++
		}
	}
	frac := float64(pow2) / float64(len(tr.Jobs))
	if frac < 0.6 {
		t.Errorf("power-of-two width fraction = %v, want > 0.6", frac)
	}
	if frac == 1.0 {
		t.Error("no jitter widths at all; real traces have some")
	}
}

func TestDiurnalArrivals(t *testing.T) {
	cfg := DefaultSynthConfig(11, 20000)
	cfg.Span = units.Days(10)
	tr, err := Synthesize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	day, night := 0, 0
	for _, j := range tr.Jobs {
		h := math.Mod(float64(j.Submit)/3600, 24)
		switch {
		case h >= 10 && h < 18:
			day++
		case h < 6:
			night++
		}
	}
	// 8 daytime hours vs 6 night hours: normalize per hour.
	if float64(day)/8 <= float64(night)/6 {
		t.Errorf("no diurnal arrival pattern: day %d/8h vs night %d/6h", day, night)
	}
}

func TestAssignDeadlines(t *testing.T) {
	tr := synth(t, 3, 3000)
	cfg := DefaultDeadlines(5, 0.4)
	if err := tr.AssignDeadlines(cfg); err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("trace invalid after deadlines: %v", err)
	}
	st := tr.ComputeStats()
	if math.Abs(st.HUFraction-0.4) > 0.03 {
		t.Errorf("HU fraction = %v, want ~0.4", st.HUFraction)
	}
	// HU deadlines must be tighter on average than LU.
	var huSum, luSum float64
	var huN, luN int
	for _, j := range tr.Jobs {
		factor := float64(j.Deadline-j.Submit) / float64(j.Runtime)
		if factor < cfg.MinFactor-1e-9 {
			t.Fatalf("deadline factor %v below floor", factor)
		}
		if j.Urgency == HighUrgency {
			huSum += factor
			huN++
		} else {
			luSum += factor
			luN++
		}
	}
	huMean, luMean := huSum/float64(huN), luSum/float64(luN)
	if math.Abs(huMean-4) > 0.3 {
		t.Errorf("HU mean factor = %v, want ~4", huMean)
	}
	if math.Abs(luMean-12) > 0.5 {
		t.Errorf("LU mean factor = %v, want ~12", luMean)
	}
}

func TestAssignDeadlinesBounds(t *testing.T) {
	tr := synth(t, 3, 10)
	if err := tr.AssignDeadlines(DefaultDeadlines(1, -0.1)); err == nil {
		t.Error("expected error for negative HU fraction")
	}
	if err := tr.AssignDeadlines(DefaultDeadlines(1, 1.5)); err == nil {
		t.Error("expected error for HU fraction > 1")
	}
	bad := DefaultDeadlines(1, 0.5)
	bad.HUMean = 1.0 // below MinFactor
	if err := tr.AssignDeadlines(bad); err == nil {
		t.Error("expected error for mean below MinFactor")
	}
}

func TestScaleArrival(t *testing.T) {
	tr := synth(t, 9, 200)
	_ = tr.AssignDeadlines(DefaultDeadlines(2, 0.3))
	orig := tr.Clone()
	if err := tr.ScaleArrival(5); err != nil {
		t.Fatal(err)
	}
	for i := range tr.Jobs {
		wantSubmit := float64(orig.Jobs[i].Submit) / 5
		if math.Abs(float64(tr.Jobs[i].Submit)-wantSubmit) > 1e-9 {
			t.Fatalf("job %d submit = %v, want %v", i, tr.Jobs[i].Submit, wantSubmit)
		}
		// Slack preserved.
		wantSlack := orig.Jobs[i].Deadline - orig.Jobs[i].Submit
		gotSlack := tr.Jobs[i].Deadline - tr.Jobs[i].Submit
		if math.Abs(float64(gotSlack-wantSlack)) > 1e-9 {
			t.Fatalf("job %d slack changed under arrival scaling", i)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("trace invalid after scaling: %v", err)
	}
	if err := tr.ScaleArrival(0); err == nil {
		t.Error("expected error for zero rate")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	mk := func() *Trace {
		tr := synth(t, 13, 50)
		_ = tr.AssignDeadlines(DefaultDeadlines(1, 0.5))
		return tr
	}
	cases := []func(*Trace){
		func(tr *Trace) { tr.Jobs[10].Procs = 0 },
		func(tr *Trace) { tr.Jobs[10].Runtime = -1 },
		func(tr *Trace) { tr.Jobs[10].Boundness = 1.5 },
		func(tr *Trace) { tr.Jobs[10].Submit = tr.Jobs[9].Submit - 100 },
		func(tr *Trace) { tr.Jobs[10].Deadline = tr.Jobs[10].Submit },
	}
	for i, mut := range cases {
		tr := mk()
		mut(tr)
		if err := tr.Validate(); err == nil {
			t.Errorf("case %d: corruption not detected", i)
		}
	}
}

// TestJobValidate holds one row per rule of Job.Validate, plus the
// boundary values the rule must accept.
func TestJobValidate(t *testing.T) {
	ok := Job{ID: 7, Submit: 100, Procs: 4, Runtime: 60, Boundness: 0.5}
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name  string
		mut   func(*Job)
		valid bool
	}{
		{"ok", func(*Job) {}, true},
		{"nan submit", func(j *Job) { j.Submit = units.Seconds(nan) }, false},
		{"inf runtime", func(j *Job) { j.Runtime = units.Seconds(inf) }, false},
		{"inf deadline", func(j *Job) { j.Deadline = units.Seconds(inf) }, false},
		{"nan boundness", func(j *Job) { j.Boundness = nan }, false},
		{"zero procs", func(j *Job) { j.Procs = 0 }, false},
		{"negative procs", func(j *Job) { j.Procs = -3 }, false},
		{"zero runtime", func(j *Job) { j.Runtime = 0 }, false},
		{"negative runtime", func(j *Job) { j.Runtime = -1 }, false},
		{"boundness below 0", func(j *Job) { j.Boundness = -0.01 }, false},
		{"boundness above 1", func(j *Job) { j.Boundness = 1.01 }, false},
		{"deadline before completion", func(j *Job) { j.Deadline = 159 }, false},
		{"deadline at completion", func(j *Job) { j.Deadline = 160 }, true},
		{"boundness 0", func(j *Job) { j.Boundness = 0 }, true},
		{"boundness 1", func(j *Job) { j.Boundness = 1 }, true},
	}
	for _, c := range cases {
		j := ok
		c.mut(&j)
		if err := j.Validate(); (err == nil) != c.valid {
			t.Errorf("%s: Validate() = %v, want valid=%v", c.name, err, c.valid)
		}
	}
}

func TestSynthConfigValidation(t *testing.T) {
	mk := func(mut func(*SynthConfig)) SynthConfig {
		c := DefaultSynthConfig(1, 100)
		mut(&c)
		return c
	}
	bad := []SynthConfig{
		mk(func(c *SynthConfig) { c.NumJobs = 0 }),
		mk(func(c *SynthConfig) { c.Span = 0 }),
		mk(func(c *SynthConfig) { c.MaxProcs = 0 }),
		mk(func(c *SynthConfig) { c.WidthDecay = 1.0 }),
		mk(func(c *SynthConfig) { c.WidthJitter = 2 }),
		mk(func(c *SynthConfig) { c.RuntimeMedian = 0 }),
		mk(func(c *SynthConfig) { c.RuntimeCap = c.RuntimeMedian - 1 }),
		mk(func(c *SynthConfig) { c.RuntimeSigma = 0 }),
		mk(func(c *SynthConfig) { c.DiurnalAmp = 1.0 }),
		mk(func(c *SynthConfig) { c.BoundnessMin = 0.9; c.BoundnessMax = 0.5 }),
	}
	for i, cfg := range bad {
		if _, err := Synthesize(cfg); err == nil {
			t.Errorf("config %d: expected error", i)
		}
	}
}

const sampleSWF = `; SWF trace for testing
; Computer: LLNL Thunder (excerpt shape)
1 0 5 3600 64 -1 -1 64 -1 -1 1 4 1 -1 1 -1 -1 -1
2 120 0 600 16 -1 -1 -1 -1 -1 1 4 1 -1 1 -1 -1 -1
3 300 9 0 8 -1 -1 8 -1 -1 1 4 1 -1 1 -1 -1 -1
4 360 0 1800 32 -1 -1 32 -1 -1 0 4 1 -1 1 -1 -1 -1
5 60 0 7200 128 -1 -1 128 -1 -1 1 4 1 -1 1 -1 -1 -1
`

func TestReadSWF(t *testing.T) {
	tr, err := ReadSWF(strings.NewReader(sampleSWF), SWFReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Job 3 has runtime 0 and is dropped; 4 jobs remain, sorted by submit.
	if len(tr.Jobs) != 4 {
		t.Fatalf("jobs = %d, want 4", len(tr.Jobs))
	}
	if tr.Jobs[0].ID != 1 || tr.Jobs[1].ID != 5 {
		t.Fatalf("jobs not sorted by submit: %v %v", tr.Jobs[0].ID, tr.Jobs[1].ID)
	}
	// Job 2 has requested=-1, falls back to allocated 16.
	for _, j := range tr.Jobs {
		if j.ID == 2 && j.Procs != 16 {
			t.Errorf("job 2 procs = %d, want fallback 16", j.Procs)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("parsed trace invalid: %v", err)
	}
}

func TestReadSWFCompletedOnly(t *testing.T) {
	tr, err := ReadSWF(strings.NewReader(sampleSWF), SWFReadOptions{CompletedOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range tr.Jobs {
		if j.ID == 4 {
			t.Error("status-0 job survived CompletedOnly")
		}
	}
	if len(tr.Jobs) != 3 {
		t.Fatalf("jobs = %d, want 3", len(tr.Jobs))
	}
}

func TestReadSWFMaxJobs(t *testing.T) {
	tr, err := ReadSWF(strings.NewReader(sampleSWF), SWFReadOptions{MaxJobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Jobs) != 2 {
		t.Fatalf("jobs = %d, want 2", len(tr.Jobs))
	}
}

func TestReadSWFErrors(t *testing.T) {
	cases := []string{
		"1 0 5\n", // too few fields
		"x 0 5 3600 64 -1 -1 64 -1 -1 1 4 1 -1 1 -1 -1 -1\n",
		"1 y 5 3600 64 -1 -1 64 -1 -1 1 4 1 -1 1 -1 -1 -1\n",
		"1 0 5 z 64 -1 -1 64 -1 -1 1 4 1 -1 1 -1 -1 -1\n",
		"1 0 5 3600 q -1 -1 64 -1 -1 1 4 1 -1 1 -1 -1 -1\n",
		"1 0 5 3600 64 -1 -1 w -1 -1 1 4 1 -1 1 -1 -1 -1\n",
		"1 0 5 3600 64 -1 -1 64 -1 -1 s 4 1 -1 1 -1 -1 -1\n",
	}
	for i, c := range cases {
		if _, err := ReadSWF(strings.NewReader(c), SWFReadOptions{}); err == nil {
			t.Errorf("case %d: expected parse error", i)
		}
	}
	if _, err := ReadSWF(strings.NewReader(""), SWFReadOptions{DefaultBoundness: 2}); err == nil {
		t.Error("expected boundness validation error")
	}
}

func TestSWFRoundTrip(t *testing.T) {
	orig := synth(t, 21, 300)
	var buf bytes.Buffer
	if err := WriteSWF(&buf, orig, "synthetic Thunder-like trace\nunit test"); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSWF(&buf, SWFReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Jobs) != len(orig.Jobs) {
		t.Fatalf("round trip job count %d != %d", len(got.Jobs), len(orig.Jobs))
	}
	for i := range got.Jobs {
		if got.Jobs[i].Procs != orig.Jobs[i].Procs {
			t.Fatalf("job %d procs %d != %d", i, got.Jobs[i].Procs, orig.Jobs[i].Procs)
		}
		// Times are written at 1-second resolution.
		if math.Abs(float64(got.Jobs[i].Submit-orig.Jobs[i].Submit)) > 0.5 {
			t.Fatalf("job %d submit drifted", i)
		}
		if math.Abs(float64(got.Jobs[i].Runtime-orig.Jobs[i].Runtime)) > 0.5 {
			t.Fatalf("job %d runtime drifted", i)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	tr := synth(t, 23, 50)
	cl := tr.Clone()
	cl.Jobs[0].Procs = 99999
	if tr.Jobs[0].Procs == 99999 {
		t.Fatal("Clone shares backing storage")
	}
}

func TestStatsProperty(t *testing.T) {
	tr := synth(t, 27, 500)
	f := func(huRaw uint8) bool {
		frac := float64(huRaw) / 255
		c := tr.Clone()
		if err := c.AssignDeadlines(DefaultDeadlines(uint64(huRaw), frac)); err != nil {
			return false
		}
		st := c.ComputeStats()
		return st.HUFraction >= 0 && st.HUFraction <= 1 && st.Jobs == 500 && st.TotalWork > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyTraceStats(t *testing.T) {
	var tr Trace
	st := tr.ComputeStats()
	if st.Jobs != 0 || st.TotalWork != 0 {
		t.Fatal("empty trace stats should be zero")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal("empty trace should validate")
	}
}
