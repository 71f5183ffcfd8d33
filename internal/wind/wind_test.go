package wind

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"iscope/internal/units"
)

func genTrace(t *testing.T, seed uint64, dur units.Seconds) *Trace {
	t.Helper()
	tr, err := Generate(DefaultConfig(seed, dur))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return tr
}

func TestTurbineCurveRegions(t *testing.T) {
	c := DefaultTurbine()
	if c.At(0) != 0 || c.At(2.9) != 0 {
		t.Error("below cut-in must be zero")
	}
	if c.At(25) != 0 || c.At(40) != 0 {
		t.Error("at/above cut-out must be zero")
	}
	if c.At(12) != c.Power || c.At(20) != c.Power {
		t.Error("rated region must produce rated power")
	}
	mid := c.At(8)
	if mid <= 0 || mid >= c.Power {
		t.Errorf("mid-range power %v out of (0, rated)", mid)
	}
}

func TestTurbineCurveMonotoneBelowRated(t *testing.T) {
	c := DefaultTurbine()
	prev := units.Watts(-1)
	for v := c.CutIn; v <= c.Rated; v += 0.1 {
		p := c.At(v)
		if p < prev {
			t.Fatalf("power curve not monotone at %v m/s", v)
		}
		prev = p
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := genTrace(t, 5, units.Days(2))
	b := genTrace(t, 5, units.Days(2))
	if a.Len() != b.Len() {
		t.Fatal("lengths differ")
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatalf("sample %d differs", i)
		}
	}
}

func TestSeedChangesTrace(t *testing.T) {
	a := genTrace(t, 1, units.Days(1))
	b := genTrace(t, 2, units.Days(1))
	diff := 0
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestTraceShape(t *testing.T) {
	tr := genTrace(t, 7, units.Days(1))
	if tr.Len() != 144 { // 24h / 10min
		t.Fatalf("one day at 10-min sampling = %d samples, want 144", tr.Len())
	}
	if tr.Interval != units.Minutes(10) {
		t.Fatalf("interval = %v, want 600 s", tr.Interval)
	}
}

func TestTraceNonNegativeAndBounded(t *testing.T) {
	cfg := DefaultConfig(11, units.Days(7))
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	maxFarm := units.Watts(float64(cfg.Turbine.Power) * float64(cfg.NumTurbines) * cfg.ScaleFrac)
	for i, s := range tr.Samples {
		if s < 0 {
			t.Fatalf("negative power at sample %d", i)
		}
		if s > maxFarm {
			t.Fatalf("sample %d (%v) exceeds farm capacity %v", i, s, maxFarm)
		}
	}
}

func TestTraceVariability(t *testing.T) {
	// Wind must actually vary: the paper's premise is that renewable
	// supply can swing widely. Require both near-zero and substantial
	// samples across two weeks.
	tr := genTrace(t, 13, units.Days(14))
	mean := float64(tr.Mean())
	lo, hi := math.Inf(1), 0.0
	for _, s := range tr.Samples {
		lo = math.Min(lo, float64(s))
		hi = math.Max(hi, float64(s))
	}
	if mean <= 0 {
		t.Fatal("zero mean wind power")
	}
	if lo > 0.2*mean {
		t.Errorf("trace never drops below 20%% of mean (min %v, mean %v)", lo, mean)
	}
	if hi < 1.5*mean {
		t.Errorf("trace never exceeds 1.5x mean (max %v, mean %v)", hi, mean)
	}
}

func TestTemporalAutocorrelation(t *testing.T) {
	tr := genTrace(t, 17, units.Days(14))
	xs := make([]float64, tr.Len())
	for i, s := range tr.Samples {
		xs[i] = float64(s)
	}
	lag1 := autocorr(xs, 1)
	lag36 := autocorr(xs, 36) // 6 hours
	if lag1 < 0.7 {
		t.Errorf("lag-1 autocorrelation = %v, want strong (>0.7)", lag1)
	}
	if lag36 >= lag1 {
		t.Errorf("autocorrelation does not decay: lag1 %v, lag36 %v", lag1, lag36)
	}
}

func autocorr(x []float64, lag int) float64 {
	n := len(x) - lag
	var mx float64
	for _, v := range x {
		mx += v
	}
	mx /= float64(len(x))
	var num, den float64
	for i := 0; i < n; i++ {
		num += (x[i] - mx) * (x[i+lag] - mx)
	}
	for _, v := range x {
		den += (v - mx) * (v - mx)
	}
	return num / den
}

func TestAtAndWrapping(t *testing.T) {
	tr := genTrace(t, 19, units.Days(1))
	if tr.At(0) != tr.Samples[0] {
		t.Error("At(0) != first sample")
	}
	if tr.At(-5) != tr.Samples[0] {
		t.Error("negative time should clamp to first sample")
	}
	if tr.At(units.Minutes(15)) != tr.Samples[1] {
		t.Error("At(15min) should be sample 1")
	}
	// Wrap: one full day later, same sample.
	if tr.At(units.Days(1)+units.Minutes(15)) != tr.Samples[1] {
		t.Error("trace should wrap past its end")
	}
}

func TestScale(t *testing.T) {
	tr := genTrace(t, 23, units.Days(1))
	s := tr.Scale(1.8)
	for i := range tr.Samples {
		want := float64(tr.Samples[i]) * 1.8
		if math.Abs(float64(s.Samples[i])-want) > 1e-9 {
			t.Fatalf("scaled sample %d = %v, want %v", i, s.Samples[i], want)
		}
	}
	// Original untouched.
	tr2 := genTrace(t, 23, units.Days(1))
	for i := range tr.Samples {
		if tr.Samples[i] != tr2.Samples[i] {
			t.Fatal("Scale mutated the original trace")
		}
	}
}

func TestEnergyMatchesMean(t *testing.T) {
	tr := genTrace(t, 29, units.Days(3))
	e := float64(tr.Energy())
	want := float64(tr.Mean()) * float64(tr.Duration())
	if math.Abs(e-want)/want > 1e-9 {
		t.Fatalf("Energy = %v, mean*duration = %v", e, want)
	}
}

func TestDiurnalPattern(t *testing.T) {
	// Averaged over many days, afternoon samples should out-produce
	// pre-dawn samples thanks to the diurnal modulation.
	cfg := DefaultConfig(31, units.Days(60))
	cfg.AR1Rho = 0.5 // weaken persistence so the diurnal signal dominates
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	perDay := 144
	var afternoon, night float64
	days := tr.Len() / perDay
	for d := 0; d < days; d++ {
		afternoon += float64(tr.Samples[d*perDay+15*6]) // 15:00
		night += float64(tr.Samples[d*perDay+3*6])      // 03:00
	}
	if afternoon <= night {
		t.Errorf("diurnal pattern absent: afternoon %.0f <= night %.0f", afternoon, night)
	}
}

func TestConfigValidation(t *testing.T) {
	mk := func(mut func(*Config)) Config {
		c := DefaultConfig(1, units.Days(1))
		mut(&c)
		return c
	}
	bad := []Config{
		mk(func(c *Config) { c.Duration = 0 }),
		mk(func(c *Config) { c.Interval = 0 }),
		mk(func(c *Config) { c.WeibullK = 0 }),
		mk(func(c *Config) { c.WeibullLambda = -1 }),
		mk(func(c *Config) { c.AR1Rho = 1.0 }),
		mk(func(c *Config) { c.AR1Rho = -0.1 }),
		mk(func(c *Config) { c.NumTurbines = 0 }),
		mk(func(c *Config) { c.TurbineCorr = 1.5 }),
		mk(func(c *Config) { c.ScaleFrac = 0 }),
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("config %d: expected error", i)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := genTrace(t, 37, units.Days(1))
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Interval != tr.Interval || got.Len() != tr.Len() {
		t.Fatalf("round trip shape mismatch: %v/%d vs %v/%d", got.Interval, got.Len(), tr.Interval, tr.Len())
	}
	for i := range tr.Samples {
		if math.Abs(float64(got.Samples[i]-tr.Samples[i])) > 0.06 { // CSV keeps 0.1 W precision
			t.Fatalf("sample %d: %v != %v", i, got.Samples[i], tr.Samples[i])
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",
		"time_s,power_w\n0,100\n",          // only one sample
		"time_s,power_w\n0,100\n600,abc\n", // bad power
		"time_s,power_w\nx,100\n600,100\n", // bad time
		"time_s,power_w\n0,100\n600,50\n1300,70\n", // irregular spacing
		"time_s,power_w\n600,100\n0,50\n",          // non-increasing
		"time_s,power_w\n0,100\n600,-5\n",          // negative power
	}
	for i, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestAtPropertyWithinSamples(t *testing.T) {
	tr := genTrace(t, 41, units.Days(2))
	f := func(raw uint32) bool {
		ts := units.Seconds(float64(raw%uint32(float64(tr.Duration())*3)) / 1)
		p := tr.At(ts)
		return p >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestWeibullQuantileEdges(t *testing.T) {
	if weibullQuantile(0, 2, 8) != 0 {
		t.Error("quantile(0) should be 0")
	}
	v := weibullQuantile(1, 2, 8)
	if math.IsInf(v, 0) || math.IsNaN(v) {
		t.Error("quantile(1) must stay finite")
	}
	// Median check: u=0.5 -> lambda*(ln2)^(1/k).
	want := 8 * math.Pow(math.Ln2, 0.5)
	if got := weibullQuantile(0.5, 2, 8); math.Abs(got-want) > 1e-9 {
		t.Errorf("median quantile = %v, want %v", got, want)
	}
}

func TestPeakAndEmptyTraceBehaviour(t *testing.T) {
	tr := genTrace(t, 43, units.Days(1))
	peak := tr.Peak()
	for _, s := range tr.Samples {
		if s > peak {
			t.Fatalf("sample %v above reported peak %v", s, peak)
		}
	}
	found := false
	for _, s := range tr.Samples {
		if s == peak {
			found = true
		}
	}
	if !found {
		t.Fatal("peak not attained by any sample")
	}
	var empty Trace
	if empty.At(100) != 0 || empty.Mean() != 0 || empty.Peak() != 0 {
		t.Fatal("empty trace accessors should return zero")
	}
	if empty.Duration() != 0 {
		t.Fatal("empty trace duration should be zero")
	}
}
