package profiling

import (
	"fmt"

	"iscope/internal/pool"
	"iscope/internal/units"
)

// Config controls the scanner protocol.
type Config struct {
	// Kind selects the stability test routine (duration per point).
	Kind TestKind
	// VoltagePoints is the number of voltage values tested per frequency
	// bin (the paper uses ten).
	VoltagePoints int
	// VoltageStep is the spacing between tested voltages in volts.
	VoltageStep float64
	// TestPower is the power drawn by a processor under test; the paper
	// budgets the 115 W series-maximum TDP.
	TestPower units.Watts
	// Exhaustive forces testing of every configuration point even after
	// a failure (the paper's Section VI.E overhead numbers assume all
	// 5 x 10 points are run). When false, the scan of a level stops at
	// the first failure, since lower voltages are forced to fail.
	Exhaustive bool
	// GPUOn profiles with the integrated GPU active. Leaving it off
	// implements the on-demand profiling optimization of Section III.C
	// (skip unused features, gaining margin).
	GPUOn bool
	// Workers is the number of goroutines ScanFleet fans chips out
	// over. Zero means GOMAXPROCS.
	Workers int
}

// DefaultConfig matches the paper's setup: stress test, 10 voltage
// points per level at 12.5 mV spacing, 115 W test power.
func DefaultConfig() Config {
	return Config{
		Kind:          Stress,
		VoltagePoints: 10,
		VoltageStep:   0.0125,
		TestPower:     115,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.VoltagePoints <= 0:
		return fmt.Errorf("profiling: VoltagePoints must be positive")
	case c.VoltageStep <= 0:
		return fmt.Errorf("profiling: VoltageStep must be positive")
	case c.TestPower <= 0:
		return fmt.Errorf("profiling: TestPower must be positive")
	case c.Workers < 0:
		return fmt.Errorf("profiling: Workers must be >= 0")
	}
	return nil
}

// ChipReport is the outcome of scanning one chip.
type ChipReport struct {
	Chip     int
	MinVdd   []units.Volts // measured minimum per level (0 if no point passed)
	Points   int           // configuration points actually tested
	Duration units.Seconds // serial test time on the chip
	Energy   units.Joules  // test energy consumed by the chip
}

// FleetReport aggregates a scan over many chips.
type FleetReport struct {
	Chips    int
	Points   int
	Energy   units.Joules
	Duration units.Seconds // sum of per-chip serial durations
}

// Cost prices the scan's energy at a tariff.
func (f FleetReport) Cost(perKWh units.USD) units.USD { return f.Energy.Cost(perKWh) }

// Scanner drives the master/slave scan protocol against a Tester and
// records results into a DB.
type Scanner struct {
	cfg    Config
	tester *Tester
	tbl    VoltageTable
	db     *DB
}

// NewScanner wires a scanner. The DB must be sized for the same fleet
// and level count as the tester's table.
func NewScanner(cfg Config, tester *Tester, tbl VoltageTable, db *DB) (*Scanner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Scanner{cfg: cfg, tester: tester, tbl: tbl, db: db}, nil
}

// DB returns the scanner's profile database.
func (s *Scanner) DB() *DB { return s.db }

// ScanChip profiles every DVFS level of chip id at simulated time now:
// a descending voltage sweep from the level's nominal voltage, labeling
// each point pass/fail (Section III.C stages 3-6). The measured MinVdd
// is the lowest passing voltage.
func (s *Scanner) ScanChip(id int, now units.Seconds) ChipReport {
	rep := ChipReport{
		Chip:   id,
		MinVdd: make([]units.Volts, s.tbl.NumLevels()),
	}
	rep.Points = s.scan(id, now, rep.MinVdd)
	rep.Duration, rep.Energy = s.cost(rep.Points)
	return rep
}

// scan sweeps every level of chip id, writes the measured minima into
// minVdd (one entry per level) and the DB, and returns the number of
// configuration points tested. Each level's ground truth is looked up
// once for all its points; a noisy tester still draws once per point,
// in sweep order.
func (s *Scanner) scan(id int, now units.Seconds, minVdd []units.Volts) int {
	points := 0
	for l := range minVdd {
		vnom := float64(s.tbl.VnomAt(l))
		trueMin := s.tester.trueMin(id, l, s.cfg.GPUOn)
		lowestPass := 0.0
		for p := 0; p < s.cfg.VoltagePoints; p++ {
			v := vnom - float64(p)*s.cfg.VoltageStep
			if v <= 0 {
				break
			}
			points++
			if s.tester.pass(id, units.Volts(v), trueMin) {
				lowestPass = v
			} else if !s.cfg.Exhaustive {
				// Lower voltages at this frequency are forced to fail.
				break
			}
		}
		minVdd[l] = units.Volts(lowestPass)
	}
	dur, _ := s.cost(points)
	_ = s.db.Update(id, minVdd, now+dur)
	return points
}

// cost is the serial test time and energy of a chip scan that tested
// the given number of configuration points.
func (s *Scanner) cost(points int) (units.Seconds, units.Joules) {
	d := units.Seconds(float64(s.cfg.Kind.Duration()) * float64(points))
	return d, s.cfg.TestPower.Over(d)
}

// scanChunk is the number of chips one pool task scans: enough that
// handing out tasks costs little beside the scans, few enough that the
// workers stay balanced.
const scanChunk = 64

// ScanFleet profiles the given chips on Workers goroutines, in fixed
// chunks of chips. Results land in the DB; the report aggregates cost,
// summed in the order of ids, so it equals the sum of serial ScanChip
// reports. The DB records and the report are the same at every worker
// count, noisy testers included: each chip draws from its own noise
// stream.
func (s *Scanner) ScanFleet(ids []int, now units.Seconds) FleetReport {
	points := make([]int, len(ids))
	chunks := (len(ids) + scanChunk - 1) / scanChunk
	pool.Feed(nil, pool.Workers(s.cfg.Workers, chunks), chunks, func(c int) {
		lo := c * scanChunk
		hi := min(lo+scanChunk, len(ids))
		minVdd := make([]units.Volts, s.tbl.NumLevels())
		for i := lo; i < hi; i++ {
			points[i] = s.scan(ids[i], now, minVdd)
		}
	})
	var rep FleetReport
	for _, p := range points {
		d, e := s.cost(p)
		rep.Chips++
		rep.Points += p
		rep.Energy += e
		rep.Duration += d
	}
	return rep
}

// OverheadEstimate reproduces the Section VI.E arithmetic without
// running a scan: the cost of testing procs chips at every configuration
// point (levels x VoltagePoints) with the configured test kind.
func (s *Scanner) OverheadEstimate(procs int) FleetReport {
	points := s.tbl.NumLevels() * s.cfg.VoltagePoints
	perChip := s.cfg.TestPower.Over(units.Seconds(float64(s.cfg.Kind.Duration()) * float64(points)))
	return FleetReport{
		Chips:    procs,
		Points:   procs * points,
		Energy:   units.Joules(float64(perChip) * float64(procs)),
		Duration: units.Seconds(float64(s.cfg.Kind.Duration()) * float64(points) * float64(procs)),
	}
}
