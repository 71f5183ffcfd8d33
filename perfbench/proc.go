package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// machine is recorded with every result: a timing means little without
// the core count and CPU it came from, and the filesystem the daemon's
// journal fsyncs to.
type machine struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	StateFS    string `json:"state_fs"`
}

func describeMachine(stateDir string) machine {
	return machine{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		StateFS:    filesystemOf(stateDir),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// filesystemOf names the type and device of the mount holding dir.
func filesystemOf(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	best, fs := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mnt := f[1]
		inside := abs == mnt || strings.HasPrefix(abs, strings.TrimSuffix(mnt, "/")+"/")
		if inside && len(mnt) > len(best) {
			best, fs = mnt, f[2]+" "+f[0]
		}
	}
	return fs
}

// cpuTime is the process's user plus system time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS measures the peak resident set size of what runs between
// reset and read. reset returns freed memory to the OS and lowers the
// kernel's high-water mark to the current size, so one input's peak does
// not carry into the next; where the kernel refuses the reset, read
// falls back to the whole process's peak.
type peakRSS struct{ whole bool }

func (p *peakRSS) reset() {
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets the process's VmHWM (Linux 4.0+).
	p.whole = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) != nil
}

// read returns the peak in MB.
func (p *peakRSS) read() float64 {
	if !p.whole {
		if b, err := vmHWM(os.Getpid()); err == nil {
			return b / 1e6
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports kibibytes
}

// machineTimes reads /proc/stat's cpu line, which sums every CPU of the
// machine: the time they spent busy (user, nice, system, irq and
// softirq) and the time the hypervisor ran something else while they
// wanted to run (steal), in seconds (USER_HZ ticks, 100 a second on
// Linux).
func machineTimes() (busy, steal float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	tick := func(i int) float64 {
		v, _ := strconv.ParseFloat(f[i], 64)
		return v / 100
	}
	return tick(1) + tick(2) + tick(3) + tick(6) + tick(7), tick(8)
}

// stopwatch times an interval of work on a virtual machine whose
// hypervisor may take its CPUs away: it gives the wall time less the
// time the hypervisor took from the work. That steal comes and goes in
// storms of minutes that slowed every timing here by a third, and no
// change to the program can cause or cure it.
type stopwatch struct {
	t0          time.Time
	busy, steal float64
}

func startWatch() stopwatch {
	busy, steal := machineTimes()
	return stopwatch{t0: time.Now(), busy: busy, steal: steal}
}

// work returns the seconds of work since startWatch: the wall time less
// the seconds the hypervisor took from it, which it adds to *stolen
// unless stolen is nil.
func (w stopwatch) work(stolen *float64) float64 {
	busy, steal := machineTimes()
	wall := time.Since(w.t0).Seconds()
	s := stolenFrom(wall, busy-w.busy, steal-w.steal)
	if stolen != nil {
		*stolen += s
	}
	return wall - s
}

// stolenFrom is how much of an interval of wall seconds the hypervisor
// took from the work in it, given the CPU seconds the machine spent busy
// and stolen over the interval. Steal accrues on each CPU while it wants
// to run, busy or stolen, so work spread over k such CPUs on average
// waited about a kth of it; with at most one, all of it delayed the work.
// It is an estimate: in a storm it took about a tenth too much from
// fleet48k's two-worker runs, likely steal on the mostly idle second CPU
// while it polled for work.
func stolenFrom(wall, busy, steal float64) float64 {
	if wall <= 0 || steal <= 0 {
		return 0
	}
	return min(steal/max((busy+steal)/wall, 1), wall)
}

// vmHWM reads a process's peak resident set size in bytes.
func vmHWM(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", v, err)
			}
			return kb * 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// procCPU reads another process's user plus system time from
// /proc/<pid>/stat, in USER_HZ ticks (100 per second on Linux).
func procCPU(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; the fields after its closing
	// parenthesis start at field 3, state.
	_, rest, ok := strings.Cut(string(data), ") ")
	f := strings.Fields(rest)
	if !ok || len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat: %q %q", pid, f[11], f[12])
	}
	return (utime + stime) / 100, nil
}

// usage is a point-in-time reading of the process's clocks and of the
// Go runtime's allocation and GC counters; the difference of two
// readings describes the work between them.
type usage struct {
	wall     time.Time
	cpu      time.Duration
	allocB   uint64
	allocObj uint64
	gcCycles uint64
	gcCPU    float64
	allCPU   float64
	pauseNs  uint64
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readUsage() usage {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		wall:     time.Now(),
		cpu:      cpuTime(),
		allocB:   s[0].Value.Uint64(),
		allocObj: s[1].Value.Uint64(),
		gcCycles: s[2].Value.Uint64(),
		gcCPU:    s[3].Value.Float64(),
		allCPU:   s[4].Value.Float64(),
		pauseNs:  ms.PauseTotalNs,
	}
}

// runtimeDelta is the work between two usage readings.
type runtimeDelta struct {
	Wall     float64 `json:"wall_s"`
	CPU      float64 `json:"cpu_s"`
	AllocMB  float64 `json:"alloc_mb"` // 10^6 bytes, as every MB here
	Objects  float64 `json:"objects"`
	GCCycles float64 `json:"gc_cycles"`
	GCPause  float64 `json:"gc_pause_ms"`
	GCFrac   float64 `json:"gc_cpu_frac"`
}

func since(a usage) runtimeDelta {
	b := readUsage()
	d := runtimeDelta{
		Wall:     b.wall.Sub(a.wall).Seconds(),
		CPU:      (b.cpu - a.cpu).Seconds(),
		AllocMB:  float64(b.allocB-a.allocB) / 1e6,
		Objects:  float64(b.allocObj - a.allocObj),
		GCCycles: float64(b.gcCycles - a.gcCycles),
		GCPause:  float64(b.pauseNs-a.pauseNs) / 1e6,
	}
	if all := b.allCPU - a.allCPU; all > 0 {
		d.GCFrac = (b.gcCPU - a.gcCPU) / all
	}
	return d
}

// liveHeapMB forces a collection and reports the heap still reachable.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}
