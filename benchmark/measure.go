package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runConfig is one benchmark invocation.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64 // timed-phase length
	trace    bool
	smoke    bool   // bench_test.go only: tiny meshes, a handful of steps
	scratch  string // per-run temp dir (removed on exit)
	start    time.Time

	// setupCalib holds the reference-kernel samples of set-up work done
	// before the pass (the replay recording).
	setupCalib []float64
}

// pass is what one build → warm-up → timed-phase → teardown cycle of
// a workload observed, in raw timestamps; the metrics are derived from
// it. Ordinals are 1-based and contiguous: 1..warm are
// warm-up, warm+1..warm+timed are measured.
type pass struct {
	warm  int
	timed int

	// stepStart[i] is when producer rank 0 entered the step hook for
	// ordinal i+1; resultStart[i] when the LAST producer rank did;
	// resultEnd[i] when the slowest consumer's last analysis for that
	// ordinal returned. calib[i] is the reference kernel's time (ms)
	// sampled around ordinal i+1; warmCalib the samples taken during
	// warm-up.
	stepStart   []time.Time
	resultStart []time.Time
	resultEnd   []time.Time
	calib       []float64
	warmCalib   []float64

	memPeak     int64 // max over producer ranks of Accountant.Peak()
	outputBytes int64 // Storage.Bytes(), sim + endpoints

	attempted int
	failed    int
	failures  []string // first few reasons, for the report

	layer map[string]float64 // accessor-derived per-layer metrics
	spans []span             // traced pass only
	mem   memWindow          // allocator activity of the timed phase
	leak  int                // goroutines still alive after teardown
}

// failAll counts one failed operation per ordinal of bad and keeps
// the first few reasons, in ordinal order, for the report.
func (p *pass) failAll(bad map[int64]string) {
	ords := make([]int64, 0, len(bad))
	for ord := range bad {
		ords = append(ords, ord)
	}
	slices.Sort(ords)
	for _, ord := range ords {
		p.failed++
		if len(p.failures) < 12 {
			p.failures = append(p.failures, fmt.Sprintf("step %d: %s", ord, bad[ord]))
		}
	}
}

// sum adds up per-rank byte counts.
func sum(v []int64) int64 {
	var s int64
	for _, x := range v {
		s += x
	}
	return s
}

// measurement is the outcome of one benchmark run of one workload.
type measurement struct {
	metrics  map[string]float64
	measured map[string]float64 // the gated timings as measured, before scaling
	samples  map[string]int     // sample count behind each percentile metric
	sizes    map[string]any     // workload sizes actually used
	failures []string
	spans    []span

	attempted, failed int
}

// span is one traced interval: a layer boundary the benchmark can see
// from outside. Spans of one step share its ordinal.
type span struct {
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	Ordinal int64  `json:"ordinal"`
	Rank    int    `json:"rank"`
	StartNs int64  `json:"start_ns"` // since the start of the workload
	EndNs   int64  `json:"end_ns"`
}

func (c *runConfig) span(name, parent string, ord int64, rank int, a, b time.Time) span {
	return span{Name: name, Parent: parent, Ordinal: ord, Rank: rank,
		StartNs: a.Sub(c.start).Nanoseconds(), EndNs: b.Sub(c.start).Nanoseconds()}
}

// percentile is the nearest-rank percentile of an unsorted sample.
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(v []float64) float64 { return percentile(v, 0.5) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func mb(n int64) float64 { return float64(n) / 1e6 }

// atReference scales a duration (ms) measured between ordinal indices
// i and j to reference speed: times the nominal kernel time over the
// mean of the kernel times sampled at its two ends (calibrate.go).
func (p *pass) atReference(d float64, i, j int) float64 {
	return d * calibNominalMs / ((p.calib[i] + p.calib[j]) / 2)
}

// stepPeriods returns the hook-entry to hook-entry periods (ms) of
// the timed steps on producer rank 0, as measured or at reference
// speed: the period ending at ordinal i is stepStart[i]-stepStart[i-1],
// so the first one starts at the last warm-up step's hook entry.
// Nothing is taken out of a period.
func (p *pass) stepPeriods(reference bool) []float64 {
	var out []float64
	for i := p.warm; i < p.warm+p.timed && i < len(p.stepStart); i++ {
		d := ms(p.stepStart[i].Sub(p.stepStart[i-1]))
		if reference {
			d = p.atReference(d, i-1, i)
		}
		out = append(out, d)
	}
	return out
}

// resultTimes returns the time-to-result (ms) of the timed ordinals.
func (p *pass) resultTimes(reference bool) []float64 {
	var out []float64
	for i := p.warm; i < p.warm+p.timed && i < len(p.resultStart) && i < len(p.resultEnd); i++ {
		if p.resultStart[i].IsZero() || p.resultEnd[i].IsZero() {
			continue
		}
		d := ms(p.resultEnd[i].Sub(p.resultStart[i]))
		if reference {
			d = p.atReference(d, i, i)
		}
		out = append(out, d)
	}
	return out
}

// rate is steps per second over a set of step periods in ms.
func rate(periods []float64) float64 {
	var sum float64
	for _, d := range periods {
		sum += d
	}
	if sum == 0 {
		return 0
	}
	return 1000 * float64(len(periods)) / sum
}

// timings derives the four timing metrics of the contract from a pass
// whose set-up took setup: as measured (the sum of the step periods is
// then the timed wall time, so steps_per_s is timed steps over timed
// wall), or at reference speed, which is what the contract gates.
func (p *pass) timings(setup time.Duration, setupCalib []float64, reference bool) (map[string]float64, map[string]int) {
	periods, ttr := p.stepPeriods(reference), p.resultTimes(reference)
	m := map[string]float64{
		"setup_s":               setup.Seconds(),
		"steps_per_s":           rate(periods),
		"step_ms_p50":           percentile(periods, 0.5),
		"time_to_result_ms_p50": percentile(ttr, 0.5),
	}
	if reference {
		// The median: the first sample of a run can read several times
		// the rest while consumers are still starting up.
		m["setup_s"] *= calibNominalMs / median(slices.Concat(setupCalib, p.warmCalib))
	}
	return m, map[string]int{"step_ms_p50": len(periods), "time_to_result_ms_p50": len(ttr)}
}

// memWindow is allocator activity between two runtime.MemStats
// readings (taken at phase boundaries only: ReadMemStats stops the
// world).
type memWindow struct {
	mallocs, bytes uint64
	gcs            uint32
	pause          time.Duration
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memBetween(a, b runtime.MemStats) memWindow {
	return memWindow{
		mallocs: b.Mallocs - a.Mallocs, bytes: b.TotalAlloc - a.TotalAlloc,
		gcs: b.NumGC - a.NumGC, pause: time.Duration(b.PauseTotalNs - a.PauseTotalNs),
	}
}

// rssPeakMB reads the process's resident high-water mark.
func rssPeakMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}

// leakedGoroutines waits briefly for teardown to settle and reports
// how many goroutines outlived the workload.
func leakedGoroutines(before int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine() - before
		if n <= 0 || time.Now().After(deadline) {
			if n < 0 {
				n = 0
			}
			return n
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// processMetrics fills the process.* layer metrics from a pass.
func (p *pass) processMetrics(into map[string]float64) {
	steps := float64(p.timed)
	if steps == 0 {
		steps = 1
	}
	into["process.allocs_per_step"] = float64(p.mem.mallocs) / steps
	into["process.alloc_mb_per_step"] = float64(p.mem.bytes) / 1e6 / steps
	into["process.gc_cycles"] = float64(p.mem.gcs)
	into["process.gc_pause_ms"] = ms(p.mem.pause)
	into["process.rss_peak_mb"] = rssPeakMB()
	into["process.goroutines_leaked"] = float64(p.leak)
}
