// Command benchmark is the repository's one end-to-end benchmark: four
// closed-loop workloads on the real pb146/RBC solvers and the staging
// mesh, the end-to-end metrics a user sees, and a per-layer table
// measured from outside each package. BENCHMARK.json at the repository
// root is its contract; README.md in this directory is the glossary.
//
//	bash benchmark/run.sh --workload pb146-solve --seed 1 --seconds 25 --trace 0
//	go run ./benchmark -compare old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// updateGolden rewrites benchmark/testdata/golden.json from this run
// instead of comparing against it.
var updateGolden bool

// watchdogGrace is how long past its timed phase a workload may run
// before it is declared deadlocked.
const watchdogGrace = 100 * time.Second

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (default: each of "+workloadNames()+" in turn)")
		seed     = flag.Int64("seed", 1, "seed for the generated inputs")
		seconds  = flag.Float64("seconds", runSeconds, "length of the timed phase")
		trace    = flag.Int("trace", 0, "1 = traced pass: per-layer metrics, spans and layer probes")
		out      = flag.String("out", "", "directory for result files (and spans on a traced run)")
		compare  = flag.Bool("compare", false, "compare two result files or directories: -compare old new")
		spec     = flag.Bool("spec", false, "print BENCHMARK.json from the metric tables and exit")
	)
	flag.BoolVar(&updateGolden, "update-golden", false, "rewrite testdata/golden.json from this run (seed 1 only)")
	flag.Parse()

	switch {
	case *spec:
		doc, err := benchmarkJSON()
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(doc))
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: -compare old new"))
		}
		regressed, err := compareResults(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected arguments %v", flag.Args()))
	}

	// The driver names one workload; without one all four run in turn
	// (the issue's `go run ./benchmark -seed 1 -out dir`).
	run := workloads
	if *workload != "" {
		w := findWorkload(*workload)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q (have %s)", *workload, workloadNames()))
		}
		run = []workloadDef{*w}
	}
	ok := true
	for i := range run {
		res := runGuarded(&run[i], &runConfig{workload: run[i].Name, seed: *seed, seconds: *seconds,
			trace: *trace != 0, start: time.Now()})
		res.print(os.Stdout)
		if *out != "" {
			if err := res.write(*out); err != nil {
				fatal(err)
			}
		}
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// metricValue is one emitted metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's run: the contract's result line plus the
// environment fingerprint the result files carry.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Samples   map[string]int         `json:"samples,omitempty"`
	Sizes     map[string]any         `json:"sizes,omitempty"`
	Failures  []string               `json:"failures,omitempty"`
	// Measured holds the gated timings as measured, before they were
	// taken to reference speed (result files and the "# as measured"
	// line only, not the result line).
	Measured map[string]float64 `json:"as_measured,omitempty"`
	Env      environment        `json:"env"`

	spans []span
}

// runGuarded runs one workload in a scratch directory of its own
// under a watchdog: a workload that errors or deadlocks is reported
// as wholly failed instead of hanging the caller.
func runGuarded(w *workloadDef, cfg *runConfig) *result {
	res := &result{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Env: fingerprint(), Metrics: map[string]metricValue{}}
	failWhole := func(err error) *result {
		res.Correct, res.Attempted, res.Failed = false, 1, 1
		res.Failures = []string{err.Error()}
		return res
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return failWhole(err)
	}
	scratch, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return failWhole(err)
	}
	defer os.RemoveAll(scratch)
	cfg.scratch = scratch

	type outcome struct {
		m   *measurement
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		m, err := w.run(cfg)
		done <- outcome{m, err}
	}()
	limit := time.Duration(cfg.seconds*float64(time.Second)) + watchdogGrace
	select {
	case o := <-done:
		if o.err != nil {
			return failWhole(o.err)
		}
		m := o.m
		res.Attempted, res.Failed = m.attempted, m.failed
		res.Correct = m.failed == 0 && m.attempted > 0
		res.Samples, res.Sizes, res.Failures, res.spans, res.Measured = m.samples, m.sizes, m.failures, m.spans, m.measured
		defs := endToEnd
		if cfg.trace {
			defs = perLayer
		}
		for _, d := range defs {
			res.Metrics[d.Name] = metricValue{Value: m.metrics[d.Name], Unit: d.Unit}
		}
		return res
	case <-time.After(limit):
		// The workload's goroutines are stuck; report and leave them to
		// process exit.
		os.RemoveAll(scratch)
		res = failWhole(fmt.Errorf("%s did not finish within %s: deadlocked", cfg.workload, limit))
		res.print(os.Stdout)
		os.Exit(1)
		return nil
	}
}

// print writes every metric by name with its unit, the failures, and
// as the LAST line the contract's result object.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "# %s seed=%d seconds=%g trace=%v sizes=%v\n", r.Workload, r.Seed, r.Seconds, r.Trace, r.Sizes)
	for _, name := range sortedKeys(r.Metrics) {
		m := r.Metrics[name]
		extra := ""
		if n, ok := r.Samples[name]; ok {
			extra = fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Fprintf(w, "%-40s %14.6g %s%s\n", name, m.Value, m.Unit, extra)
	}
	if len(r.Measured) > 0 {
		fmt.Fprint(w, "# as measured:")
		for _, name := range sortedKeys(r.Measured) {
			fmt.Fprintf(w, " %s=%.6g", name, r.Measured[name])
		}
		fmt.Fprintln(w)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(w, string(line))
}

// write stores the result (with its fingerprint) and, on a traced
// run, the spans under dir.
func (r *result) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s-seed%d", r.Workload, r.Seed)
	if r.Trace {
		base += "-trace"
	}
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, base+".json"), append(raw, '\n'), 0o644); err != nil {
		return err
	}
	if !r.Trace {
		return nil
	}
	raw, err = json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, base+"-spans.json"), append(raw, '\n'), 0o644)
}

// passFunc runs one build → warm-up → timed → teardown cycle. A
// non-nil cap makes it the traced pass: telemetry attached, spans kept,
// and the probe dataset captured into cap.
type passFunc func(seconds float64, cap *captured) (*pass, error)

// runPasses is the shape every workload's run shares. Untraced: one
// pass with no telemetry and no spans; set-up runs from the start of
// the workload to the first timed step period. Traced: an untraced and
// a traced pass of half the time each — their steps/s ratio is the
// tracing overhead — then the layer probes on the data the traced pass
// captured. The gated timings are at reference speed (calibrate.go);
// everything else, and measurement.measured, is as measured.
func runPasses(cfg *runConfig, sizes map[string]any, run passFunc) (*measurement, error) {
	m := &measurement{metrics: map[string]float64{}, sizes: sizes}
	sizes["gomaxprocs"] = runtime.GOMAXPROCS(0)
	absorb := func(p *pass) {
		m.attempted += p.attempted
		m.failed += p.failed
		m.failures = append(m.failures, p.failures...)
	}

	if !cfg.trace {
		p, err := run(cfg.seconds, nil)
		if err != nil {
			return nil, err
		}
		setup := p.stepStart[p.warm-1].Sub(cfg.start)
		m.metrics, m.samples = p.timings(setup, cfg.setupCalib, true)
		m.metrics["sim_mem_peak_mb"] = mb(p.memPeak)
		m.measured, _ = p.timings(setup, nil, false)
		m.measured["calib_ms"] = median(p.calib[p.warm:])
		sizes["timed_steps"] = p.timed
		absorb(p)
		return m, nil
	}

	base, err := run(cfg.seconds/2, nil)
	if err != nil {
		return nil, err
	}
	absorb(base)
	cap := newCaptured(2)
	p, err := run(cfg.seconds/2, cap)
	if err != nil {
		return nil, err
	}
	absorb(p)
	sizes["timed_steps"] = p.timed
	for k, v := range p.layer {
		m.metrics[k] = v
	}
	p.processMetrics(m.metrics)
	// The two passes run one after the other, so their ratio is taken
	// at reference speed.
	if b := rate(base.stepPeriods(true)); b > 0 {
		m.metrics["telemetry.trace_overhead_ratio"] = rate(p.stepPeriods(true)) / b
	}
	periods, ttr := p.stepPeriods(false), p.resultTimes(false)
	m.metrics["step_ms_p90"] = percentile(periods, 0.9)
	m.metrics["time_to_result_ms_p90"] = percentile(ttr, 0.9)
	m.samples = map[string]int{"step_ms_p90": len(periods), "time_to_result_ms_p90": len(ttr)}
	m.metrics["bench.calib_ms"] = median(p.calib[p.warm:])
	m.metrics["bench.speed_factor"] = rate(p.stepPeriods(true)) / rate(periods)
	m.measured = map[string]float64{"steps_per_s": rate(periods), "step_ms_p50": median(periods), "time_to_result_ms_p50": median(ttr)}
	m.metrics["output_mb"] = mb(p.outputBytes)
	m.metrics["failed_share"] = float64(m.failed) / float64(max(m.attempted, 1))
	spanMetrics(p, m.metrics)
	m.spans = p.spans
	if err := runProbes(cfg, cap, m.metrics); err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	return m, nil
}
