package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"nekrs-sensei/internal/cases"
	"nekrs-sensei/internal/render"
)

// TestContractMatchesSpec keeps BENCHMARK.json and the metric tables
// in spec.go one and the same.
func TestContractMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	var a, b any
	if err := json.Unmarshal(raw, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(want, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("BENCHMARK.json differs from the tables in spec.go; regenerate it with `go run ./benchmark -spec`")
	}
	if n := len(perLayer); n > 128 {
		t.Fatalf("%d per-layer metrics, the contract allows 128", n)
	}
	for _, w := range workloads {
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
}

// TestWorkloadsSmoke runs all four workloads at smoke scale, untraced
// and traced, and asserts that exactly the contract's metrics come
// out, each with its unit, and that every correctness check passes.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.Name, trace), func(t *testing.T) {
				cfg := &runConfig{workload: w.Name, seed: 1, seconds: 0.3, trace: trace, smoke: true,
					scratch: t.TempDir(), start: time.Now()}
				m, err := w.run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if m.attempted < 1 || m.failed != 0 {
					t.Fatalf("attempted %d, failed %d: %v", m.attempted, m.failed, m.failures)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				want := map[string]bool{}
				for _, d := range defs {
					want[d.Name] = true
					if d.Unit == "" {
						t.Errorf("%s has no unit", d.Name)
					}
					if _, ok := m.metrics[d.Name]; !ok && !trace {
						t.Errorf("end-to-end metric %s not measured", d.Name)
					}
					if !trace && !(m.metrics[d.Name] > 0) {
						t.Errorf("end-to-end metric %s = %g, must never be zero", d.Name, m.metrics[d.Name])
					}
				}
				for name := range m.metrics {
					if !want[name] {
						t.Errorf("metric %q is not in BENCHMARK.json", name)
					}
				}
				if trace {
					// Every layer the workload exercises reports something.
					for _, name := range []string{"tensor.deriv_gflops", "adios.marshal_mb_per_s",
						"codec.ratio.quantize", "staging.tcp_mb_per_s", "render.draw_ms",
						"archive.read_mb_per_s", "telemetry.trace_overhead_ratio", "span.self_sum_ratio"} {
						if !(m.metrics[name] > 0) {
							t.Errorf("%s = %g", name, m.metrics[name])
						}
					}
					if len(m.spans) == 0 {
						t.Error("traced pass recorded no spans")
					}
					if w.Name == "pb146-mesh-replay" {
						for _, s := range m.spans {
							if s.Name == "solve" {
								t.Fatal("a solver span in the replay workload's timed phase")
							}
						}
					}
				}
			})
		}
	}
}

// TestResultLine checks the contract's last-line shape through the
// guarded runner, which also fills metrics a workload has no value
// for.
func TestResultLine(t *testing.T) {
	dir := t.TempDir()
	t.Chdir(dir)
	cfg := &runConfig{workload: "pb146-solve", seed: 3, seconds: 0.2, trace: true, smoke: true, start: time.Now()}
	res := runGuarded(findWorkload(cfg.workload), cfg)
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Fatalf("%+v", res.Failures)
	}
	if len(res.Metrics) != len(perLayer) {
		t.Fatalf("%d metrics, the contract lists %d per-layer ones", len(res.Metrics), len(perLayer))
	}
	for _, d := range perLayer {
		if res.Metrics[d.Name].Unit != d.Unit {
			t.Errorf("%s: unit %q, want %q", d.Name, res.Metrics[d.Name].Unit, d.Unit)
		}
	}
	if err := res.write(filepath.Join(dir, "out")); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "out", "pb146-solve-seed3-trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"cpu"`, `"nproc"`, `"gomaxprocs"`, `"l2_per_core"`, `"go_version"`, `"git_commit"`, `"sizes"`} {
		if !bytes.Contains(raw, []byte(key)) {
			t.Errorf("result file lacks %s", key)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "out", "pb146-solve-seed3-trace-spans.json")); err != nil {
		t.Error(err)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, ".bench_build", "run-*")); len(left) != 0 {
		t.Errorf("scratch directories left behind: %v", left)
	}
}

// TestChecksCatchFailures feeds the correctness checks a dropped
// step, a reordered step, a duplicate and a corrupted PNG, and
// expects each to raise the failed count.
func TestChecksCatchFailures(t *testing.T) {
	if bad := checkOrdinals([]int64{1, 2, 3, 4, 5}, 5); len(bad) != 0 {
		t.Fatalf("clean sequence flagged: %v", bad)
	}
	for name, tc := range map[string]struct {
		seen []int64
		ord  int64
	}{
		"dropped":    {[]int64{1, 2, 4, 5}, 3},
		"reordered":  {[]int64{1, 3, 2, 4, 5}, 2},
		"duplicated": {[]int64{1, 2, 2, 3, 4, 5}, 2},
		"unknown":    {[]int64{1, 2, 3, 4, 5, 9}, 9},
	} {
		bad := checkOrdinals(tc.seen, 5)
		if bad[tc.ord] == "" {
			t.Errorf("%s step not caught: %v", name, bad)
		}
		p := &pass{attempted: 5}
		p.failAll(bad)
		if share := float64(p.failed) / float64(p.attempted); !(share > 0) {
			t.Errorf("%s: failed share %g", name, share)
		}
	}

	dir := t.TempDir()
	fb := render.NewFramebuffer(16, 16)
	for i := 0; i < 40; i += 4 {
		fb.Color[i] = 200 // a few lit pixels
	}
	for ord := 1; ord <= 3; ord++ {
		var buf bytes.Buffer
		if _, err := render.EncodePNG(&buf, fb); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		if ord == 2 {
			raw = raw[:len(raw)/2] // corrupted on disk
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("img_%06d.png", ord)), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	bad := checkImages(dir, []string{"img_%06d.png"}, 4)
	if bad[2] == "" || bad[4] == "" || len(bad) != 2 {
		t.Fatalf("want the corrupted image 2 and the missing image 4, got %v", bad)
	}
	empty := render.NewFramebuffer(16, 16)
	var buf bytes.Buffer
	if _, err := render.EncodePNG(&buf, empty); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "img_000004.png"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if bad := checkImages(dir, []string{"img_%06d.png"}, 4); !strings.Contains(bad[4], "empty") {
		t.Fatalf("image without geometry not caught: %v", bad)
	}

	ref := histogramResult{lo: 0, hi: 1, counts: []int64{5, 5, 5}}
	if err := histogramsEqual(ref, ref, 0, 0); err != nil {
		t.Fatal(err)
	}
	moved := histogramResult{lo: 0, hi: 1, counts: []int64{4, 6, 5}}
	if histogramsEqual(moved, ref, 0, 0) == nil {
		t.Error("a moved count passed the exact comparison")
	}
	if err := histogramsEqual(moved, ref, 1e-6, 1); err != nil {
		t.Errorf("one value within reach of an edge may move: %v", err)
	}
	if histogramsEqual(histogramResult{lo: 0, hi: 1.1, counts: ref.counts}, ref, 1e-6, 1) == nil {
		t.Error("a range off by more than the bound passed")
	}
}

// TestSeededInputs: the same seed generates the same case, another
// seed another one, and the perturbation keeps no-slip walls at rest.
func TestSeededInputs(t *testing.T) {
	a, b, c := perturbCase(cases.PB146(1, 3), 7), perturbCase(cases.PB146(1, 3), 7), perturbCase(cases.PB146(1, 3), 8)
	ua, _, _ := a.InitialVelocity(0.3, 0.4, 0.5)
	ub, _, _ := b.InitialVelocity(0.3, 0.4, 0.5)
	uc, _, _ := c.InitialVelocity(0.3, 0.4, 0.5)
	if ua != ub || ua == uc || ua == 0 {
		t.Fatalf("seed 7 gives %g and %g, seed 8 gives %g", ua, ub, uc)
	}
	if u, v, w := a.InitialVelocity(0, 0.4, 0.5); u != 0 || v != 0 || w != 0 {
		t.Fatalf("velocity (%g,%g,%g) on a no-slip wall", u, v, w)
	}
	if ta := a.InitialTemperature(0.3, 0.4, 0.5); ta > perturbAmplitude || ta < -perturbAmplitude {
		t.Fatalf("temperature perturbation %g beyond the amplitude", ta)
	}
}

// TestCompare builds result files for a parent and a change and
// expects the four verdicts.
func TestCompare(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles %g, %g; statistics.quantiles gives 2.75, 8.25", q1, q3)
	}
	write := func(dir string, i int, metrics map[string]float64) {
		r := result{Workload: "pb146-solve", Seed: int64(i), Attempted: 10, Correct: true, Metrics: map[string]metricValue{}}
		for k, v := range metrics {
			r.Metrics[k] = metricValue{Value: v}
		}
		if err := r.write(dir); err != nil {
			t.Fatal(err)
		}
	}
	oldDir, newDir := filepath.Join(t.TempDir(), "old"), filepath.Join(t.TempDir(), "new")
	for i := 0; i < 10; i++ {
		jitter := 1 + 0.002*float64(i%5)
		noisy := 1 + 0.2*float64(i%5)
		write(oldDir, i, map[string]float64{"steps_per_s": 2.0 * jitter, "step_ms_p50": 400 * jitter,
			"time_to_result_ms_p50": 5 * noisy, "sim_mem_peak_mb": 9.7})
		write(newDir, i, map[string]float64{"steps_per_s": 2.6 * jitter, "step_ms_p50": 560 * jitter,
			"time_to_result_ms_p50": 5.5 * noisy, "sim_mem_peak_mb": 9.8})
	}
	var out bytes.Buffer
	regressed, err := compareResults(&out, oldDir, newDir)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Error("a 40% slower step_ms_p50 (bound 25%) did not count as a regression")
	}
	for metric, want := range map[string]string{
		"steps_per_s": "better", "step_ms_p50": "REGRESSED",
		"time_to_result_ms_p50": "unresolved", "sim_mem_peak_mb": "within bound",
	} {
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, metric) && strings.Contains(line, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: want verdict %q in\n%s", strings.TrimSpace(metric), want, out.String())
		}
	}
}
