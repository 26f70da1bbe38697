package tensor

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"

	"nekrs-sensei/internal/cpuid"
)

type derivKernel struct {
	name          string
	fast, generic func(d []float64, nq int, u, out []float64)
	accumulates   bool
}

var derivKernels = []derivKernel{
	{"DerivR", DerivR, derivRGeneric, false},
	{"DerivS", DerivS, derivSGeneric, false},
	{"DerivT", DerivT, derivTGeneric, false},
	{"DerivRT", DerivRT, derivRTGeneric, true},
	{"DerivST", DerivST, derivSTGeneric, true},
	{"DerivTT", DerivTT, derivTTGeneric, true},
}

// The generated sizes run the assembly if the CPU has AVX2, else the
// generated Go kernels; cpuid.Paths lists them and cpuid.Use switches
// to one for the rest of the test.

// operandLayouts place a kernel's operands in memory: each returns n
// values whose content the caller sets. guard_linux_test.go adds the
// two that put an inaccessible page right after and right before them.
type operandLayout struct {
	name  string
	alloc func(tb testing.TB, n int) []float64
}

var operandLayouts = []operandLayout{
	{"plain", func(_ testing.TB, n int) []float64 { return make([]float64, n) }},
	// One value past an allocation boundary: never 32-byte aligned.
	{"odd offset", func(_ testing.TB, n int) []float64 { return make([]float64, n+1)[1:] }},
}

// TestKernelsBitIdenticalToGeneric is the summation-order contract:
// for Nq 2..12 every exported kernel — on every path this machine has,
// generated or not — returns exactly the bits of the generic loops, on
// dense random data, on data with the exact zeros Dirichlet masks and
// solid regions produce, and on signed zeros; the accumulating
// transposes on top of prior content; and so does Metric, on one
// element and on two points more. Under the guard-page layouts a
// single access outside [0,nq^2) of d or [0,nq^3) of u and out (outside
// its n or 6n values, for Metric) is a fault, which ends the test
// binary.
func TestKernelsBitIdenticalToGeneric(t *testing.T) {
	for _, path := range cpuid.Paths() {
		for _, lay := range operandLayouts {
			t.Run(path+"/"+lay.name, func(t *testing.T) {
				cpuid.Use(t, path)
				rng := rand.New(rand.NewSource(13))
				for nq := 2; nq <= 12; nq++ {
					nodes, _ := GLL(nq)
					np := nq * nq * nq
					d, u, got := lay.alloc(t, nq*nq), lay.alloc(t, np), lay.alloc(t, np)
					copy(d, DerivMatrix(nodes))
					want := make([]float64, np)
					for _, k := range derivKernels {
						for trial := 0; trial < 6; trial++ {
							for i := range u {
								u[i] = rng.NormFloat64()
								if trial >= 2 && rng.Intn(3) == 0 {
									u[i] = 0
								}
								if trial >= 4 && rng.Intn(4) == 0 {
									u[i] = math.Copysign(0, -1)
								}
							}
							for i := range got {
								switch {
								case !k.accumulates:
									got[i] = math.NaN() // must be overwritten
								case trial%2 == 0:
									got[i] = rng.NormFloat64()
								default:
									got[i] = 0
								}
								want[i] = got[i]
							}
							k.fast(d, nq, u, got)
							k.generic(d, nq, u, want)
							for i := range got {
								if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
									t.Fatalf("%s nq=%d trial %d: out[%d] = %v (%#x), generic %v (%#x)", k.name, nq, trial, i,
										got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
								}
							}
						}
					}
					// One element, and two points more: every tail
					// of 0-3 lanes.
					for _, n := range []int{np, np + 2} {
						checkMetric(t, lay, rng, n)
					}
				}
			})
		}
	}
}

// checkMetric holds Metric on n points to metricGeneric, bit for bit,
// with g, ur, us and ut each placed by lay.
func checkMetric(t *testing.T, lay operandLayout, rng *rand.Rand, n int) {
	t.Helper()
	g := lay.alloc(t, 6*n)
	got := [3][]float64{lay.alloc(t, n), lay.alloc(t, n), lay.alloc(t, n)}
	for trial := 0; trial < 6; trial++ {
		for i := range g {
			g[i] = rng.NormFloat64()
		}
		var want [3][]float64
		for c, v := range got {
			for i := range v {
				v[i] = rng.NormFloat64()
				if trial >= 2 && rng.Intn(3) == 0 {
					v[i] = 0
				}
				if trial >= 4 && rng.Intn(4) == 0 {
					v[i] = math.Copysign(0, -1)
				}
			}
			want[c] = append([]float64(nil), v...)
		}
		Metric(g, got[0], got[1], got[2])
		metricGeneric(g, want[0], want[1], want[2])
		for c := range got {
			for i := range got[c] {
				if math.Float64bits(got[c][i]) != math.Float64bits(want[c][i]) {
					t.Fatalf("Metric n=%d trial %d: output %d [%d] = %v (%#x), generic %v (%#x)", n, trial, c, i,
						got[c][i], math.Float64bits(got[c][i]), want[c][i], math.Float64bits(want[c][i]))
				}
			}
		}
	}
}

// TestShortOperandsPanic: an operand one value short of nq^2 or nq^3
// is a Go panic on every path — the array conversions of the generated
// Go kernels, the index checks in front of the assembly — even when
// its capacity would have covered what the kernel touches.
func TestShortOperandsPanic(t *testing.T) {
	for _, path := range cpuid.Paths() {
		cpuid.Use(t, path)
		for _, nq := range generatedSizes {
			np := nq * nq * nq
			for _, k := range derivKernels {
				for short := 0; short < 3; short++ {
					ops := [3][]float64{make([]float64, nq*nq), make([]float64, np), make([]float64, np)}
					ops[short] = ops[short][:len(ops[short])-1]
					func() {
						defer func() {
							if recover() == nil {
								t.Errorf("%s path %s nq=%d: operand %d one value short did not panic", k.name, path, nq, short)
							}
						}()
						k.fast(ops[0], nq, ops[1], ops[2])
					}()
				}
			}
			// Metric takes its length from ur: g, us and ut can be short.
			for _, short := range []int{0, 2, 3} {
				ops := [4][]float64{make([]float64, 6*np), make([]float64, np), make([]float64, np), make([]float64, np)}
				ops[short] = ops[short][:len(ops[short])-1]
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("Metric path %s n=%d: operand %d one value short did not panic", path, np, short)
						}
					}()
					Metric(ops[0], ops[1], ops[2], ops[3])
				}()
			}
		}
	}
}

// TestAssemblyHasNoFMA: a fused multiply-add rounds once where the
// contract rounds twice, so the generated assembly may not hold one.
func TestAssemblyHasNoFMA(t *testing.T) {
	text, err := os.ReadFile("kernels_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []string{"VMULPD", "VADDPD", "TEXT ·mm7planes", "TEXT ·metricPlanes"} {
		if !bytes.Contains(text, []byte(op)) {
			t.Errorf("kernels_amd64.s has no %s: is it still the kernels?", op)
		}
	}
	for _, op := range []string{"VFM", "VFNM"} {
		if i := bytes.Index(text, []byte(op)); i >= 0 {
			t.Errorf("kernels_amd64.s holds a fused multiply-add: %q", text[i:i+12])
		}
	}
}

// TestGeneratedSizesDispatch: the sizes the cases run must reach a
// generated kernel — and, on a machine with AVX2, the assembly — or
// the solver silently falls back to loops several times slower.
func TestGeneratedSizesDispatch(t *testing.T) {
	have := make(map[int]bool)
	for _, nq := range generatedSizes {
		have[nq] = true
	}
	for _, nq := range []int{4, 6, 7, 8} {
		if !have[nq] {
			t.Errorf("no generated kernels for nq=%d", nq)
		}
	}
	for nq := 2; nq <= 12; nq++ {
		np := nq * nq * nq
		d, u, out := make([]float64, nq*nq), make([]float64, np), make([]float64, np)
		if got := derivRFixed(d, nq, u, out); got != have[nq] {
			t.Errorf("derivRFixed(nq=%d) = %v, generatedSizes says %v", nq, got, have[nq])
		}
		if got := derivAVX2(axisR, false, d, nq, u, out); got != (cpuid.AVX2 && have[nq]) {
			t.Errorf("derivAVX2(nq=%d) = %v with AVX2 %v, generatedSizes says %v", nq, got, cpuid.AVX2, have[nq])
		}
	}
}

// BenchmarkDeriv reports ns per point per derivative for every kernel
// at the Nq the cases run, streaming over 64 elements, on each path
// this machine has (".../avx2" next to ".../go").
func BenchmarkDeriv(b *testing.B) {
	const elems = 64
	for _, nq := range []int{4, 6, 7, 8} {
		nodes, _ := GLL(nq)
		d := DerivMatrix(nodes)
		np := nq * nq * nq
		u := make([]float64, elems*np)
		out := make([]float64, elems*np)
		for i := range u {
			u[i] = math.Sin(float64(i) * 1e-3)
		}
		for _, k := range derivKernels {
			for _, path := range cpuid.Paths() {
				b.Run(fmt.Sprintf("nq=%d/%s/%s", nq, k.name, path), func(b *testing.B) {
					cpuid.Use(b, path)
					for it := 0; it < b.N; it++ {
						for e := 0; e < elems; e++ {
							k.fast(d, nq, u[e*np:(e+1)*np], out[e*np:(e+1)*np])
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*elems*np), "ns/point")
				})
			}
		}
	}
}

// BenchmarkMetric reports ns per point of the metric contraction at
// nq = 7, streaming over 64 elements, on each path this machine has.
func BenchmarkMetric(b *testing.B) {
	const elems, np = 64, 7 * 7 * 7
	g, u := make([]float64, 6*elems*np), make([]float64, 3*elems*np)
	for i := range g {
		g[i] = math.Sin(float64(i) * 1e-3)
	}
	for _, path := range cpuid.Paths() {
		b.Run(path, func(b *testing.B) {
			cpuid.Use(b, path)
			for it := 0; it < b.N; it++ {
				for e := 0; e < elems; e++ {
					ue := u[3*e*np : 3*(e+1)*np]
					Metric(g[6*e*np:6*(e+1)*np], ue[:np], ue[np:2*np], ue[2*np:])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*elems*np), "ns/point")
		})
	}
}
