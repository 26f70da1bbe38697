package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
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

// TestKernelsBitIdenticalToGeneric is the summation-order contract:
// for Nq 2..12 every exported kernel — generated or not — returns
// exactly the bits of the generic loops, on dense random data, on data
// with the exact zeros Dirichlet masks and solid regions produce, and
// on signed zeros; the accumulating transposes on top of prior content.
func TestKernelsBitIdenticalToGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for nq := 2; nq <= 12; nq++ {
		nodes, _ := GLL(nq)
		d := DerivMatrix(nodes)
		np := nq * nq * nq
		for _, k := range derivKernels {
			for trial := 0; trial < 6; trial++ {
				u := make([]float64, np)
				for i := range u {
					u[i] = rng.NormFloat64()
					if trial >= 2 && rng.Intn(3) == 0 {
						u[i] = 0
					}
					if trial >= 4 && rng.Intn(4) == 0 {
						u[i] = math.Copysign(0, -1)
					}
				}
				got := make([]float64, np)
				want := make([]float64, np)
				if k.accumulates && trial%2 == 0 {
					for i := range got {
						got[i] = rng.NormFloat64()
						want[i] = got[i]
					}
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
	}
}

// TestGeneratedSizesDispatch: the sizes the cases run must reach a
// generated kernel, or the solver silently falls back to loops three
// times slower.
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
	}
}

// BenchmarkDeriv reports ns per point per derivative for every kernel
// at the Nq the cases run, streaming over 64 elements.
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
			b.Run(fmt.Sprintf("nq=%d/%s", nq, k.name), func(b *testing.B) {
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
