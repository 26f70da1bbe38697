package sensei

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"nekrs-sensei/internal/cpuid"
)

// The histogram kernels against their Go loops: rangeGo and binGo are
// the oracles, and Range and binCounts must leave the same bits on
// every path this machine has.

var negZero = math.Copysign(0, -1)

// specials are the values whose ordering, sign or conversion the
// kernels could get wrong.
var specials = []float64{
	math.NaN(), 0, negZero, math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, -0x1p-1022,
	math.MaxFloat64, -math.MaxFloat64, 0x1p63, -0x1p63, 1, -1,
}

// kernelLength is a length of 0–17 half the time (every split of a
// vector block and a tail), else a longer one that is rarely a
// multiple of the vector width.
func kernelLength(rng *rand.Rand) int {
	if rng.Intn(2) == 0 {
		return rng.Intn(18)
	}
	return 18 + rng.Intn(300)
}

// kernelInput draws n values from one of five mixes: specials alone;
// signed zeros with values of one sign (the extreme is then a zero,
// and which sign the first one has decides the answer); small integers
// (ties everywhere); wide-ranging normals with specials sprinkled in.
func kernelInput(rng *rand.Rand, n int) []float64 {
	data := make([]float64, n)
	mode := rng.Intn(5)
	for i := range data {
		v := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(13)-6))
		switch {
		case mode == 0 || rng.Intn(8) == 0:
			v = specials[rng.Intn(len(specials))]
		case mode == 1 || mode == 2:
			v = []float64{0, negZero, 1, 2, math.NaN()}[rng.Intn(5)]
			if mode == 2 && v != 0 {
				v = -v
			}
		case mode == 3:
			v = float64(rng.Intn(5) - 2)
		}
		data[i] = v
	}
	return data
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// binParams returns the lo and scale Execute would use for data, or
// now and then a hostile pair: a special lo, a scale of 0, Inf, NaN or
// one that sends t past 2^63.
func binParams(rng *rand.Rand, data []float64, bins int) (lo, scale float64) {
	lo, hi := rangeGo(data, math.Inf(1), math.Inf(-1))
	if hi <= lo {
		hi = lo + 1
	}
	scale = float64(bins) / (hi - lo)
	if rng.Intn(4) == 0 {
		lo = specials[rng.Intn(len(specials))]
	}
	if rng.Intn(4) == 0 {
		scale = []float64{0, math.Inf(1), math.NaN(), 1e300, -1, 0x1p62, 1e-300}[rng.Intn(7)]
	}
	return lo, scale
}

// onEdges moves some values onto the bin edges lo + k/scale, where the
// truncation decides between two bins.
func onEdges(rng *rand.Rand, data []float64, bins int, lo, scale float64) {
	for i := range data {
		if rng.Intn(3) == 0 {
			data[i] = lo + float64(rng.Intn(bins+2))/scale
		}
	}
}

func checkRange(t *testing.T, data []float64) {
	t.Helper()
	wantLo, wantHi := rangeGo(data, math.Inf(1), math.Inf(-1))
	if lo, hi := Range(data); !sameBits(lo, wantLo) || !sameBits(hi, wantHi) {
		t.Fatalf("Range(%v) = %v, %v (bits %x %x), the loop gives %v, %v (bits %x %x)", data,
			lo, hi, math.Float64bits(lo), math.Float64bits(hi),
			wantLo, wantHi, math.Float64bits(wantLo), math.Float64bits(wantHi))
	}
}

func checkBins(t *testing.T, sub []int64, data []float64, bins int, lo, scale float64) []int64 {
	t.Helper()
	want := make([]int64, bins)
	binGo(want, data, lo, scale)
	got := make([]int64, bins)
	sub = binCounts(got, sub, data, lo, scale)
	if !slices.Equal(got, want) {
		t.Fatalf("bins of %v with lo %v scale %v: %v, the loop gives %v", data, lo, scale, got, want)
	}
	return sub
}

func TestRangeMatchesGoLoop(t *testing.T) {
	for _, path := range cpuid.Paths() {
		t.Run(path, func(t *testing.T) {
			cpuid.Use(t, path)
			rng := rand.New(rand.NewSource(31))
			for iter := 0; iter < 20000; iter++ {
				checkRange(t, kernelInput(rng, kernelLength(rng)))
			}
			// Every order of +0 and -0 in every lane and the tail.
			for n := 1; n <= 17; n++ {
				for first := 0; first < n; first++ {
					for _, fill := range []float64{1, -1, math.NaN()} {
						data := make([]float64, n)
						for i := range data {
							data[i] = fill
						}
						data[first] = negZero
						for i := first + 1; i < n; i += 2 {
							data[i] = 0
						}
						checkRange(t, data)
						data[first] = 0
						for i := first + 1; i < n; i += 2 {
							data[i] = negZero
						}
						checkRange(t, data)
					}
				}
			}
		})
	}
}

func TestBinsMatchGoLoop(t *testing.T) {
	for _, path := range cpuid.Paths() {
		t.Run(path, func(t *testing.T) {
			cpuid.Use(t, path)
			rng := rand.New(rand.NewSource(32))
			var sub []int64
			for iter := 0; iter < 20000; iter++ {
				data := kernelInput(rng, kernelLength(rng))
				bins := 1 + rng.Intn(64)
				lo, scale := binParams(rng, data, bins)
				if rng.Intn(2) == 0 {
					onEdges(rng, data, bins, lo, scale)
				}
				sub = checkBins(t, sub, data, bins, lo, scale)
			}
		})
	}
}

// TestHistogramPathsAgree: whole Executes on both paths leave the same
// edges and counts.
func TestHistogramPathsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	inputs := make([][]float64, 50)
	for i := range inputs {
		inputs[i] = kernelInput(rng, 1000+rng.Intn(9))
	}
	results := map[string][][]float64{}
	for _, path := range cpuid.Paths() {
		t.Run(path, func(t *testing.T) {
			cpuid.Use(t, path)
			h := NewHistogram(testCtx(), "mesh", "f", 37)
			for _, data := range inputs {
				if _, err := h.Execute(pull(t, &mockAdaptor{values: data}, h)); err != nil {
					t.Fatal(err)
				}
				edges, counts := h.Last()
				row := slices.Clone(edges)
				for _, c := range counts {
					row = append(row, float64(c))
				}
				results[path] = append(results[path], row)
			}
		})
	}
	for _, path := range cpuid.Paths()[1:] {
		for i := range inputs {
			a, b := results["avx2"][i], results[path][i]
			for j := range a {
				if !sameBits(a[j], b[j]) {
					t.Fatalf("input %d: avx2 and %s histograms differ: %v vs %v", i, path, a, b)
				}
			}
		}
	}
}

// FuzzHistogramKernels: arbitrary values, bin counts and (lo, scale)
// pairs give the loops' extremes and counts.
func FuzzHistogramKernels(f *testing.F) {
	rng := rand.New(rand.NewSource(34))
	for i := 0; i < 8; i++ {
		data := kernelInput(rng, kernelLength(rng))
		raw := make([]byte, 8*len(data))
		for j, v := range data {
			binary.LittleEndian.PutUint64(raw[8*j:], math.Float64bits(v))
		}
		f.Add(raw, uint8(rng.Intn(64)), specials[rng.Intn(len(specials))], rng.NormFloat64())
	}
	var sub []int64
	f.Fuzz(func(t *testing.T, raw []byte, bins uint8, lo, scale float64) {
		data := make([]float64, len(raw)/8)
		for i := range data {
			data[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		checkRange(t, data)
		n := 1 + int(bins)%64
		wlo, whi := rangeGo(data, math.Inf(1), math.Inf(-1))
		if whi <= wlo {
			whi = wlo + 1
		}
		sub = checkBins(t, sub, data, n, wlo, float64(n)/(whi-wlo))
		sub = checkBins(t, sub, data, n, lo, scale)
	})
}
