package sensei

import (
	"math"

	"nekrs-sensei/internal/cpuid"
)

// The histogram's two per-value passes. Each has a Go loop, which runs
// off amd64, without AVX2 and on the values past the last whole vector
// block, and an AVX2 kernel (kernels_amd64.s) that leaves the same
// bits: the same extremes and the same counts.

// Values per iteration of the AVX2 kernels: two vectors of the range
// pass, one of the bin pass.
const (
	rangeBlock = 8
	binBlock   = 4
)

// Range returns the least and the greatest value of data, NaNs
// ignored; (+Inf, -Inf) when data holds no other value. An extreme
// that is zero has the sign of the first zero of data, as the
// compare-and-keep loop leaves it.
func Range(data []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	n := 0
	if cpuid.AVX2 {
		n = len(data) &^ (rangeBlock - 1)
	}
	if n > 0 {
		lo, hi = rangeAVX2(&data[0], n)
	}
	lo, hi = rangeGo(data[n:], lo, hi)
	if n > 0 && (lo == 0 || hi == 0) {
		// Each lane kept its own first zero; the loop keeps the first
		// zero of all of data.
		for _, v := range data {
			if v == 0 {
				if lo == 0 {
					lo = v
				}
				if hi == 0 {
					hi = v
				}
				break
			}
		}
	}
	return lo, hi
}

// rangeGo narrows lo and hi to the extremes of data.
func rangeGo(data []float64, lo, hi float64) (float64, float64) {
	for _, v := range data {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// maxKernelBins bounds the bin kernel's sub-count arrays (4 per bin)
// and keeps every bin index an int32, which VCVTTPD2DQ converts to.
const maxKernelBins = 1 << 16

// binCounts adds to counts the bin of every value of data. sub is the
// bin kernel's scratch, four sub-count arrays of len(counts) (one per
// vector lane, so that no two lanes of a block increment one counter);
// it grows as needed and is returned for reuse.
func binCounts(counts, sub []int64, data []float64, lo, scale float64) []int64 {
	bins, n := len(counts), 0
	if cpuid.AVX2 && bins <= maxKernelBins {
		n = len(data) &^ (binBlock - 1)
	}
	if n > 0 {
		if cap(sub) < 4*bins {
			sub = make([]int64, 4*bins)
		}
		sub = sub[:4*bins]
		clear(sub)
		binAVX2(&sub[0], &data[0], n, bins, lo, scale)
		for j := 0; j < 4; j++ {
			for b, c := range sub[j*bins : (j+1)*bins] {
				counts[b] += c
			}
		}
	}
	binGo(counts, data[n:], lo, scale)
	return sub
}

// binGo is the bin pass: (v-lo)*scale converted by Go's int() and
// clamped to [0, len(counts)-1], so NaN (which int() makes the least
// int64 on amd64) lands in bin 0.
func binGo(counts []int64, data []float64, lo, scale float64) {
	bins := len(counts)
	for _, v := range data {
		b := int((v - lo) * scale)
		if b >= bins {
			b = bins - 1
		}
		if b < 0 {
			b = 0
		}
		counts[b]++
	}
}
