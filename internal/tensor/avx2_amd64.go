package tensor

import "nekrs-sensei/internal/cpuid"

// The AVX2 path of the derivative kernels (kernels_amd64.s, written by
// gen.go). All six are one small matrix product, C = (0 | C) + A·B
// with A nq x nq and the products added in ascending contraction
// index: along t, A is D (or D^T) and B the whole element, L = nq^2
// columns wide; along s the same per k-plane, L = nq; along r, A is
// the k-plane and B is D^T (or D). Lanes hold different output values,
// so each value is still formed by the operations of the generic loops
// in their order. Metric's loop (metricPlanes) is pointwise: four
// points per register, the same three expressions per lane. The
// assembly runs when cpuid.AVX2 is set.

//go:noescape
func mm4planes(c, a, b *float64, n, aStep, bStep int, acc bool)

//go:noescape
func mm5planes(c, a, b *float64, n, aStep, bStep int, acc bool)

//go:noescape
func mm6planes(c, a, b *float64, n, aStep, bStep int, acc bool)

//go:noescape
func mm7planes(c, a, b *float64, n, aStep, bStep int, acc bool)

//go:noescape
func mm8planes(c, a, b *float64, n, aStep, bStep int, acc bool)

//go:noescape
func mm4wide(c, a, b *float64, acc bool)

//go:noescape
func mm5wide(c, a, b *float64, acc bool)

//go:noescape
func mm6wide(c, a, b *float64, acc bool)

//go:noescape
func mm7wide(c, a, b *float64, acc bool)

//go:noescape
func mm8wide(c, a, b *float64, acc bool)

//go:noescape
func metricPlanes(geo, r, s, t *float64, n int)

// metricAVX2 runs Metric in assembly and reports whether it did. Metric
// has checked every operand's length.
func metricAVX2(g, ur, us, ut []float64) bool {
	if !cpuid.AVX2 {
		return false
	}
	metricPlanes(&g[0], &ur[0], &us[0], &ut[0], len(ur))
	return true
}

// derivAVX2 runs the derivative along ax (transposed and accumulating
// if transpose) in assembly and reports whether it did: AVX2 present
// and nq a generated size. Indexing the last element of each operand
// first makes a short slice panic here, not fault in the assembly.
func derivAVX2(ax axis, transpose bool, d []float64, nq int, u, out []float64) bool {
	if !cpuid.AVX2 || nq < 4 || nq > 8 {
		return false
	}
	nq2 := nq * nq
	_, _, _ = d[nq2-1], u[nq*nq2-1], out[nq*nq2-1]
	m := &d[0]
	if (ax == axisR) != transpose { // the product wants D^T
		var dt [64]float64
		for i := 0; i < nq; i++ {
			for j := 0; j < nq; j++ {
				dt[j*nq+i] = d[i*nq+j]
			}
		}
		m = &dt[0]
	}
	c, a, b, aStep, bStep := &out[0], m, &u[0], 0, nq2
	if ax == axisR {
		a, b, aStep, bStep = b, a, bStep, aStep
	}
	switch {
	case ax == axisT && nq == 4:
		mm4wide(c, a, b, transpose)
	case ax == axisT && nq == 5:
		mm5wide(c, a, b, transpose)
	case ax == axisT && nq == 6:
		mm6wide(c, a, b, transpose)
	case ax == axisT && nq == 7:
		mm7wide(c, a, b, transpose)
	case ax == axisT:
		mm8wide(c, a, b, transpose)
	case nq == 4:
		mm4planes(c, a, b, nq, aStep, bStep, transpose)
	case nq == 5:
		mm5planes(c, a, b, nq, aStep, bStep, transpose)
	case nq == 6:
		mm6planes(c, a, b, nq, aStep, bStep, transpose)
	case nq == 7:
		mm7planes(c, a, b, nq, aStep, bStep, transpose)
	default:
		mm8planes(c, a, b, nq, aStep, bStep, transpose)
	}
	return true
}
