package tensor

import "nekrs-sensei/internal/cpuid"

// Field layout convention used throughout the solver: a scalar field on
// one spectral element of order N (Nq = N+1 points per direction) is a
// flat slice of length Nq^3 indexed u[k*Nq*Nq + j*Nq + i], with i the
// fastest-varying (r/x) index, j the s/y index, and k the t/z index.
// Multi-element fields stack elements contiguously.

//go:generate go run gen.go

// The six derivative kernels below dispatch on nq and the CPU alone:
// the sizes the cases run (see gen.go) go to AVX2 assembly on an amd64
// that has it (avx2_amd64.go) and otherwise to generated Go kernels
// that hold the pencil being contracted in registers; every other size
// takes the generic loops further down, which are also the reference
// the generated code is tested against, bit for bit. All three form
// each output value the same way — start from zero (DerivR/S/T) or
// from the value already in out (DerivRT/ST/TT) and add the products
// in ascending m, each product rounded before it is added — which is
// the summation-order contract the pinned solver trajectories rest on.

// axis names the direction a derivative kernel contracts along.
type axis int

const (
	axisR axis = iota
	axisS
	axisT
)

// KernelPath names what the generated sizes run on this machine:
// "avx2" (the assembly) or "go" (the generated Go kernels).
func KernelPath() string {
	if cpuid.AVX2 {
		return "avx2"
	}
	return "go"
}

// DerivR applies the 1D operator D (row-major Nq x Nq) along the r
// (fastest) axis of one element: out[k,j,i] = sum_m D[i,m] u[k,j,m].
// u and out hold one element; out must not alias u.
func DerivR(d []float64, nq int, u, out []float64) {
	if !derivAVX2(axisR, false, d, nq, u, out) && !derivRFixed(d, nq, u, out) {
		derivRGeneric(d, nq, u, out)
	}
}

// DerivS applies D along the s (middle) axis: out[k,j,i] = sum_m D[j,m] u[k,m,i].
// out must not alias u.
func DerivS(d []float64, nq int, u, out []float64) {
	if !derivAVX2(axisS, false, d, nq, u, out) && !derivSFixed(d, nq, u, out) {
		derivSGeneric(d, nq, u, out)
	}
}

// DerivT applies D along the t (slowest) axis: out[k,j,i] = sum_m D[k,m] u[m,j,i].
// out must not alias u.
func DerivT(d []float64, nq int, u, out []float64) {
	if !derivAVX2(axisT, false, d, nq, u, out) && !derivTFixed(d, nq, u, out) {
		derivTGeneric(d, nq, u, out)
	}
}

// DerivRT accumulates the transpose application along r:
// out[k,j,i] += sum_m D[m,i] u[k,j,m]. Used for the D^T G D weak
// Laplacian. out may hold prior partial sums; it must not alias u.
func DerivRT(d []float64, nq int, u, out []float64) {
	if !derivAVX2(axisR, true, d, nq, u, out) && !derivRTFixed(d, nq, u, out) {
		derivRTGeneric(d, nq, u, out)
	}
}

// DerivST accumulates the transpose application along s:
// out[k,j,i] += sum_m D[m,j] u[k,m,i]. out must not alias u.
func DerivST(d []float64, nq int, u, out []float64) {
	if !derivAVX2(axisS, true, d, nq, u, out) && !derivSTFixed(d, nq, u, out) {
		derivSTGeneric(d, nq, u, out)
	}
}

// DerivTT accumulates the transpose application along t:
// out[k,j,i] += sum_m D[m,k] u[m,j,i]. out must not alias u.
func DerivTT(d []float64, nq int, u, out []float64) {
	if !derivAVX2(axisT, true, d, nq, u, out) && !derivTTFixed(d, nq, u, out) {
		derivTTGeneric(d, nq, u, out)
	}
}

// Metric applies the symmetric geometric factors of one element to its
// reference gradient, pointwise and in place:
//
//	ur = (Grr*ur + Grs*us) + Grt*ut
//	us = (Grs*ur + Gss*us) + Gst*ut
//	ut = (Grt*ur + Gst*us) + Gtt*ut
//
// every right-hand side read before the call. g holds six planes of
// n = len(ur) values, in the order rr, rs, rt, ss, st, tt (an element
// of mesh.G); us and ut hold n values too. It runs in AVX2 assembly
// where the CPU has it and otherwise as metricGeneric, with the same
// bits either way.
func Metric(g, ur, us, ut []float64) {
	n := len(ur)
	if n == 0 {
		return
	}
	_, _, _ = g[6*n-1], us[n-1], ut[n-1]
	if !metricAVX2(g, ur, us, ut) {
		metricGeneric(g, ur, us, ut)
	}
}

// metricGeneric is Metric in Go, the reference for the assembly.
func metricGeneric(g, ur, us, ut []float64) {
	n := len(ur)
	grr, grs, grt := g[:n:n], g[n:2*n:2*n], g[2*n:3*n:3*n]
	gss, gst, gtt := g[3*n:4*n:4*n], g[4*n:5*n:5*n], g[5*n:6*n:6*n]
	us, ut = us[:n:n], ut[:n:n]
	for p := range ur {
		r, s, t := ur[p], us[p], ut[p]
		ur[p] = grr[p]*r + grs[p]*s + grt[p]*t
		us[p] = grs[p]*r + gss[p]*s + gst[p]*t
		ut[p] = grt[p]*r + gst[p]*s + gtt[p]*t
	}
}

// The generic kernels. The c == 0 shortcuts skip adding a signed zero
// to a sum that is never -0, which changes no bit on finite data.

// derivRGeneric is DerivR for any nq.
func derivRGeneric(d []float64, nq int, u, out []float64) {
	nq2 := nq * nq
	for k := 0; k < nq; k++ {
		for j := 0; j < nq; j++ {
			base := k*nq2 + j*nq
			line := u[base : base+nq]
			for i := 0; i < nq; i++ {
				var s float64
				row := d[i*nq : (i+1)*nq]
				for m := 0; m < nq; m++ {
					s += row[m] * line[m]
				}
				out[base+i] = s
			}
		}
	}
}

// derivSGeneric is DerivS for any nq.
func derivSGeneric(d []float64, nq int, u, out []float64) {
	nq2 := nq * nq
	for k := 0; k < nq; k++ {
		plane := u[k*nq2 : (k+1)*nq2]
		outPlane := out[k*nq2 : (k+1)*nq2]
		for j := 0; j < nq; j++ {
			row := d[j*nq : (j+1)*nq]
			dst := outPlane[j*nq : (j+1)*nq]
			for i := range dst {
				dst[i] = 0
			}
			for m := 0; m < nq; m++ {
				c := row[m]
				if c == 0 {
					continue
				}
				src := plane[m*nq : (m+1)*nq]
				for i := 0; i < nq; i++ {
					dst[i] += c * src[i]
				}
			}
		}
	}
}

// derivTGeneric is DerivT for any nq.
func derivTGeneric(d []float64, nq int, u, out []float64) {
	nq2 := nq * nq
	for k := 0; k < nq; k++ {
		row := d[k*nq : (k+1)*nq]
		dst := out[k*nq2 : (k+1)*nq2]
		for i := range dst {
			dst[i] = 0
		}
		for m := 0; m < nq; m++ {
			c := row[m]
			if c == 0 {
				continue
			}
			src := u[m*nq2 : (m+1)*nq2]
			for i := 0; i < nq2; i++ {
				dst[i] += c * src[i]
			}
		}
	}
}

// derivRTGeneric is DerivRT for any nq.
func derivRTGeneric(d []float64, nq int, u, out []float64) {
	nq2 := nq * nq
	for k := 0; k < nq; k++ {
		for j := 0; j < nq; j++ {
			base := k*nq2 + j*nq
			line := u[base : base+nq]
			dst := out[base : base+nq]
			for m := 0; m < nq; m++ {
				c := line[m]
				if c == 0 {
					continue
				}
				row := d[m*nq : (m+1)*nq]
				for i := 0; i < nq; i++ {
					dst[i] += c * row[i]
				}
			}
		}
	}
}

// derivSTGeneric is DerivST for any nq.
func derivSTGeneric(d []float64, nq int, u, out []float64) {
	nq2 := nq * nq
	for k := 0; k < nq; k++ {
		plane := u[k*nq2 : (k+1)*nq2]
		outPlane := out[k*nq2 : (k+1)*nq2]
		for m := 0; m < nq; m++ {
			src := plane[m*nq : (m+1)*nq]
			row := d[m*nq : (m+1)*nq]
			for j := 0; j < nq; j++ {
				c := row[j]
				if c == 0 {
					continue
				}
				dst := outPlane[j*nq : (j+1)*nq]
				for i := 0; i < nq; i++ {
					dst[i] += c * src[i]
				}
			}
		}
	}
}

// derivTTGeneric is DerivTT for any nq.
func derivTTGeneric(d []float64, nq int, u, out []float64) {
	nq2 := nq * nq
	for m := 0; m < nq; m++ {
		src := u[m*nq2 : (m+1)*nq2]
		row := d[m*nq : (m+1)*nq]
		for k := 0; k < nq; k++ {
			c := row[k]
			if c == 0 {
				continue
			}
			dst := out[k*nq2 : (k+1)*nq2]
			for i := 0; i < nq2; i++ {
				dst[i] += c * src[i]
			}
		}
	}
}

// Interp3D interpolates one element's field from an n^3 grid to an m^3
// grid by applying the row-major m x n matrix along each axis in turn.
// scratch must have length at least m*n*n + m*m*n.
func Interp3D(mat []float64, n, m int, u, out, scratch []float64) {
	t1 := scratch[: m*n*n : m*n*n]
	t2 := scratch[m*n*n : m*n*n+m*m*n]
	// Apply along r: t1[k,j,a] = sum_i mat[a,i] u[k,j,i]
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			src := u[k*n*n+j*n : k*n*n+j*n+n]
			dst := t1[k*m*n+j*m : k*m*n+j*m+m]
			MatVec(mat, m, n, src, dst)
		}
	}
	// Apply along s: t2[k,b,a] = sum_j mat[b,j] t1[k,j,a]
	for k := 0; k < n; k++ {
		for b := 0; b < m; b++ {
			row := mat[b*n : (b+1)*n]
			dst := t2[k*m*m+b*m : k*m*m+b*m+m]
			for a := range dst {
				dst[a] = 0
			}
			for j := 0; j < n; j++ {
				c := row[j]
				src := t1[k*m*n+j*m : k*m*n+j*m+m]
				for a := 0; a < m; a++ {
					dst[a] += c * src[a]
				}
			}
		}
	}
	// Apply along t: out[c,b,a] = sum_k mat[c,k] t2[k,b,a]
	mm := m * m
	for c := 0; c < m; c++ {
		row := mat[c*n : (c+1)*n]
		dst := out[c*mm : (c+1)*mm]
		for a := range dst {
			dst[a] = 0
		}
		for k := 0; k < n; k++ {
			w := row[k]
			src := t2[k*mm : (k+1)*mm]
			for a := 0; a < mm; a++ {
				dst[a] += w * src[a]
			}
		}
	}
}

// Interp3DScratchLen returns the scratch length Interp3D requires.
func Interp3DScratchLen(n, m int) int { return m*n*n + m*m*n }
