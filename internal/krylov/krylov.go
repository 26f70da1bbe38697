// Package krylov provides the iterative solvers used by the solver's
// pressure-Poisson and Helmholtz systems: preconditioned conjugate
// gradients. Operators are abstract. The inner
// product is described rather than injected — per-node weights (the
// inverse multiplicity of a distributed solver) and a global sum for
// the rank-local partial sums — so CG can fuse its reductions into its
// vector updates and ship several partial sums in one collective.
package krylov

import (
	"fmt"
	"math"
)

// Operator applies a linear operator: out = A(in). out and in never alias.
type Operator interface {
	Apply(out, in []float64)
}

// OperatorFunc adapts a function to the Operator interface.
type OperatorFunc func(out, in []float64)

// Apply implements Operator.
func (f OperatorFunc) Apply(out, in []float64) { f(out, in) }

// Options configures a solve.
type Options struct {
	// Tol is the relative residual tolerance (against ||b||); AbsTol
	// is the absolute floor. Defaults: 1e-8 and 1e-300.
	Tol    float64
	AbsTol float64
	// MaxIter bounds the iteration count. Default 1000.
	MaxIter int
	// Diag, when non-nil, enables Jacobi preconditioning with the
	// given diagonal (the entries of A's diagonal, not their inverses).
	Diag []float64
	// Weight, when non-nil, weights the inner product:
	// <a,b> = sum_i Weight[i] a[i] b[i]. A distributed solver passes
	// the inverse node multiplicity so shared nodes count once.
	Weight []float64
	// AllSum, when non-nil, replaces each entry of a short vector of
	// rank-local partial sums by its sum over all ranks, in place (an
	// allreduce). Nil means the solve is serial.
	AllSum func(partial []float64)
	// RemoveMean declares that the constant vector spans the
	// operator's null space. CG then subtracts the weighted mean
	// sum_i Weight[i] v[i] / Count from the initial residual, from each
	// updated residual and from the solution, which keeps it convergent
	// on consistent singular systems such as the all-Neumann pressure
	// Poisson problem. Count is the global sum of the weights (the
	// number of unique nodes).
	RemoveMean bool
	Count      float64
}

// Result reports the outcome of a solve.
type Result struct {
	Iters     int
	Residual  float64 // final absolute residual norm
	Converged bool
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Tol == 0 {
		out.Tol = 1e-8
	}
	if out.AbsTol == 0 {
		out.AbsTol = 1e-300
	}
	if out.MaxIter == 0 {
		out.MaxIter = 1000
	}
	return out
}

// allSum reduces partial sums across ranks when the solve is distributed.
func (o *Options) allSum(partial []float64) {
	if o.AllSum != nil {
		o.AllSum(partial)
	}
}

// Workspace holds CG's four work vectors (residual, preconditioned
// residual, search direction, operator image). The caller owns it and
// may hand in any four distinct arrays of the system's length that are
// free for the duration of the solve; CG allocates nothing.
type Workspace struct {
	R, Z, P, Q []float64

	// sums carries partial sums to Options.AllSum; living here rather
	// than on CG's stack keeps it from being heap-allocated per solve
	// (a slice passed to a func value escapes).
	sums [2]float64

	// ones stands in for a nil Weight or Diag: v*1 and v/1 are exact,
	// so the one set of fused loops below serves the unweighted and
	// unpreconditioned cases with unchanged results.
	ones []float64
}

// NewWorkspace allocates a workspace for systems of n unknowns.
func NewWorkspace(n int) *Workspace {
	buf := make([]float64, 4*n)
	return &Workspace{R: buf[:n:n], Z: buf[n : 2*n : 2*n], P: buf[2*n : 3*n : 3*n], Q: buf[3*n:]}
}

func (ws *Workspace) onesVector(n int) []float64 {
	if len(ws.ones) != n {
		ws.ones = make([]float64, n)
		for i := range ws.ones {
			ws.ones[i] = 1
		}
	}
	return ws.ones
}

// CG solves A x = b for symmetric positive (semi-)definite A using
// preconditioned conjugate gradients, starting from the initial guess
// in x and overwriting it with the solution.
//
// Each iteration makes one operator application, four sweeps over the
// vectors and — beyond what the operator itself does — two global sums
// (three with RemoveMean): p.q; the mean of the updated residual; and
// r.r together with r.z as one two-element sum. Every partial sum runs
// over the nodes in ascending order with one accumulator, exactly as a
// separate dot product per quantity would, so fusing the sweeps changes
// no bit of the result.
func CG(op Operator, b, x []float64, ws *Workspace, opts Options) Result {
	o := opts.withDefaults()
	n := len(b)
	if len(x) != n || len(ws.R) != n || len(ws.Z) != n || len(ws.P) != n || len(ws.Q) != n {
		panic(fmt.Sprintf("krylov: CG on %d unknowns with x of %d and workspace of %d/%d/%d/%d",
			n, len(x), len(ws.R), len(ws.Z), len(ws.P), len(ws.Q)))
	}
	r, z, p, q := ws.R, ws.Z, ws.P, ws.Q
	w, diag := o.Weight, o.Diag
	if w == nil {
		w = ws.onesVector(n)
	}
	if diag == nil {
		diag = ws.onesVector(n)
	}
	w, diag, x = w[:n], diag[:n], x[:n]
	sums := &ws.sums

	// r = b - A x, with b.b and (for RemoveMean) the residual's mean
	// gathered in the same sweep.
	op.Apply(q, x)
	var bb, mean float64
	for i, bi := range b {
		ri := bi - q[i]
		r[i] = ri
		bb += w[i] * bi * bi
		mean += w[i] * ri
	}
	sums[0], sums[1] = bb, mean
	if o.RemoveMean {
		o.allSum(sums[:2])
		mean = sums[1] / o.Count
	} else {
		o.allSum(sums[:1])
		mean = 0
	}
	normb := math.Sqrt(sums[0])
	tol := math.Max(o.Tol*normb, o.AbsTol)

	rr, rz := residualPass(r, z, w, diag, mean, o.RemoveMean)
	copy(p, z)
	sums[0], sums[1] = rr, rz
	o.allSum(sums[:2])
	res, rz := math.Sqrt(sums[0]), sums[1]
	if res <= tol {
		return Result{Iters: 0, Residual: res, Converged: true}
	}

	for it := 1; it <= o.MaxIter; it++ {
		op.Apply(q, p)
		var pq float64
		for i, pi := range p {
			pq += w[i] * pi * q[i]
		}
		sums[0] = pq
		o.allSum(sums[:1])
		pq = sums[0]
		if pq == 0 {
			return Result{Iters: it - 1, Residual: res, Converged: false}
		}
		alpha := rz / pq
		if o.RemoveMean {
			// The mean of the updated residual needs its own global
			// sum before r.r can be formed, so the update and the
			// residual pass stay two sweeps.
			var sum float64
			for i := range x {
				x[i] += alpha * p[i]
				ri := r[i] - alpha*q[i]
				r[i] = ri
				sum += w[i] * ri
			}
			sums[0] = sum
			o.allSum(sums[:1])
			rr, rz2 := residualPass(r, z, w, diag, sums[0]/o.Count, true)
			sums[0], sums[1] = rr, rz2
		} else {
			var rr, rz2 float64
			for i := range x {
				x[i] += alpha * p[i]
				ri := r[i] - alpha*q[i]
				r[i] = ri
				zi := ri / diag[i]
				z[i] = zi
				rr += w[i] * ri * ri
				rz2 += w[i] * ri * zi
			}
			sums[0], sums[1] = rr, rz2
		}
		o.allSum(sums[:2])
		res = math.Sqrt(sums[0])
		if res <= tol {
			if o.RemoveMean {
				removeMean(x, w, &o, sums[:1])
			}
			return Result{Iters: it, Residual: res, Converged: true}
		}
		beta := sums[1] / rz
		rz = sums[1]
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	if o.RemoveMean {
		removeMean(x, w, &o, sums[:1])
	}
	return Result{Iters: o.MaxIter, Residual: res, Converged: false}
}

// residualPass finishes a residual update in one sweep: subtract the
// mean (when asked), apply the Jacobi preconditioner into z, and
// return the rank-local partial sums of r.r and r.z.
func residualPass(r, z, w, diag []float64, mean float64, subtract bool) (rr, rz float64) {
	z, w, diag = z[:len(r)], w[:len(r)], diag[:len(r)]
	for i, ri := range r {
		if subtract {
			ri -= mean
			r[i] = ri
		}
		zi := ri / diag[i]
		z[i] = zi
		rr += w[i] * ri * ri
		rz += w[i] * ri * zi
	}
	return rr, rz
}

// removeMean subtracts v's global weighted mean from v; sum is a
// one-element buffer for the global sum.
func removeMean(v, w []float64, o *Options, sum []float64) {
	var local float64
	for i, vi := range v {
		local += w[i] * vi
	}
	sum[0] = local
	o.allSum(sum)
	mean := sum[0] / o.Count
	for i := range v {
		v[i] -= mean
	}
}
