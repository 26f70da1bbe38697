package fluid

import (
	"fmt"
	"math"
	"testing"

	"nekrs-sensei/internal/krylov"
	"nekrs-sensei/internal/mesh"
	"nekrs-sensei/internal/mpirt"
	"nekrs-sensei/internal/occa"
)

// benchSolver builds a single-rank solver on a 4x4x4-element periodic
// box (the per-rank element count of the pb146 benchmark workloads)
// with a Brinkman term and the temperature equation switched on.
func benchSolver(b *testing.B, order int) *Solver {
	b.Helper()
	m, err := mesh.NewBox(mesh.BoxConfig{
		Nx: 4, Ny: 4, Nz: 4, Lx: 1, Ly: 1, Lz: 1, Order: order, Periodic: [3]bool{true, true, true},
	}, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewSolver(Config{
		Mesh: m, Comm: mpirt.NewWorld(1).Comm(0), Dev: occa.NewDevice(occa.CUDA, nil),
		Nu: 1e-2, Kappa: 1e-2, Dt: 1e-3, Temperature: true,
		Brinkman: func(x, y, z float64) float64 {
			if x < 0.25 {
				return 1e4
			}
			return 0
		},
		InitialVelocity: func(x, y, z float64) (float64, float64, float64) {
			return math.Sin(2 * math.Pi * y), math.Sin(2 * math.Pi * z), math.Sin(2 * math.Pi * x)
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func reportPerPoint(b *testing.B, points int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(points), "ns/point")
}

// BenchmarkLaplacian times the unassembled weak Laplacian, the kernel
// of every CG iteration, at the Nq the cases run.
func BenchmarkLaplacian(b *testing.B) {
	for _, nq := range []int{4, 6, 7, 8} {
		b.Run(fmt.Sprintf("nq=%d", nq), func(b *testing.B) {
			s := benchSolver(b, nq-1)
			in, out := s.U.Data(), s.scr2
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.localLaplacian(in, out)
			}
			reportPerPoint(b, s.n)
		})
	}
}

// BenchmarkHelmholtz times the velocity Helmholtz operator (viscous
// scale, mass and Brinkman terms folded into the element loop) at
// order 6.
func BenchmarkHelmholtz(b *testing.B) {
	s := benchSolver(b, 6)
	in, out := s.U.Data(), s.scr2
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.helmholtzLocal(in, out, s.cfg.Nu, 1.5/s.cfg.Dt, true)
	}
	reportPerPoint(b, s.n)
}

// BenchSolver and BenchCG serve BenchmarkCGIteration, which is in
// package fluid_test so that it can build pb146 through cases.
var BenchSolver = benchSolver

// BenchCG returns one pressure solve of s, capped at iters iterations
// it cannot converge in: each call zeroes the pressure and runs Jacobi
// CG on a fixed smooth right-hand side, and returns the iteration
// count.
func BenchCG(s *Solver, iters int) func() int {
	rhs := s.scr2
	for i := range rhs {
		rhs[i] = s.mesh.B[i] * math.Sin(2*math.Pi*s.mesh.X[i]) * math.Cos(2*math.Pi*s.mesh.Z[i])
	}
	s.gsh.Sum(rhs)
	opts := s.solverOptions(1e-300, s.diagA, true)
	opts.MaxIter = iters
	x := s.P.Data()
	return func() int {
		for j := range x {
			x[j] = 0
		}
		return krylov.CG(s.pOp, rhs, x, &s.cgPS, opts).Iters
	}
}

// BenchmarkStep times whole steps of the same solver.
func BenchmarkStep(b *testing.B) {
	s := benchSolver(b, 6)
	s.Step()
	s.Step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}
