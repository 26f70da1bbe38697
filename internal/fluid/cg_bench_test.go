package fluid_test

import (
	"testing"

	"nekrs-sensei/internal/cases"
	"nekrs-sensei/internal/fluid"
	"nekrs-sensei/internal/mpirt"
	"nekrs-sensei/internal/occa"
)

// BenchmarkCGIteration times one iteration of the pressure solve at
// order 6 — operator, gather-scatter, the fused vector passes and the
// reductions — by running solves capped at 25 iterations that cannot
// converge: on one rank on a periodic box, and as the pb146-solve
// workload runs it, pb146 on two rank goroutines, where every
// iteration also exchanges shared nodes and reduces across ranks.
func BenchmarkCGIteration(b *testing.B) {
	const iters = 25
	report := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/iters/1e3, "us/iter")
	}
	b.Run("box-o6-ranks=1", func(b *testing.B) {
		solve := fluid.BenchCG(fluid.BenchSolver(b, 6), iters)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if n := solve(); n != iters {
				b.Fatalf("solve stopped after %d iterations", n)
			}
		}
		report(b)
	})
	b.Run("pb146-o6-ranks=2", func(b *testing.B) {
		c := cases.PB146(1, 6)
		b.ReportAllocs()
		err := mpirt.RunErr(2, func(comm *mpirt.Comm) error {
			s, err := c.NewSolver(comm, occa.NewDevice(occa.CUDA, nil), nil, nil)
			if err != nil {
				return err
			}
			solve := fluid.BenchCG(s, iters)
			comm.Barrier()
			if comm.Rank() == 0 {
				b.ResetTimer()
			}
			for i := 0; i < b.N; i++ {
				if n := solve(); n != iters {
					b.Errorf("rank %d: solve stopped after %d iterations", comm.Rank(), n)
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		report(b)
	})
}
