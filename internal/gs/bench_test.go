package gs_test

import (
	"testing"

	"nekrs-sensei/internal/cases"
	"nekrs-sensei/internal/gs"
	"nekrs-sensei/internal/mesh"
	"nekrs-sensei/internal/mpirt"
)

// BenchmarkGSSum times one direct-stiffness summation on the node
// numbering of the pb146-solve workload: pb146 at order 6 on two rank
// goroutines, so every call runs the local buckets, the shared partials
// and both exchanges.
func BenchmarkGSSum(b *testing.B) {
	const size = 2
	cfg := cases.PB146(1, 6).Mesh
	b.ReportAllocs()
	mpirt.Run(size, func(c *mpirt.Comm) {
		m, err := mesh.NewBox(cfg, c.Rank(), size)
		if err != nil {
			b.Error(err)
			return
		}
		g := gs.New(c, m.GlobalID)
		u := make([]float64, m.NumNodes())
		for i := range u {
			u[i] = float64(i % 17)
		}
		c.Barrier()
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			g.Sum(u)
		}
	})
}
