package sensei

import (
	"testing"

	"nekrs-sensei/internal/adios/adiostest"
	"nekrs-sensei/internal/cpuid"
)

// BenchmarkHistogramPB146 runs the histogram's two passes, range then
// 32 bins as the mesh-replay workload's leaves count them, over rank
// 0's temperature and pressure of a recorded pb146 step, on each path
// this machine has. MB/s is of array read per pass pair.
func BenchmarkHistogramPB146(b *testing.B) {
	st := adiostest.PB146Steps(b)[1][0]
	var arrays [][]float64
	raw := 0
	for i, name := range adiostest.Arrays {
		if name == "temperature" || name == "pressure" {
			arrays = append(arrays, st.Vars[i].F64)
			raw += 8 * len(st.Vars[i].F64)
		}
	}
	const bins = 32
	counts := make([]int64, bins)
	var sub []int64
	for _, path := range cpuid.Paths() {
		b.Run(path, func(b *testing.B) {
			cpuid.Use(b, path)
			b.SetBytes(int64(raw))
			for i := 0; i < b.N; i++ {
				for _, a := range arrays {
					lo, hi := Range(a)
					clear(counts)
					sub = binCounts(counts, sub, a, lo, bins/(hi-lo))
				}
			}
		})
	}
}
