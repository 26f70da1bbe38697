//go:build !amd64

package tensor

// Off amd64 the generated Go kernels run.

func derivAVX2(ax axis, transpose bool, d []float64, nq int, u, out []float64) bool { return false }

func metricAVX2(g, ur, us, ut []float64) bool { return false }
