//go:build !amd64

package sensei

// Off amd64 the Go loops run.

func rangeAVX2(x *float64, n int) (lo, hi float64) { panic("sensei: no AVX2 kernels off amd64") }

func binAVX2(sub *int64, x *float64, n, bins int, lo, scale float64) {
	panic("sensei: no AVX2 kernels off amd64")
}
