//go:build !amd64

package codec

const noKernels = "codec: no AVX2 kernels off amd64"

func transposeAVX2(dst *byte, src *uint64, n, m int) { panic(noKernels) }

func untransposeAVX2(dst *uint64, src *byte, n, m int) { panic(noKernels) }

func quantizeAVX2(z *uint64, x *float64, n int, step, bound float64, prev, or uint64) (int, uint64, uint64) {
	panic(noKernels)
}

func dequantizeAVX2(dst *float64, z *uint64, n int, step float64, acc uint64) (int, uint64) {
	panic(noKernels)
}
