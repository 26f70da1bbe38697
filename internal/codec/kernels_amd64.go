package codec

// The AVX2 kernels of kernels_amd64.s. Each leaves what its Go loop in
// codec.go leaves, and stops at a block it cannot take exactly, which
// the Go loop then takes (see AppendQuantize and DecodeQuantize).

// transposeAVX2 is transpose over the first m lanes of src, all eight
// planes written, m a multiple of 32 (n = len(src)): for each 32 lanes
// a byte shuffle pairs same-plane bytes of two lanes, and three rounds
// of 16-, 32- and 64-bit unpacks transpose the 8×8 matrix of pairs.
//
//go:noescape
func transposeAVX2(dst *byte, src *uint64, n, m int)

// untransposeAVX2 inverts transposeAVX2 over the first m lanes of dst
// (n = len(dst)): the same unpack rounds, their own inverse, then the
// inverse shuffle.
//
//go:noescape
func untransposeAVX2(dst *uint64, src *byte, n, m int)

// quantizeAVX2 runs AppendQuantize's loop over x[:n], n a multiple of
// 4, from prev and or, four values at a time, and returns how many it
// took with prev and or after them. It stops before a block in which
// a value fails the check or |q| >= 2^51 (past which the 2^52+2^51
// conversion is not exact). q = trunc(x/step) moved one away from zero
// when |x/step - trunc(x/step)| >= 0.5, which is math.Round exactly;
// the check multiplies, then subtracts (no FMA); the fold takes its
// sign from VPCMPGTQ.
//
//go:noescape
func quantizeAVX2(z *uint64, x *float64, n int, step, bound float64, prev, or uint64) (done int, prevOut, orOut uint64)

// dequantizeAVX2 runs DecodeQuantize's loop over z[:n], n a multiple
// of 4, from acc, and returns how many it took with acc after them:
// unfold, a prefix sum in two shifted adds plus the carry, then
// float64(int64(acc))*step through the 2^52+2^51 conversion. It stops
// before a block whose sums leave (-2^51, 2^51).
//
//go:noescape
func dequantizeAVX2(dst *float64, z *uint64, n int, step float64, acc uint64) (done int, accOut uint64)
