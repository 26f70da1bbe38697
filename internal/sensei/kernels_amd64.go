package sensei

// rangeAVX2 returns the extremes of x[:n], n > 0 a multiple of
// rangeBlock. Each lane keeps v < lo ? v : lo (VMINPD with v first),
// and the same for hi, so NaN never enters and an equal value keeps
// the accumulator; the lanes combine in any order, which can only
// choose the sign of a zero, and Range fixes that.
//
//go:noescape
func rangeAVX2(x *float64, n int) (lo, hi float64)

// binAVX2 increments sub[j*bins+b] for the bin b of each x[i], i < n a
// multiple of binBlock, j = i mod 4: t = (x-lo)*scale (a subtract,
// then a multiply), clamped to [0, bins-1] by VMAXPD/VMINPD with t
// first (NaN becomes 0), and zeroed where t >= 2^63, which Go's int()
// makes the least int64 and the clamp 0; then truncated.
//
//go:noescape
func binAVX2(sub *int64, x *float64, n, bins int, lo, scale float64)
