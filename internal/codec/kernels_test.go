package codec

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// The loops below are the byte-at-a-time kernels the codecs shipped
// with before the word-at-a-time ones, kept as the oracles: the new
// kernels must emit the same bytes for the same input.

// zrleReference appends the zero-RLE coding of src to dst.
func zrleReference(dst, src []byte) []byte {
	i, n := 0, len(src)
	for i < n {
		if src[i] == 0 {
			run := 1
			for i+run < n && run < 128 && src[i+run] == 0 {
				run++
			}
			dst = append(dst, byte(127+run))
			i += run
			continue
		}
		lit := 1
		for i+lit < n && lit < 128 {
			if src[i+lit] == 0 {
				// Absorb isolated zeros into the literal: a zero "run" of
				// length 1 or 2 costs a token byte either way, and breaking
				// the literal adds another token. Only stop for runs >= 3.
				if i+lit+2 < n && src[i+lit+1] == 0 && src[i+lit+2] == 0 {
					break
				}
			}
			lit++
		}
		// Trim trailing zeros off the literal so runs at the boundary
		// code as runs.
		for lit > 1 && src[i+lit-1] == 0 {
			lit--
		}
		dst = append(dst, byte(lit-1))
		dst = append(dst, src[i:i+lit]...)
		i += lit
	}
	return dst
}

// transposeReference writes dst[b*n+i] = byte b of src[i].
func transposeReference(dst []byte, src []uint64) {
	n := len(src)
	for i, v := range src {
		for b := 0; b < 8; b++ {
			dst[b*n+i] = byte(v >> (8 * b))
		}
	}
}

// untransposeReference inverts transposeReference.
func untransposeReference(dst []uint64, src []byte) {
	n := len(dst)
	for i := range dst {
		var v uint64
		for b := 0; b < 8; b++ {
			v |= uint64(src[b*n+i]) << (8 * b)
		}
		dst[i] = v
	}
}

// zrleAll codes src as one whole stream after the bytes of prefix.
func zrleAll(prefix, src []byte) []byte {
	dst := make([]byte, len(prefix), len(prefix)+zrleMax(len(src)))
	copy(dst, prefix)
	dst, zeros := zrleAppend(dst, 0, src)
	return zrleFlush(dst, zeros)
}

// zrleInput draws a byte string whose zero density, run lengths and
// tail are what the literal and run rules branch on.
func zrleInput(rng *rand.Rand) []byte {
	src := make([]byte, rng.Intn(700))
	density := rng.Float64()
	if rng.Intn(4) == 0 {
		density = []float64{0, 0.01, 0.99, 1}[rng.Intn(4)]
	}
	for i := range src {
		if rng.Float64() >= density {
			src[i] = byte(1 + rng.Intn(255))
		}
	}
	// Runs and literals that straddle the 128-byte token limit.
	for k := rng.Intn(4); k > 0 && len(src) > 0; k-- {
		at, length := rng.Intn(len(src)), 120+rng.Intn(20)
		fill := byte(rng.Intn(2) * (1 + rng.Intn(255)))
		for i := at; i < at+length && i < len(src); i++ {
			src[i] = fill
		}
	}
	// Zeros in the last three bytes: the look-ahead stops at the end.
	for i := max(len(src)-3, 0); i < len(src); i++ {
		if rng.Intn(2) == 0 {
			src[i] = 0
		}
	}
	return src
}

func TestZrleMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 10000; iter++ {
		src := zrleInput(rng)
		prefix := make([]byte, rng.Intn(3)*rng.Intn(9))
		rng.Read(prefix)
		want := zrleReference(append([]byte(nil), prefix...), src)
		if got := zrleAll(prefix, src); !bytes.Equal(got, want) {
			t.Fatalf("iter %d: tokens differ from the reference for % x\n got % x\nwant % x", iter, src, got, want)
		}
		// A stretch of three or more zeros between two inputs may be
		// handed over as a count instead of bytes.
		next, gap := zrleInput(rng), 3+rng.Intn(300)
		whole := append(append(append([]byte(nil), src...), make([]byte, gap)...), next...)
		want = zrleReference(nil, whole)
		dst, zeros := zrleAppend(make([]byte, 0, zrleMax(len(whole))), 0, src)
		dst, zeros = zrleAppend(dst, zeros+gap, next)
		if got := zrleFlush(dst, zeros); !bytes.Equal(got, want) {
			t.Fatalf("iter %d: a %d-zero gap handed over as a count codes differently between % x and % x", iter, gap, src, next)
		}
	}
}

// lanesInput draws delta lanes with whole byte planes zero, some
// planes nearly zero, and a length on either side of the word size.
func lanesInput(rng *rand.Rand) []uint64 {
	n := []int{0, 1, 2, 3, 7, 8, 9, 130, 1000}[rng.Intn(9)]
	var mask uint64
	for p := 0; p < 8; p++ {
		if rng.Intn(2) == 0 {
			mask |= 0xff << (8 * p)
		}
	}
	lanes := make([]uint64, n)
	for i := range lanes {
		lanes[i] = rng.Uint64() & mask
		if rng.Intn(3) == 0 {
			lanes[i] &= 0xffff // mostly-zero high planes
		}
	}
	return lanes
}

func TestTransposeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for iter := 0; iter < 2000; iter++ {
		lanes := lanesInput(rng)
		var or uint64
		for _, v := range lanes {
			or |= v
		}
		want := make([]byte, 8*len(lanes))
		transposeReference(want, lanes)
		got := make([]byte, 8*len(lanes)) // zeroed: skipped planes must be zero planes
		transpose(got, lanes, or)
		if !bytes.Equal(got, want) {
			t.Fatalf("iter %d: transpose differs from the reference for %x", iter, lanes)
		}
		back, wantBack := make([]uint64, len(lanes)), make([]uint64, len(lanes))
		for i := range back {
			back[i] = rng.Uint64() // stale scratch
		}
		untranspose(back, want)
		untransposeReference(wantBack, want)
		for i := range back {
			if back[i] != wantBack[i] || back[i] != lanes[i] {
				t.Fatalf("iter %d: untranspose lane %d = %x, reference %x, source %x", iter, i, back[i], wantBack[i], lanes[i])
			}
		}
	}
}

// TestLanesMatchReference: skipping the zero planes, and coding the
// stretches between them one call at a time, emits the tokens the
// reference loops emit over the whole transposed buffer.
func TestLanesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var sc Scratch
	for iter := 0; iter < 3000; iter++ {
		lanes := lanesInput(rng)
		var or uint64
		for _, v := range lanes {
			or |= v
		}
		n := len(lanes)
		src := make([]float64, n) // only its length matters unless the raw form wins
		tb := make([]byte, 8*n)
		transposeReference(tb, lanes)
		want := zrleReference([]byte{0xaa, modeFolded}, tb)
		if len(want)-1 > 1+8*n {
			want = appendRaw([]byte{0xaa}, src)
		}
		copy(sc.bytes(8*n), bytes.Repeat([]byte{0x55}, 8*n)) // stale scratch
		got := appendLanes([]byte{0xaa}, lanes, or, src, &sc)
		if !bytes.Equal(got, want) {
			t.Fatalf("iter %d: payload differs from the reference for %x\n got % x\nwant % x", iter, lanes, got, want)
		}
	}
}

func TestFoldIsABijectionOnTheWrap(t *testing.T) {
	for _, d := range []uint64{0, 1, ^uint64(0), 1 << 63, 1<<63 - 1, 1<<63 + 1, 1 << 53, -(1 << 53) & math.MaxUint64, 1 << 54} {
		if got := unfold(fold(d)); got != d {
			t.Fatalf("unfold(fold(%#x)) = %#x", d, got)
		}
	}
	if fold(1) != 2 || fold(^uint64(0)) != 1 || fold(1<<63) != ^uint64(0) {
		t.Fatalf("fold order: %#x %#x %#x", fold(1), fold(^uint64(0)), fold(1<<63))
	}
}

// TestSteadyStateDoesNotAllocate: once the scratch and the destination
// have grown to an array's size, coding and decoding it allocate
// nothing.
func TestSteadyStateDoesNotAllocate(t *testing.T) {
	var sc Scratch
	src := smoothField(32768)
	base := smoothField(32768)
	for i := range base {
		base[i] += 1e-7
	}
	dst := make([]float64, len(src))
	var enc []byte
	for name, round := range map[string]func(){
		"transpose-delta": func() {
			enc = AppendTransposeDelta(enc[:0], src, &sc)
			_ = DecodeTransposeDelta(dst, enc, &sc)
		},
		"temporal-delta": func() {
			enc = AppendTemporalDelta(enc[:0], src, base, &sc)
			_ = DecodeTemporalDelta(dst, base, enc, &sc)
		},
		"quantize": func() {
			enc = AppendQuantize(enc[:0], src, 1e-6, &sc)
			_ = DecodeQuantize(dst, 1e-6, enc, &sc)
		},
	} {
		round()
		round()
		if allocs := testing.AllocsPerRun(10, round); allocs != 0 {
			t.Errorf("%s: %v allocs per steady-state round trip, want 0", name, allocs)
		}
	}
}
