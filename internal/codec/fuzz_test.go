package codec

import (
	"encoding/binary"
	"math"
	"testing"

	"nekrs-sensei/internal/lebytes"
)

// bytesToFloats reinterprets fuzz bytes as a float64 payload; a
// trailing partial word is dropped so odd input lengths still yield a
// valid (possibly empty) array.
func bytesToFloats(data []byte) []float64 {
	out := make([]float64, len(data)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return out
}

// fuzzSeedCorpus returns the seed payloads: the unit-test corpus
// (smooth pb146-style fields, specials, denormals, constants, zeros)
// serialized to bytes.
func fuzzSeedCorpus() [][]byte {
	var seeds [][]byte
	for _, src := range payloadCorpus() {
		b := make([]byte, 8*len(src))
		for i, x := range src {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
		}
		seeds = append(seeds, b)
	}
	floats := func(xs ...float64) []byte {
		b := make([]byte, 8*len(xs))
		lebytes.Put(b, xs)
		return b
	}
	var sc Scratch
	seeds = append(seeds,
		[]byte{},
		[]byte{1, 2, 3},          // partial word
		[]byte{0x91, 0x03, 0xf0}, // looks like a coded stream
		AppendTransposeDelta(nil, smoothField(64), &sc),          // a mode 2 payload, as hostile input
		[]byte{0x01, 0x91, 0x03, 0xf0, 0x00, 0x08, 0x3f, 0x81},   // the retired mode 1
		floats(1<<54, -(1<<54), 1<<54, -(1<<54)),                 // q = ±2^53 at bound 1: deltas of ±2^54
		floats(0, math.Copysign(0, -1), 0, math.Copysign(0, -1)), // bit-pattern deltas of MinInt64: the fold's wrap
	)
	return seeds
}

// FuzzCodecRoundTrip drives every lossless codec over arbitrary
// payloads — including NaN/Inf bit patterns, denormals, and odd
// lengths — and requires byte-exact reconstruction; the quantizer is
// held to its declared error bound (or exactness when it fell back to
// raw). The same input also exercises the hostile-decode paths: coded
// bytes fed back as payloads must error or round-trip, never panic.
func FuzzCodecRoundTrip(f *testing.F) {
	for _, seed := range fuzzSeedCorpus() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src := bytesToFloats(data)
		var encSc, decSc Scratch
		dst := make([]float64, len(src))

		// transpose-delta: always byte-exact.
		enc := AppendTransposeDelta(nil, src, &encSc)
		if err := DecodeTransposeDelta(dst, enc, &decSc); err != nil {
			t.Fatalf("transpose-delta decode: %v", err)
		}
		if !bitsEqual(src, dst) {
			t.Fatalf("transpose-delta round trip not byte-exact for %v", src)
		}
		if max := 1 + 1 + 8*len(src) + (8*len(src)+127)/128; len(enc) > max {
			t.Fatalf("transpose-delta expanded %d raw bytes to %d (cap %d)", 8*len(src), len(enc), max)
		}

		// temporal-delta against a base derived from the same bytes.
		base := make([]float64, len(src))
		for i := range base {
			base[i] = src[len(src)-1-i]
		}
		enc = AppendTemporalDelta(enc[:0], src, base, &encSc)
		if err := DecodeTemporalDelta(dst, base, enc, &decSc); err != nil {
			t.Fatalf("temporal-delta decode: %v", err)
		}
		if !bitsEqual(src, dst) {
			t.Fatalf("temporal-delta round trip not byte-exact for %v", src)
		}

		// quantize at bounds spanning the exponent range; derive one
		// extra bound from the input so the fuzzer can explore it.
		bounds := []float64{1e-9, 1, 1e12}
		if len(src) > 0 {
			if b := math.Abs(src[0]); b > 0 && !math.IsInf(b, 0) && !math.IsNaN(b) {
				bounds = append(bounds, b)
			}
		}
		for _, bound := range bounds {
			enc = AppendQuantize(enc[:0], src, bound, &encSc)
			if err := DecodeQuantize(dst, bound, enc, &decSc); err != nil {
				t.Fatalf("quantize(%g) decode: %v", bound, err)
			}
			if len(enc) > 0 && enc[0] == modeRaw {
				if !bitsEqual(src, dst) {
					t.Fatalf("quantize(%g) raw fallback not byte-exact", bound)
				}
			} else {
				for i := range src {
					if e := math.Abs(src[i] - dst[i]); !(e <= bound) {
						t.Fatalf("quantize(%g): element %d error %g exceeds bound (src %g)",
							bound, i, e, src[i])
					}
				}
			}
		}

		// Hostile decodes: raw fuzz bytes as coded payloads, and a
		// mismatched element count, must never panic.
		small := make([]float64, len(src)/2)
		_ = DecodeTransposeDelta(small, data, &decSc)
		_ = DecodeTemporalDelta(small, small, data, &decSc)
		_ = DecodeQuantize(small, 1e-3, data, &decSc)
		_ = zrleDecode(make([]byte, len(data)), data)
	})
}
