package codec_test

import (
	"testing"

	"nekrs-sensei/internal/adios/adiostest"
	"nekrs-sensei/internal/codec"
	"nekrs-sensei/internal/cpuid"
)

// The codec benchmarks run on rank 0's five arrays of two consecutive
// pb146 steps (the temporal codec differences the second against the
// first); each reports raw MB/s and raw over encoded bytes, once per
// kernel path this machine has ("…/avx2" next to "…/go").

const quantizeBound = 1e-6 // the mesh-replay workload's hist-q leaf

type coder struct {
	encode func(dst []byte, src, base []float64, sc *codec.Scratch) []byte
	decode func(dst, base []float64, enc []byte, sc *codec.Scratch) error
}

var (
	transposeDelta = coder{
		func(dst []byte, src, _ []float64, sc *codec.Scratch) []byte {
			return codec.AppendTransposeDelta(dst, src, sc)
		},
		func(dst, _ []float64, enc []byte, sc *codec.Scratch) error {
			return codec.DecodeTransposeDelta(dst, enc, sc)
		}}
	temporalDelta = coder{
		func(dst []byte, src, base []float64, sc *codec.Scratch) []byte {
			return codec.AppendTemporalDelta(dst, src, base, sc)
		},
		func(dst, base []float64, enc []byte, sc *codec.Scratch) error {
			return codec.DecodeTemporalDelta(dst, base, enc, sc)
		}}
	quantize = coder{
		func(dst []byte, src, _ []float64, sc *codec.Scratch) []byte {
			return codec.AppendQuantize(dst, src, quantizeBound, sc)
		},
		func(dst, _ []float64, enc []byte, sc *codec.Scratch) error {
			return codec.DecodeQuantize(dst, quantizeBound, enc, sc)
		}}
)

// arrays returns rank 0's arrays of the second step and of the first.
func arrays(b *testing.B) (cur, base [][]float64) {
	steps := adiostest.PB146Steps(b)
	for i := range adiostest.Arrays {
		cur = append(cur, steps[1][0].Vars[i].F64)
		base = append(base, steps[0][0].Vars[i].F64)
	}
	return cur, base
}

// onPaths runs f as a sub-benchmark per kernel path.
func onPaths(b *testing.B, f func(b *testing.B)) {
	for _, path := range cpuid.Paths() {
		b.Run(path, func(b *testing.B) {
			cpuid.Use(b, path)
			f(b)
		})
	}
}

func benchEncode(b *testing.B, c coder) {
	cur, base := arrays(b)
	onPaths(b, func(b *testing.B) {
		var sc codec.Scratch
		enc := make([][]byte, len(cur))
		var raw, coded int
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			raw, coded = 0, 0
			for a, src := range cur {
				enc[a] = c.encode(enc[a][:0], src, base[a], &sc)
				raw += 8 * len(src)
				coded += len(enc[a])
			}
		}
		b.SetBytes(int64(raw))
		b.ReportMetric(float64(raw)/float64(coded), "ratio")
	})
}

func benchDecode(b *testing.B, c coder) {
	cur, base := arrays(b)
	onPaths(b, func(b *testing.B) {
		var sc codec.Scratch
		enc := make([][]byte, len(cur))
		raw := 0
		for a, src := range cur {
			enc[a] = c.encode(nil, src, base[a], &sc)
			raw += 8 * len(src)
		}
		dst := make([]float64, len(cur[0]))
		b.SetBytes(int64(raw))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for a := range cur {
				if err := c.decode(dst, base[a], enc[a], &sc); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

func BenchmarkTransposeDeltaEncode(b *testing.B) { benchEncode(b, transposeDelta) }
func BenchmarkTransposeDeltaDecode(b *testing.B) { benchDecode(b, transposeDelta) }
func BenchmarkTemporalDeltaEncode(b *testing.B)  { benchEncode(b, temporalDelta) }
func BenchmarkTemporalDeltaDecode(b *testing.B)  { benchDecode(b, temporalDelta) }
func BenchmarkQuantizeEncode(b *testing.B)       { benchEncode(b, quantize) }
func BenchmarkQuantizeDecode(b *testing.B)       { benchDecode(b, quantize) }

// zrleInput is what the RLE stage sees of a quantized pressure array:
// the payload decoded back to its transposed bytes.
func zrleInput(b *testing.B) (tb, enc []byte) {
	cur, _ := arrays(b)
	var sc codec.Scratch
	enc = codec.AppendQuantize(nil, cur[3], quantizeBound, &sc)[1:]
	tb = make([]byte, 8*len(cur[3]))
	if err := codec.ZrleDecode(tb, enc); err != nil {
		b.Fatal(err)
	}
	return tb, enc
}

func BenchmarkZrleAppend(b *testing.B) {
	tb, _ := zrleInput(b)
	dst := make([]byte, 0, codec.ZrleMax(len(tb)))
	b.SetBytes(int64(len(tb)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, zeros := codec.ZrleAppend(dst, 0, tb)
		codec.ZrleFlush(out, zeros)
	}
}

func BenchmarkZrleDecode(b *testing.B) {
	tb, enc := zrleInput(b)
	b.SetBytes(int64(len(tb)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := codec.ZrleDecode(tb, enc); err != nil {
			b.Fatal(err)
		}
	}
}
