package codec

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// printPins makes TestPinnedDecodedValues print the table below from
// the tree it runs in instead of checking it:
//
//	go test ./internal/codec -run TestPinnedDecodedValues -args -print-pins
//
// Regenerate only in a change that deliberately alters what a codec
// decodes to.
var printPins = flag.Bool("print-pins", false, "print the decoded-value digests instead of checking them")

var pinnedLengths = []int{0, 1, 7, 8, 9, 32768, 65537}

var pinnedFieldNames = []string{"smooth", "alternating", "constant", "velocity", "nonfinite"}

// pinnedField builds one of the seeded fields at length n: a smooth
// temperature-like profile, values alternating in sign, a constant, a
// velocity-like component crossing zero, and the smooth profile with a
// NaN and an Inf in it (the quantizer's verbatim fallback).
func pinnedField(name string, n int) []float64 {
	rng := rand.New(rand.NewSource(int64(17 + n)))
	out := make([]float64, n)
	for i := range out {
		x := float64(i) / float64(n+1)
		switch name {
		case "smooth", "nonfinite":
			out[i] = 300 + 25*math.Sin(2*math.Pi*x) + 0.1*math.Cos(40*math.Pi*x) + 1e-7*rng.NormFloat64()
		case "alternating":
			out[i] = (0.5 + 1e-3*rng.Float64()) * float64(1-2*(i&1))
		case "constant":
			out[i] = 1013.25
		case "velocity":
			out[i] = 0.3*math.Sin(6*math.Pi*x) + 1e-5*rng.NormFloat64()
		}
	}
	if name == "nonfinite" && n > 0 {
		out[n/2] = math.NaN()
		out[n-1] = math.Inf(1)
	}
	return out
}

// pinnedCodecs are the coded forms under test. The temporal base is
// the field a small step earlier.
var pinnedCodecs = []struct {
	name  string
	bound float64 // > 0: the quantizer at this bound
	run   func(dst, src, base []float64, enc []byte, sc *Scratch) ([]byte, error)
}{
	{"transpose-delta", 0, func(dst, src, _ []float64, enc []byte, sc *Scratch) ([]byte, error) {
		enc = AppendTransposeDelta(enc[:0], src, sc)
		return enc, DecodeTransposeDelta(dst, enc, sc)
	}},
	{"temporal-delta", 0, func(dst, src, base []float64, enc []byte, sc *Scratch) ([]byte, error) {
		enc = AppendTemporalDelta(enc[:0], src, base, sc)
		return enc, DecodeTemporalDelta(dst, base, enc, sc)
	}},
	{"quantize:1e-6", 1e-6, func(dst, src, _ []float64, enc []byte, sc *Scratch) ([]byte, error) {
		enc = AppendQuantize(enc[:0], src, 1e-6, sc)
		return enc, DecodeQuantize(dst, 1e-6, enc, sc)
	}},
	{"quantize:1e-3", 1e-3, func(dst, src, _ []float64, enc []byte, sc *Scratch) ([]byte, error) {
		enc = AppendQuantize(enc[:0], src, 1e-3, sc)
		return enc, DecodeQuantize(dst, 1e-3, enc, sc)
	}},
}

// pinnedDecode is one row of the table: the SHA-256 of the decoded
// bit patterns over every pinned length, each length's values preceded
// by the length, all little-endian. rawBySize lists the lengths left
// out of a quantizer digest: there the recorded encoder found its coded
// form larger than the array and shipped the verbatim fallback, so it
// decoded the exact input, which a tighter packing need not reproduce
// (it may ship q·2b instead, inside the bound either way).
type pinnedDecode struct {
	codec, field string
	rawBySize    []int
	digest       string
}

// pinnedDecodes was recorded at commit ac12caf (PR 16), before the
// coded forms folded delta signs: two's-complement deltas, mode byte 1.
var pinnedDecodes = []pinnedDecode{
	{"transpose-delta", "smooth", nil,
		"a7b8ea42ec7b2222bd69b787734d823b86bb98a87e15d61519884ab0f93dba17"},
	{"transpose-delta", "alternating", nil,
		"62dc4408f3e60881d529faa3560ba1464dabd96c2a21dec950774b5d8e7bd8cc"},
	{"transpose-delta", "constant", nil,
		"c78b855d75763df1f01900fe85840ef8c7c5f4ada78147712bab14a90521e82a"},
	{"transpose-delta", "velocity", nil,
		"90ecb55e3345efde1288d460d297d426aacf661d42200d2ed4917bc8c8772b89"},
	{"transpose-delta", "nonfinite", nil,
		"d54fed6bd2692cfda480560dd645656d37222e720ae56150fc526c83e08892b4"},
	{"temporal-delta", "smooth", nil,
		"a7b8ea42ec7b2222bd69b787734d823b86bb98a87e15d61519884ab0f93dba17"},
	{"temporal-delta", "alternating", nil,
		"62dc4408f3e60881d529faa3560ba1464dabd96c2a21dec950774b5d8e7bd8cc"},
	{"temporal-delta", "constant", nil,
		"c78b855d75763df1f01900fe85840ef8c7c5f4ada78147712bab14a90521e82a"},
	{"temporal-delta", "velocity", nil,
		"90ecb55e3345efde1288d460d297d426aacf661d42200d2ed4917bc8c8772b89"},
	{"temporal-delta", "nonfinite", nil,
		"d54fed6bd2692cfda480560dd645656d37222e720ae56150fc526c83e08892b4"},
	{"quantize:1e-6", "smooth", nil,
		"2a99db28edad17bc6787ff7a19119fe47f821e1cc22fc5d6a10cc99b1164f48b"},
	{"quantize:1e-6", "alternating", []int{7, 8, 9, 32768, 65537},
		"2699a1583a97746cd14547a4d3a93193e7f159e173014a0c0508de81a4001891"},
	{"quantize:1e-6", "constant", nil,
		"c78b855d75763df1f01900fe85840ef8c7c5f4ada78147712bab14a90521e82a"},
	{"quantize:1e-6", "velocity", []int{9},
		"c00458a0c7f7ac277dbf3e913d40ea61443edcd7f34d505a99cc7ee61843adfd"},
	{"quantize:1e-6", "nonfinite", nil,
		"d54fed6bd2692cfda480560dd645656d37222e720ae56150fc526c83e08892b4"},
	{"quantize:1e-3", "smooth", nil,
		"8f3de6c3e08a95c6d5e4a1efbf9c9bb37ea963b719f9ffeb5b875ae5dad9b5ec"},
	{"quantize:1e-3", "alternating", []int{7, 8, 9, 32768, 65537},
		"54595c12d48d8b17af7e5c79eb8ec703f91288d226e1a7036c17adda3c6d0ae2"},
	{"quantize:1e-3", "constant", nil,
		"c78b855d75763df1f01900fe85840ef8c7c5f4ada78147712bab14a90521e82a"},
	{"quantize:1e-3", "velocity", nil,
		"97d0dacea3949ea51d47cadb40d8b5546d1b6b2035755b999eea0d6ee583e20b"},
	{"quantize:1e-3", "nonfinite", nil,
		"d54fed6bd2692cfda480560dd645656d37222e720ae56150fc526c83e08892b4"},
}

func representable(src []float64, bound float64) bool {
	for _, x := range src {
		q := math.Round(x / (2 * bound))
		if !(math.Abs(q) <= 1<<53) || !(math.Abs(x-q*2*bound) <= bound) {
			return false
		}
	}
	return true
}

// TestPinnedDecodedValues holds the codecs to "same decoded values bit
// for bit" across format and kernel changes: what each codec decodes a
// fixed field set to is pinned from the tree before the change.
func TestPinnedDecodedValues(t *testing.T) {
	var sc Scratch
	var enc []byte
	var word [8]byte
	row := 0
	for _, c := range pinnedCodecs {
		for _, field := range pinnedFieldNames {
			var want pinnedDecode
			if !*printPins {
				if row >= len(pinnedDecodes) {
					t.Fatalf("no pinned row for %s/%s", c.name, field)
				}
				want = pinnedDecodes[row]
				row++
				if want.codec != c.name || want.field != field {
					t.Fatalf("pinned row %d is %s/%s, want %s/%s", row-1, want.codec, want.field, c.name, field)
				}
			}
			h := sha256.New()
			var bySize []int
			for _, n := range pinnedLengths {
				src := pinnedField(field, n)
				base := make([]float64, n)
				for i := range base {
					base[i] = src[i] - 1e-6*math.Sin(float64(i))
				}
				dst := make([]float64, n)
				var err error
				if enc, err = c.run(dst, src, base, enc, &sc); err != nil {
					t.Fatalf("%s/%s/%d: decode: %v", c.name, field, n, err)
				}
				if *printPins && c.bound > 0 && n > 0 && enc[0] == modeRaw && representable(src, c.bound) {
					bySize = append(bySize, n)
				}
				if slices.Contains(bySize, n) || slices.Contains(want.rawBySize, n) {
					for i := range src {
						if e := math.Abs(src[i] - dst[i]); !(e <= c.bound) {
							t.Fatalf("%s/%s/%d: element %d off by %g", c.name, field, n, i, e)
						}
					}
					continue
				}
				binary.LittleEndian.PutUint64(word[:], uint64(n))
				h.Write(word[:])
				for _, x := range dst {
					binary.LittleEndian.PutUint64(word[:], math.Float64bits(x))
					h.Write(word[:])
				}
			}
			got := hex.EncodeToString(h.Sum(nil))
			if *printPins {
				fmt.Printf("\t{%q, %q, %#v,\n\t\t%q},\n", c.name, field, bySize, got)
				continue
			}
			if got != want.digest {
				t.Errorf("%s/%s: decoded values differ from the pinned ones: digest %s, want %s", c.name, field, got, want.digest)
			}
		}
	}
}
