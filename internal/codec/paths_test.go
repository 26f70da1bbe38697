package codec

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"nekrs-sensei/internal/cpuid"
)

// The AVX2 kernels against the Go loops: every input is coded and
// decoded on the "go" path, which is the oracle, and again on every
// other path this machine has; payloads must be byte-equal and decodes
// bit-equal.

type quantizeCase struct {
	src   []float64
	bound float64
}

// quantizeValue draws one value for a quantizer at bound: grid points
// near |q| = 2^51 and 2^53 (where the kernel hands blocks to the Go
// loop and the check starts to fail), exact half-way quotients,
// specials, subnormals, or smooth noise.
func quantizeValue(rng *rand.Rand, bound float64) float64 {
	step := 2 * bound
	sign := float64(1 - 2*rng.Intn(2))
	switch rng.Intn(8) {
	case 0:
		return specialValues()[rng.Intn(len(specialValues()))]
	case 1:
		edge := []float64{0x1p51, 0x1p53}[rng.Intn(2)]
		return sign * (edge + float64(rng.Intn(5)-2)) * step
	case 2:
		return sign * (float64(rng.Intn(1000)) + 0.5) * step
	case 3:
		return sign * math.Nextafter(0.5, 0) * step * float64(1+2*rng.Intn(3))
	case 4:
		return sign * math.SmallestNonzeroFloat64 * float64(rng.Intn(1<<20))
	case 5:
		return []float64{0, math.Copysign(0, -1)}[rng.Intn(2)]
	}
	return 300 + 25*math.Sin(float64(rng.Intn(1<<16))) + rng.NormFloat64()*bound*float64(rng.Intn(4))
}

// quantizeCases are lengths 0–17 and longer ones off the vector width,
// at bounds from a grid exactly halving quotients (0.5) to ones so
// small or large that the grid breaks; most arrays are clean, so the
// kernels run, and the rest mix in one adversarial kind.
func quantizeCases(rng *rand.Rand, count int) []quantizeCase {
	bounds := []float64{1e-6, 0.5, 1, 1e-3, 3e-7, 1e-300, 1e300}
	cases := make([]quantizeCase, count)
	for c := range cases {
		n := rng.Intn(18)
		if c%2 == 1 {
			n = 18 + rng.Intn(400)
		}
		bound := bounds[rng.Intn(len(bounds))]
		src := make([]float64, n)
		dirty := rng.Intn(3) == 0
		for i := range src {
			if dirty && rng.Intn(64) == 0 {
				src[i] = quantizeValue(rng, bound)
			} else {
				src[i] = 300 + 25*math.Sin(float64(i)/50) + rng.NormFloat64()*bound
			}
		}
		if !dirty && rng.Intn(2) == 0 && n > 0 {
			src[rng.Intn(n)] = quantizeValue(rng, bound)
		}
		cases[c] = quantizeCase{src, bound}
	}
	return cases
}

// codeOnPath quantizes every case on path and decodes each payload.
func codeOnPath(t *testing.T, path string, cases []quantizeCase) (enc [][]byte, dec [][]float64) {
	cpuid.Use(t, path)
	var sc Scratch
	for _, c := range cases {
		e := AppendQuantize(nil, c.src, c.bound, &sc)
		d := make([]float64, len(c.src))
		if err := DecodeQuantize(d, c.bound, e, &sc); err != nil {
			t.Fatalf("%s: decoding %v: %v", path, c.src, err)
		}
		enc, dec = append(enc, e), append(dec, d)
	}
	return enc, dec
}

func TestQuantizeKernelsMatchGoLoop(t *testing.T) {
	cases := quantizeCases(rand.New(rand.NewSource(41)), 6000)
	wantEnc, wantDec := codeOnPath(t, "go", cases)
	for _, path := range cpuid.Paths() {
		gotEnc, gotDec := codeOnPath(t, path, cases)
		for i, c := range cases {
			if !bytes.Equal(gotEnc[i], wantEnc[i]) {
				t.Fatalf("%s: payload of %v at bound %g differs from the Go loop's\n got % x\nwant % x",
					path, c.src, c.bound, gotEnc[i], wantEnc[i])
			}
			if !bitsEqual(gotDec[i], wantDec[i]) {
				t.Fatalf("%s: decode of %v at bound %g differs from the Go loop's: %v vs %v",
					path, c.src, c.bound, gotDec[i], wantDec[i])
			}
		}
	}
}

// TestDequantizeKernelMatchesGoLoop: coded lanes no encoder writes,
// whose running sums leave [-2^51, 2^51) and come back, decode the
// same on every path.
func TestDequantizeKernelMatchesGoLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var sc Scratch
	encs, lens := make([][]byte, 3000), make([]int, 3000)
	bounds := make([]float64, len(encs))
	for c := range encs {
		lanes := make([]uint64, rng.Intn(200))
		var or uint64
		for i := range lanes {
			switch rng.Intn(4) {
			case 0:
				lanes[i] = rng.Uint64()
			case 1:
				lanes[i] = fold(uint64(int64(rng.Intn(9)-4) << 50))
			default:
				lanes[i] = uint64(rng.Intn(16))
			}
			or |= lanes[i]
		}
		encs[c] = appendLanes(nil, lanes, or, make([]float64, len(lanes)), &sc)
		lens[c] = len(lanes)
		bounds[c] = []float64{1e-6, 0.5, 1e300}[rng.Intn(3)]
	}
	decodeOnPath := func(path string) (dec [][]float64) {
		cpuid.Use(t, path)
		for c, enc := range encs {
			d := make([]float64, lens[c])
			if err := DecodeQuantize(d, bounds[c], enc, &sc); err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			dec = append(dec, d)
		}
		return dec
	}
	want := decodeOnPath("go")
	for _, path := range cpuid.Paths() {
		got := decodeOnPath(path)
		for c := range want {
			if !bitsEqual(got[c], want[c]) {
				t.Fatalf("%s: payload % x decodes to %v, the Go loop gives %v", path, encs[c], got[c], want[c])
			}
		}
	}
}

// TestTransposeKernelsEveryLength: both paths, every length 0–100 and
// a few past it, against the byte-at-a-time reference.
func TestTransposeKernelsEveryLength(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, path := range cpuid.Paths() {
		t.Run(path, func(t *testing.T) {
			cpuid.Use(t, path)
			for n := 0; n <= 100+rng.Intn(300); n++ {
				lanes := make([]uint64, n)
				var or uint64
				for i := range lanes {
					lanes[i] = rng.Uint64() >> (8 * rng.Intn(8))
					or |= lanes[i]
				}
				want := make([]byte, 8*n)
				transposeReference(want, lanes)
				got := make([]byte, 8*n)
				transpose(got, lanes, or)
				if !bytes.Equal(got, want) {
					t.Fatalf("n=%d: transpose differs from the reference", n)
				}
				back := make([]uint64, n)
				for i := range back {
					back[i] = rng.Uint64() // stale scratch
				}
				untranspose(back, want)
				for i := range back {
					if back[i] != lanes[i] {
						t.Fatalf("n=%d: untranspose lane %d = %x, want %x", n, i, back[i], lanes[i])
					}
				}
			}
		})
	}
}

// FuzzQuantizeKernels: any values at any bound (the fuzzer's own, and
// the array's first magnitude) code to the same payload, and any bytes
// decode to the same values or the same error, on the machine's
// default path and on the Go loop.
func FuzzQuantizeKernels(f *testing.F) {
	for _, seed := range fuzzSeedCorpus() {
		f.Add(seed, 1e-6)
	}
	for _, c := range quantizeCases(rand.New(rand.NewSource(44)), 16) {
		raw := make([]byte, 8*len(c.src))
		for i, x := range c.src {
			binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(x))
		}
		f.Add(raw, c.bound)
	}
	f.Fuzz(func(t *testing.T, data []byte, bound float64) {
		src := bytesToFloats(data)
		bounds := []float64{1e-6}
		if bound > 0 && !math.IsInf(bound, 0) {
			bounds = append(bounds, bound)
		}
		if len(src) > 0 {
			if b := math.Abs(src[0]); b > 0 && !math.IsInf(b, 0) {
				bounds = append(bounds, b)
			}
		}
		type result struct {
			enc  [][]byte
			dec  [][]float64
			errs []string
		}
		run := func() (r result) {
			var sc Scratch
			for _, b := range bounds {
				enc := AppendQuantize(nil, src, b, &sc)
				r.enc = append(r.enc, enc)
				for _, payload := range [][]byte{enc, append([]byte{modeFolded}, data...)} {
					dec := make([]float64, len(src))
					err := DecodeQuantize(dec, b, payload, &sc)
					msg := ""
					if err != nil {
						msg = err.Error()
					}
					r.dec, r.errs = append(r.dec, dec), append(r.errs, msg)
				}
			}
			return r
		}
		kernel := run()
		cpuid.Use(t, "go")
		want := run()
		for i := range want.enc {
			if !bytes.Equal(kernel.enc[i], want.enc[i]) {
				t.Fatalf("bound %g: payload differs from the Go loop's\n got % x\nwant % x", bounds[i], kernel.enc[i], want.enc[i])
			}
		}
		for i := range want.dec {
			if kernel.errs[i] != want.errs[i] || !bitsEqual(kernel.dec[i], want.dec[i]) {
				t.Fatalf("decode %d: %v (%q), the Go loop gives %v (%q)", i, kernel.dec[i], kernel.errs[i], want.dec[i], want.errs[i])
			}
		}
	})
}
