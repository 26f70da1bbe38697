package codec

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// --- spec grammar ---

func TestParseSpec(t *testing.T) {
	cases := []struct {
		name    string
		entries []string
		wantKey string
		wantErr string
	}{
		{name: "nil is identity", entries: nil, wantKey: ""},
		{name: "empty entries are identity", entries: []string{"", "  "}, wantKey: ""},
		{name: "bare default", entries: []string{"transpose-delta"}, wantKey: "transpose-delta"},
		{name: "quantize with bound", entries: []string{"quantize:1e-3"}, wantKey: "quantize:0.001"},
		{
			name:    "per-array override",
			entries: []string{"transpose-delta", "pressure=quantize:0.5"},
			wantKey: "transpose-delta,pressure=quantize:0.5",
		},
		{
			name:    "entries canonicalize sorted",
			entries: []string{"b=transpose-delta", "a=quantize:0.5"},
			wantKey: "a=quantize:0.5,b=transpose-delta",
		},
		{name: "unknown codec", entries: []string{"lz4"}, wantErr: `unknown codec "lz4"`},
		{name: "quantize without bound", entries: []string{"quantize"}, wantErr: "requires an error bound"},
		{name: "quantize bad bound", entries: []string{"quantize:zero"}, wantErr: "bad quantize bound"},
		{name: "quantize zero bound", entries: []string{"quantize:0"}, wantErr: "bad quantize bound"},
		{name: "quantize negative bound", entries: []string{"quantize:-1"}, wantErr: "bad quantize bound"},
		{name: "quantize inf bound", entries: []string{"quantize:Inf"}, wantErr: "bad quantize bound"},
		{name: "parameter on lossless codec", entries: []string{"transpose-delta:3"}, wantErr: "takes no parameter"},
		{name: "two defaults", entries: []string{"transpose-delta", "quantize:1e-3"}, wantErr: "two default codec entries"},
		{name: "duplicate array", entries: []string{"a=transpose-delta", "a=quantize:1e-3"}, wantErr: `"a" has two codec entries`},
		{name: "temporal default", entries: []string{"temporal-delta"}, wantErr: "temporal-delta is retired"},
		{name: "retired override", entries: []string{"transpose-delta", "pressure=temporal-delta"}, wantErr: "temporal-delta is retired"},
		{name: "empty array name", entries: []string{"=transpose-delta"}, wantErr: "empty array name"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp, err := ParseSpec(tc.entries)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("ParseSpec(%v) err = %v, want substring %q", tc.entries, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParseSpec(%v): %v", tc.entries, err)
			}
			if got := sp.Key(); got != tc.wantKey {
				t.Fatalf("Key() = %q, want %q", got, tc.wantKey)
			}
			// Entries must round-trip through ParseSpec to the same key.
			again, err := ParseSpec(sp.Entries())
			if err != nil || again.Key() != sp.Key() {
				t.Fatalf("Entries() %v does not round-trip: %v, key %q", sp.Entries(), err, again.Key())
			}
		})
	}
}

func TestSpecQueries(t *testing.T) {
	sp, err := ParseSpec([]string{"transpose-delta", "pressure=quantize:1e-3", "raw=identity"})
	if err != nil {
		t.Fatal(err)
	}
	if sp.IsIdentity() {
		t.Fatal("spec with transforms reported identity")
	}
	if got := sp.For("pressure"); got != (Choice{ID: Quantize, Bound: 1e-3}) {
		t.Fatalf("For(pressure) = %v, want quantize:0.001", got)
	}
	if got := sp.For("raw").ID; got != Identity {
		t.Fatalf("For(raw) = %v, want identity", got)
	}
	if got := sp.For("other").ID; got != TransposeDelta {
		t.Fatalf("For(other) = %v, want default transpose-delta", got)
	}
	id, err := ParseSpec([]string{"identity", "a=identity"})
	if err != nil || !id.IsIdentity() {
		t.Fatalf("all-identity spec: err %v, IsIdentity false", err)
	}
	if id.Entries() != nil {
		t.Fatalf("identity spec Entries() = %v, want nil", id.Entries())
	}
}

// TestCheckAdvertised checks a hello's codec request the way the
// producer does now that it advertises no subset: by ParseSpec alone,
// so every codec this build implements passes and an unknown name is
// still refused.
func TestCheckAdvertised(t *testing.T) {
	cases := []struct {
		name    string
		entries []string
		wantErr string
	}{
		{name: "nil advertisement accepts all", entries: []string{"quantize:1e-3"}},
		{name: "advertised codec passes", entries: []string{"transpose-delta"}},
		{name: "identity always passes", entries: nil},
		{name: "unknown codec rejected even with nil advertisement", entries: []string{"zstd"}, wantErr: `unknown codec "zstd"`},
		{name: "retired codec rejected by name", entries: []string{"temporal-delta"}, wantErr: "temporal-delta is retired"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpec(tc.entries)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("ParseSpec(%v): %v", tc.entries, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("ParseSpec(%v) err = %v, want substring %q", tc.entries, err, tc.wantErr)
			}
		})
	}
}

// --- payload corpora ---

// smoothField mimics the Rayleigh–Bénard-like fields the paper's pb146
// case streams: a slowly varying function sampled on a line.
func smoothField(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		x := float64(i) / float64(n+1)
		out[i] = 300 + 25*math.Sin(2*math.Pi*x) + 0.1*math.Cos(40*math.Pi*x)
	}
	return out
}

func specialValues() []float64 {
	return []float64{
		0, math.Copysign(0, -1), 1, -1,
		math.NaN(), math.Inf(1), math.Inf(-1),
		math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, // denormals
		0x1p-1040, -0x1p-1050, // deeper denormals
		math.Pi, 1e300, 1e-300, 6.02214076e23,
	}
}

func payloadCorpus() map[string][]float64 {
	rng := rand.New(rand.NewSource(42))
	noise := make([]float64, 1023) // odd length
	for i := range noise {
		noise[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
	}
	constant := make([]float64, 500)
	for i := range constant {
		constant[i] = 1013.25
	}
	return map[string][]float64{
		"empty":    {},
		"single":   {42.5},
		"pair":     {1, math.NaN()},
		"smooth":   smoothField(2048),
		"specials": specialValues(),
		"noise":    noise,
		"constant": constant,
		"zeros":    make([]float64, 777),
	}
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// --- lossless round trips ---

func TestTransposeDeltaRoundTrip(t *testing.T) {
	var encSc, decSc Scratch
	for name, src := range payloadCorpus() {
		enc := AppendTransposeDelta(nil, src, &encSc)
		dst := make([]float64, len(src))
		if err := DecodeTransposeDelta(dst, enc, &decSc); err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !bitsEqual(src, dst) {
			t.Fatalf("%s: transpose-delta round trip not byte-exact", name)
		}
		if max := 1 + 8*len(src) + (8*len(src)+127)/128; len(enc) > max+1 {
			t.Fatalf("%s: encoded %d bytes exceeds worst case %d", name, len(enc), max)
		}
	}
}

func TestTemporalDeltaRoundTrip(t *testing.T) {
	var encSc, decSc Scratch
	for name, src := range payloadCorpus() {
		base := make([]float64, len(src))
		for i := range base {
			base[i] = src[i] * 1.000001
		}
		enc := AppendTemporalDelta(nil, src, base, &encSc)
		dst := make([]float64, len(src))
		if err := DecodeTemporalDelta(dst, base, enc, &decSc); err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !bitsEqual(src, dst) {
			t.Fatalf("%s: temporal-delta round trip not byte-exact", name)
		}
	}
}

// TestTemporalDeltaCompressesSlowStreams pins the codec's purpose: a
// step nearly identical to its base codes far below raw size.
func TestTemporalDeltaCompressesSlowStreams(t *testing.T) {
	var sc Scratch
	base := smoothField(4096)
	next := append([]float64(nil), base...)
	// Identical except a localized perturbation.
	for i := 100; i < 120; i++ {
		next[i] += 1e-9
	}
	enc := AppendTemporalDelta(nil, next, base, &sc)
	if raw := 8 * len(next); len(enc) > raw/10 {
		t.Fatalf("near-identical step coded to %d bytes (raw %d); want < 10%%", len(enc), raw)
	}
}

func TestTemporalDeltaBaseLengthMismatch(t *testing.T) {
	var sc Scratch
	src := smoothField(64)
	enc := AppendTemporalDelta(nil, src, append([]float64(nil), src...), &sc)
	if enc[0] != modeFolded {
		t.Skip("payload fell back to raw; mismatch check not reachable")
	}
	dst := make([]float64, 64)
	if err := DecodeTemporalDelta(dst, make([]float64, 32), enc, &sc); err == nil {
		t.Fatal("decode with short base succeeded; want length-mismatch error")
	}
}

// --- quantizer properties ---

// TestQuantizeErrorBound is the central quantizer property: for every
// input — random magnitudes, denormals, constants, specials — either
// the reconstruction is within the declared absolute bound, or (for
// values outside the representable grid) the array fell back to the
// bit-exact raw form.
func TestQuantizeErrorBound(t *testing.T) {
	bounds := []float64{1e-12, 1e-6, 1e-3, 0.5, 1, 1e6, 1e300, math.MaxFloat64}
	var encSc, decSc Scratch
	for name, src := range payloadCorpus() {
		for _, bound := range bounds {
			enc := AppendQuantize(nil, src, bound, &encSc)
			dst := make([]float64, len(src))
			if err := DecodeQuantize(dst, bound, enc, &decSc); err != nil {
				t.Fatalf("%s bound=%g: decode: %v", name, bound, err)
			}
			if len(enc) > 0 && enc[0] == modeRaw {
				if !bitsEqual(src, dst) {
					t.Fatalf("%s bound=%g: raw fallback not byte-exact", name, bound)
				}
				continue
			}
			for i := range src {
				if err := math.Abs(src[i] - dst[i]); !(err <= bound) {
					t.Fatalf("%s bound=%g: |src[%d]-dst[%d]| = %g exceeds bound (src %g, dst %g)",
						name, bound, i, i, err, src[i], dst[i])
				}
			}
		}
	}
}

func TestQuantizeSpecialsFallBack(t *testing.T) {
	var sc Scratch
	for _, src := range [][]float64{
		{1, 2, math.NaN(), 4},
		{math.Inf(1)},
		{1e300, 2}, // |q| overflows 2^53 at bound 1e-3
	} {
		enc := AppendQuantize(nil, src, 1e-3, &sc)
		if enc[0] != modeRaw {
			t.Fatalf("unrepresentable array %v did not fall back to raw", src)
		}
		dst := make([]float64, len(src))
		if err := DecodeQuantize(dst, 1e-3, enc, &sc); err != nil || !bitsEqual(src, dst) {
			t.Fatalf("raw fallback round trip failed: %v", err)
		}
	}
}

func TestQuantizeConstantFieldCodesTiny(t *testing.T) {
	var sc Scratch
	src := make([]float64, 10000)
	for i := range src {
		src[i] = 0.4 // not representable in binary; rounds every element the same way
	}
	enc := AppendQuantize(nil, src, 1e-3, &sc)
	if enc[0] != modeFolded {
		t.Fatal("constant field fell back to raw")
	}
	if len(enc) > 700 {
		t.Fatalf("constant field of 80000 raw bytes coded to %d; want ~n/128 tokens", len(enc))
	}
	dst := make([]float64, len(src))
	if err := DecodeQuantize(dst, 1e-3, enc, &sc); err != nil {
		t.Fatal(err)
	}
	for i := range dst {
		if math.Abs(dst[i]-0.4) > 1e-3 {
			t.Fatalf("dst[%d] = %g breaks the bound", i, dst[i])
		}
	}
}

func TestQuantizeDenormals(t *testing.T) {
	var sc Scratch
	src := []float64{
		math.SmallestNonzeroFloat64, 0x1p-1060, -0x1p-1055, 0,
		-math.SmallestNonzeroFloat64,
	}
	for _, bound := range []float64{1e-300, 0x1p-1070, 1} {
		enc := AppendQuantize(nil, src, bound, &sc)
		dst := make([]float64, len(src))
		if err := DecodeQuantize(dst, bound, enc, &sc); err != nil {
			t.Fatalf("bound=%g: %v", bound, err)
		}
		if enc[0] == modeRaw {
			if !bitsEqual(src, dst) {
				t.Fatalf("bound=%g: raw fallback not exact", bound)
			}
			continue
		}
		for i := range src {
			if err := math.Abs(src[i] - dst[i]); !(err <= bound) {
				t.Fatalf("bound=%g: denormal error %g exceeds bound", bound, err)
			}
		}
	}
}

// --- zero-RLE stage ---

func TestZrleRoundTripAndBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := [][]byte{
		{}, {0}, {1}, make([]byte, 1000),
		append(make([]byte, 200), 0xff),
		{1, 0, 2, 0, 0, 3, 0, 0, 0, 4}, // isolated zeros absorbed, run of 3 split
	}
	random := make([]byte, 4096)
	rng.Read(random)
	cases = append(cases, random)
	for _, src := range cases {
		enc := zrleAll(nil, src)
		if len(enc) > zrleMax(len(src)) {
			t.Fatalf("zrle expanded %d bytes to %d (worst case %d)", len(src), len(enc), zrleMax(len(src)))
		}
		dst := make([]byte, len(src))
		if err := zrleDecode(dst, enc); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !bytes.Equal(dst, src) {
			t.Fatalf("round trip of %d bytes differs", len(src))
		}
	}
}

func TestZrleHostileDecode(t *testing.T) {
	// Hostile inputs must error, never panic or over-write.
	cases := []struct {
		enc  []byte
		dlen int
	}{
		{enc: []byte{200}, dlen: 4},     // zero run longer than payload
		{enc: []byte{5, 1, 2}, dlen: 8}, // truncated literal
		{enc: []byte{128}, dlen: 0},     // write past empty payload
		{enc: []byte{0, 7}, dlen: 5},    // short decode (w != len)
		{enc: []byte{127}, dlen: 128},   // literal token with no bytes
	}
	for _, tc := range cases {
		if err := zrleDecode(make([]byte, tc.dlen), tc.enc); err == nil {
			t.Fatalf("zrleDecode(%v) into %d bytes succeeded; want error", tc.enc, tc.dlen)
		}
	}
}

// --- golden wire bytes ---

// TestGoldenPayloadLayout pins the exact coded bytes of a tiny known
// array so accidental format changes fail loudly.
func TestGoldenPayloadLayout(t *testing.T) {
	var sc Scratch
	src := []float64{1.0, 1.0, 1.5}
	// bits(1.0)  = 0x3FF0000000000000
	// delta[0]   = 0x3FF0000000000000, folded 0x7FE0000000000000
	// delta[1]   = 0
	// delta[2]   = bits(1.5)-bits(1.0) = 0x0008000000000000, folded 0x0010000000000000
	// transpose (8 planes × 3 elements, low byte plane first):
	//   planes 0..5: all zero (18 bytes)
	//   plane 6:     E0 00 10   (byte 6 of each folded delta)
	//   plane 7:     7F 00 00   (byte 7 of each folded delta)
	// zrle over 18×00, E0, 00, 10, 7F, 00, 00: the isolated zero inside
	// the literal is absorbed, the trailing pair codes as a run.
	want := []byte{
		modeFolded,
		0x91,                   // zero run of 18
		0x03,                   // literal of 4
		0xe0, 0x00, 0x10, 0x7f, //   plane bytes
		0x81, // trailing zero run of 2
	}
	got := AppendTransposeDelta(nil, src, &sc)
	if !bytes.Equal(got, want) {
		t.Fatalf("golden layout changed: got % x, want % x", got, want)
	}
	dst := make([]float64, 3)
	if err := DecodeTransposeDelta(dst, got, &sc); err != nil || !bitsEqual(src, dst) {
		t.Fatalf("golden payload does not decode: %v", err)
	}
}

// TestRetiredModeIsRefused feeds the decoders the golden payload of
// the retired mode 1 (the same array over two's-complement deltas):
// it is a well-formed token stream that would decode to wrong values
// if read as mode 2, so it must be refused by name.
func TestRetiredModeIsRefused(t *testing.T) {
	var sc Scratch
	retired := []byte{0x01, 0x91, 0x03, 0xf0, 0x00, 0x08, 0x3f, 0x81}
	dst := make([]float64, 3)
	for name, err := range map[string]error{
		"transpose-delta": DecodeTransposeDelta(dst, retired, &sc),
		"temporal-delta":  DecodeTemporalDelta(dst, make([]float64, 3), retired, &sc),
		"quantize":        DecodeQuantize(dst, 1e-3, retired, &sc),
	} {
		if !errors.Is(err, ErrMode) {
			t.Errorf("%s: mode 1 payload: err = %v, want ErrMode", name, err)
		}
	}
}

// TestDecodeRefusesUnknownModes: every mode byte but 0 and 2 is an
// error from every decoder — no panic, and dst is left as it was.
func TestDecodeRefusesUnknownModes(t *testing.T) {
	var sc Scratch
	src := smoothField(64)
	enc := AppendTransposeDelta(nil, src, &sc)
	if enc[0] != modeFolded {
		t.Fatalf("smooth field coded with mode %d", enc[0])
	}
	dst, base := make([]float64, len(src)), make([]float64, len(src))
	for i := range dst {
		dst[i] = -7
	}
	for mode := 0; mode < 256; mode++ {
		if mode == modeRaw || mode == modeFolded {
			continue
		}
		enc[0] = byte(mode)
		for name, err := range map[string]error{
			"transpose-delta": DecodeTransposeDelta(dst, enc, &sc),
			"temporal-delta":  DecodeTemporalDelta(dst, base, enc, &sc),
			"quantize":        DecodeQuantize(dst, 1e-3, enc, &sc),
		} {
			if !errors.Is(err, ErrMode) {
				t.Fatalf("%s: mode byte %d: err = %v, want ErrMode", name, mode, err)
			}
		}
		for i, x := range dst {
			if x != -7 {
				t.Fatalf("mode byte %d: refused payload wrote dst[%d] = %g", mode, i, x)
			}
		}
	}
}
