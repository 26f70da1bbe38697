package adios

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"
	"unsafe"

	"nekrs-sensei/internal/codec"
)

// codedStep builds a step with one codec-eligible array whose values
// evolve smoothly with the step number, plus an ineligible int64
// variable and a non-array float64 variable that must always ship
// verbatim.
func codedStep(step int64, n int) *Step {
	u := make([]float64, n)
	for i := range u {
		u[i] = math.Sin(float64(i)/40) + 1e-3*float64(step)
	}
	return &Step{
		Step: step, Time: float64(step) * 0.01,
		Attrs: map[string]string{"case": "rbc"},
		Vars: []Variable{
			NewF64("array/u", u, int64(n)),
			NewF64("meta/residual", []float64{1e-6 * float64(step)}),
			NewI64("connectivity", []int64{0, 1, 2, 3}),
		},
	}
}

func mustSpec(t testing.TB, entries ...string) codec.Spec {
	t.Helper()
	sp, err := codec.ParseSpec(entries)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func f64BitsEqual(a, b []float64) bool {
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

// decodeFrame runs one frame through a decoder into fresh storage.
func decodeFrame(t *testing.T, d *StreamDecoder, raw []byte) *Step {
	t.Helper()
	var out Step
	if err := d.DecodeInto(raw, &out); err != nil {
		t.Fatalf("DecodeInto: %v", err)
	}
	return &out
}

// TestStreamRoundTripAllCodecs chains five steps through an
// encoder/decoder pair under every codec and checks the decoded steps
// against the originals: bit-exact for the lossless codecs and the
// always-verbatim variables, within the declared bound for quantize.
func TestStreamRoundTripAllCodecs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spec  []string
		bound float64 // 0 = lossless
	}{
		{name: "identity", spec: nil},
		{name: "transpose-delta", spec: []string{"transpose-delta"}},
		{name: "quantize", spec: []string{"quantize:1e-6"}, bound: 1e-6},
		{name: "per-array override", spec: []string{"quantize:1e-6", "u=transpose-delta"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := mustSpec(t, tc.spec...)
			enc := NewStreamEncoder(spec)
			dec := NewStreamDecoder()
			pool := NewFramePool()
			for step := int64(0); step < 5; step++ {
				in := codedStep(step, 257) // odd length: partial transpose lane
				f := enc.EncodeFrame(in, pool)
				if !IsEncodedFrame(f.Bytes()) {
					t.Fatalf("step %d: EncodeFrame produced non-BPC6 frame", step)
				}
				out := decodeFrame(t, dec, f.Bytes())
				f.Release()
				if out.Step != in.Step || out.Time != in.Time || out.Attrs["case"] != "rbc" {
					t.Fatalf("step %d: header mismatch: %+v", step, out)
				}
				u := out.FindVar("array/u")
				if u == nil || len(u.Shape) != 1 || u.Shape[0] != 257 {
					t.Fatalf("step %d: array/u missing or misshapen", step)
				}
				src := in.FindVar("array/u").F64
				if tc.bound == 0 {
					if !f64BitsEqual(src, u.F64) {
						t.Fatalf("step %d: lossless codec not byte-exact", step)
					}
				} else {
					for i := range src {
						if e := math.Abs(src[i] - u.F64[i]); !(e <= tc.bound) {
							t.Fatalf("step %d: element %d error %g exceeds %g", step, i, e, tc.bound)
						}
					}
				}
				// Ineligible variables are always verbatim and exact.
				if !f64BitsEqual(in.Vars[1].F64, out.FindVar("meta/residual").F64) {
					t.Fatalf("step %d: non-array float64 variable corrupted", step)
				}
				cv := out.FindVar("connectivity")
				if cv == nil || len(cv.I64) != 4 || cv.I64[3] != 3 {
					t.Fatalf("step %d: int64 variable corrupted", step)
				}
			}
			if !spec.IsIdentity() {
				if r := enc.Ratio(); !(r > 0 && r < 1) {
					t.Errorf("ratio = %v, want compression on the smooth field", r)
				}
				if enc.BytesRaw() != 5*257*8 {
					t.Errorf("BytesRaw = %d, want %d", enc.BytesRaw(), 5*257*8)
				}
			}
		})
	}
}

// TestStreamDecoderResetOnPlainFrame: a BP06 frame (structure step,
// spill catch-up) inside a coded stream leaves the decoder able to
// decode the next coded frame bit for bit: every frame decodes alone.
func TestStreamDecoderResetOnPlainFrame(t *testing.T) {
	enc := NewStreamEncoder(mustSpec(t, "transpose-delta"))
	pool := NewFramePool()
	dec := NewStreamDecoder()

	f0 := enc.EncodeFrame(codedStep(0, 32), pool)
	decodeFrame(t, dec, f0.Bytes())

	// A plain frame interleaves (the hub ships structure steps and
	// spill catch-ups as BP06).
	structure := codedStep(1, 32)
	structure.Attrs["structure"] = "1"
	decodeFrame(t, dec, Marshal(structure))

	s2 := codedStep(2, 32)
	f2 := enc.EncodeFrame(s2, pool)
	got := decodeFrame(t, dec, f2.Bytes())
	if !f64BitsEqual(s2.FindVar("array/u").F64, got.FindVar("array/u").F64) {
		t.Fatal("coded frame after plain frame mismatch")
	}
	for _, f := range []*Frame{f0, f2} {
		f.Release()
	}
}

// TestEncodedGoldenFrame pins the BPC6 byte layout against an
// independently constructed frame: header words, the per-variable
// codec byte and param, and the coded payload from the codec package's
// own golden test.
func TestEncodedGoldenFrame(t *testing.T) {
	s := &Step{
		Step: 9, Time: 0.25,
		Attrs: map[string]string{"case": "rbc"},
		Vars:  []Variable{NewF64("array/p", []float64{1.0, 1.0, 1.5}, 3)},
	}
	enc := NewStreamEncoder(mustSpec(t, "transpose-delta"))
	pool := NewFramePool()
	f := enc.EncodeFrame(s, pool)
	defer f.Release()

	var want bytes.Buffer
	u64 := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		want.Write(b[:])
	}
	str := func(s string) { u64(uint64(len(s))); want.WriteString(s) }
	pad := func() { want.Write(make([]byte, -want.Len()&7)) }
	want.WriteString("BPC6")
	u64(9)                      // step
	u64(math.Float64bits(0.25)) // time
	u64(0)                      // base word: always 0
	u64(1)                      // one attribute
	str("case")
	str("rbc")
	pad()
	u64(1) // one variable
	str("array/p")
	want.WriteByte(byte(KindFloat64))
	want.WriteByte(byte(codec.TransposeDelta))
	pad()
	u64(math.Float64bits(0)) // param: unused for lossless codecs
	u64(1)                   // rank
	u64(3)                   // shape
	u64(3)                   // elems
	// The coded payload for {1.0, 1.0, 1.5} as pinned by the codec
	// package's golden layout test.
	payload := []byte{0x02, 0x91, 0x03, 0xe0, 0x00, 0x10, 0x7f, 0x81}
	u64(uint64(len(payload)))
	header := want.Len()
	want.Write(payload)
	pad()

	if !bytes.Equal(f.Bytes(), want.Bytes()) {
		t.Errorf("BPC6 frame layout changed:\n got %x\nwant %x", f.Bytes(), want.Bytes())
	}

	// The same frame with the payload an encoder before the sign fold
	// wrote (mode 1, two's-complement deltas) is refused, not misread.
	retired := append(want.Bytes()[:header:header], 0x01, 0x91, 0x03, 0xf0, 0x00, 0x08, 0x3f, 0x81)
	var out Step
	if err := NewStreamDecoder().DecodeInto(retired, &out); !errors.Is(err, codec.ErrMode) {
		t.Errorf("frame with a mode 1 payload: err = %v, want codec.ErrMode", err)
	}
}

// TestScanFrameEncoded: the header-only walk recovers a BPC6 frame's
// layout — codec bytes, quantizer params, enclen-sized payload spans —
// without decoding.
func TestScanFrameEncoded(t *testing.T) {
	enc := NewStreamEncoder(mustSpec(t, "transpose-delta", "p=quantize:0.001"))
	pool := NewFramePool()
	mkStep := func(step int64) *Step {
		s := codedStep(step, 100)
		s.Vars = append(s.Vars, NewF64("array/p", []float64{1, 2, 3, 4}, 4))
		return s
	}
	f0 := enc.EncodeFrame(mkStep(0), pool)
	f1 := enc.EncodeFrame(mkStep(1), pool)
	defer f0.Release()
	defer f1.Release()

	fi, err := ScanFrame(f0.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !fi.Encoded || fi.Step != 0 {
		t.Fatalf("first frame scan: %+v", fi)
	}
	if vs := fi.FindVar("array/u"); vs == nil || vs.Codec != byte(codec.TransposeDelta) {
		t.Fatalf("array/u span: %+v", vs)
	}
	if vs := fi.FindVar("array/p"); vs == nil || vs.Codec != byte(codec.Quantize) || vs.Param != 0.001 {
		t.Fatalf("array/p span: %+v", vs)
	}
	if vs := fi.FindVar("connectivity"); vs == nil || vs.Codec != 0 ||
		vs.PayloadLen != 4*8 || vs.Elems != 4 {
		t.Fatalf("connectivity span: %+v", vs)
	}

	fi, err = ScanFrame(f1.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if vs := fi.FindVar("array/u"); vs == nil || vs.Codec != byte(codec.TransposeDelta) {
		t.Fatalf("second frame's array/u span: %+v", vs)
	}
	// The payload span is the coded length, smaller than the raw array.
	if vs := fi.FindVar("array/u"); vs.PayloadLen >= 100*8 {
		t.Errorf("coded payload span %d bytes not smaller than raw %d", vs.PayloadLen, 100*8)
	}
	for _, vs := range fi.Vars {
		if int(vs.PayloadOff+vs.PayloadLen) > len(f1.Bytes()) {
			t.Fatalf("span %q overruns frame", vs.Name)
		}
	}

	// Truncations scan as errors, never panic.
	raw := f1.Bytes()
	for cut := 1; cut < len(raw); cut += 13 {
		if _, err := ScanFrame(raw[:cut]); err == nil {
			t.Fatalf("truncated frame at %d scanned clean", cut)
		}
	}
}

// TestPlainUnmarshalRejectsEncoded: a BP06-only decode path meeting a
// BPC6 frame must fail loudly, not misparse, and plain marshaling is
// byte-identical to what it was before codecs existed (same magic,
// decodable by UnmarshalInto).
func TestPlainUnmarshalRejectsEncoded(t *testing.T) {
	enc := NewStreamEncoder(mustSpec(t, "transpose-delta"))
	pool := NewFramePool()
	f := enc.EncodeFrame(codedStep(0, 16), pool)
	defer f.Release()
	var out Step
	if err := UnmarshalInto(f.Bytes(), &out); err == nil {
		t.Fatal("UnmarshalInto accepted a BPC6 frame")
	}
	plain := Marshal(codedStep(0, 16))
	if string(plain[:4]) != "BP06" {
		t.Fatalf("plain magic = %q", plain[:4])
	}
	if err := UnmarshalInto(plain, &out); err != nil {
		t.Fatal(err)
	}
	// And a codec-capable decoder accepts the plain frame unchanged.
	dec := NewStreamDecoder()
	if err := dec.DecodeInto(plain, &out); err != nil {
		t.Fatal(err)
	}
}

// FuzzStreamDecoder feeds the BPC6 decoder whatever a peer could send:
// arbitrary bytes and mutated coded frames, to a fresh decoder or to
// a warm one that already decoded a frame. It must answer with an
// error or a step — never panic — and never size storage past what the
// frame's own bytes could decode to (a zero-RLE token yields at most
// 128 bytes: the 16:1 element bound of decodeVar). A frame it accepts
// scans clean, and decodes the same on a fresh decoder.
func FuzzStreamDecoder(f *testing.F) {
	enc := NewStreamEncoder(mustSpec(f, "transpose-delta", "p=quantize:0.001"))
	pool := NewFramePool()
	mkStep := func(step int64) *Step {
		s := codedStep(step, 100)
		s.Vars = append(s.Vars, NewF64("array/p", []float64{1, 2, 3, 4}, 4))
		return s
	}
	first, next := enc.EncodeFrame(mkStep(0), pool).Bytes(), enc.EncodeFrame(mkStep(1), pool).Bytes()

	for _, warm := range []bool{false, true} {
		f.Add(first, warm)
		f.Add(next, warm)
		f.Add(Marshal(mkStep(2)), warm)
		f.Add(next[:len(next)/2], warm)
		f.Add(append(first[:len(first):len(first)], 0xAB), warm) // one trailing byte
		f.Add([]byte("BPC6"), warm)
		f.Add([]byte{}, warm)
	}
	// A retired and an unknown payload mode, and an element count far
	// past what the payload could hold.
	fi, err := ScanFrame(first)
	if err != nil {
		f.Fatal(err)
	}
	u := fi.FindVar("array/u")
	for _, mode := range []byte{1, 3} {
		bad := append([]byte(nil), first...)
		bad[u.PayloadOff] = mode
		f.Add(bad, false)
	}
	huge := append([]byte(nil), first...)
	binary.LittleEndian.PutUint64(huge[u.PayloadOff-16:], 1<<40)
	f.Add(huge, false)
	// The retired temporal-delta codec: a frame naming a base step, and
	// one whose array carries codec byte 2. Both are refused by name.
	based := append([]byte(nil), next...)
	binary.LittleEndian.PutUint64(based[20:], 1)
	temporal := append([]byte(nil), next...)
	temporal[u.RecordOff+8+int64(len(u.Name))+1] = byte(codec.TemporalDelta)
	for _, bad := range [][]byte{based, temporal} {
		if err := NewStreamDecoder().DecodeInto(bad, &Step{}); !errors.Is(err, codec.ErrRetired) || !strings.Contains(err.Error(), "temporal-delta") {
			f.Fatalf("retired codec frame: err = %v, want codec.ErrRetired naming temporal-delta", err)
		}
		f.Add(bad, false)
		f.Add(bad, true)
	}

	f.Fuzz(func(t *testing.T, raw []byte, warm bool) {
		dec := NewStreamDecoder()
		var prev Step
		if warm {
			if err := dec.DecodeInto(first, &prev); err != nil {
				t.Fatal(err)
			}
		}
		var out Step
		err := dec.DecodeInto(raw, &out)
		var sized int
		for i := range out.Vars {
			v := &out.Vars[i]
			sized += 8*cap(v.F64) + 8*cap(v.I64) + cap(v.U8)
		}
		if sized > 128*len(raw) {
			t.Fatalf("a %d-byte frame sized %d bytes of payload storage (err %v)", len(raw), sized, err)
		}
		if err != nil {
			return
		}
		if _, serr := ScanFrame(raw); serr != nil {
			t.Fatalf("frame decodes but does not scan: %v", serr)
		}
		// A decoded step is a whole one: it marshals, and decoding the
		// same frame on a fresh decoder into recycled storage gives the
		// same step.
		want := Marshal(&out)
		if err := NewStreamDecoder().DecodeInto(raw, &prev); err != nil {
			t.Fatalf("decode succeeded, fresh recycled decode: %v", err)
		}
		if !bytes.Equal(Marshal(&prev), want) {
			t.Fatal("warm and fresh decodes disagree")
		}
	})
}

// TestDecodeNeverWritesThroughAView: a step whose payloads view a frame
// (ViewInto, or a Reader step viewing its receive buffer) that is then
// decoded into again — here from a coded frame of the same shape, whose
// arrays need storage of their own — gets fresh storage: the frame it
// viewed is never written.
func TestDecodeNeverWritesThroughAView(t *testing.T) {
	plain := Marshal(codedStep(1, 64))
	viewed := append([]byte(nil), plain...)
	var out Step
	if err := ViewInto(viewed, nil, &out); err != nil {
		t.Fatal(err)
	}
	fi, err := ScanFrame(plain)
	if err != nil {
		t.Fatal(err)
	}
	if u := out.FindVar("array/u").F64; &u[0] != (*float64)(unsafe.Pointer(&viewed[fi.FindVar("array/u").PayloadOff])) {
		t.Fatal("ViewInto copied the payload instead of viewing the frame")
	}
	coded := NewStreamEncoder(mustSpec(t, "transpose-delta")).EncodeFrame(codedStep(2, 64), NewFramePool())
	if err := NewStreamDecoder().DecodeInto(coded.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viewed, plain) {
		t.Fatal("a coded decode wrote through a view into the frame it viewed")
	}
	if got, want := out.FindVar("array/u").F64[5], codedStep(2, 64).Vars[0].F64[5]; got != want {
		t.Fatalf("decoded u[5] = %v, want %v", got, want)
	}
}
