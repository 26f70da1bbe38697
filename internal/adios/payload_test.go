package adios_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"sort"
	"testing"

	"nekrs-sensei/internal/adios"
	"nekrs-sensei/internal/adios/adiostest"
	"nekrs-sensei/internal/codec"
)

// marshalReference is the BP06 layout written one element at a time,
// every pad spelled out: the oracle the frame bytes must not move
// from.
func marshalReference(s *adios.Step) []byte {
	out := []byte("BP06")
	u64 := func(v uint64) { out = binary.LittleEndian.AppendUint64(out, v) }
	str := func(s string) { u64(uint64(len(s))); out = append(out, s...) }
	pad := func() {
		for len(out)%8 != 0 {
			out = append(out, 0)
		}
	}
	u64(uint64(s.Step))
	u64(math.Float64bits(s.Time))
	u64(uint64(len(s.Attrs)))
	keys := make([]string, 0, len(s.Attrs))
	for k := range s.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		str(k)
		str(s.Attrs[k])
	}
	pad()
	u64(uint64(len(s.Vars)))
	for i := range s.Vars {
		v := &s.Vars[i]
		str(v.Name)
		out = append(out, byte(v.Kind))
		pad()
		u64(uint64(len(v.Shape)))
		for _, d := range v.Shape {
			u64(uint64(d))
		}
		u64(uint64(v.Len()))
		for _, x := range v.F64 {
			u64(math.Float64bits(x))
		}
		for _, x := range v.I64 {
			u64(uint64(x))
		}
		out = append(out, v.U8...)
		pad()
	}
	return out
}

// mixedStep is a seeded step of every payload kind, with arrays on
// both sides of 32 Ki elements (where the encode used to fan out over
// goroutines) and names that leave the payloads at odd frame offsets.
func mixedStep() *adios.Step {
	rng := rand.New(rand.NewSource(5))
	f := make([]float64, 40000)
	for i := range f {
		f[i] = math.Float64frombits(rng.Uint64()) // NaN payloads must survive
	}
	q := make([]int64, 33000)
	for i := range q {
		q[i] = int64(rng.Uint64())
	}
	u := make([]byte, 1001)
	rng.Read(u)
	return &adios.Step{
		Step: 77, Time: 0.154,
		Attrs: map[string]string{"mesh": "mesh", "case": "pb146", "a": ""},
		Vars: []adios.Variable{
			adios.NewF64("array/pressure", f, 40000),
			adios.NewU8("types", u),
			adios.NewI64("connectivity", q, 33000/8, 8),
			adios.NewF64("points", f[:300], 100, 3),
		},
	}
}

// TestMarshalMatchesReference: frame bytes equal to the per-element
// layout for the seeded step and for recorded pb146 steps, and the
// decode gives the arrays back bit for bit — the first into fresh
// storage, the rest into recycled storage.
func TestMarshalMatchesReference(t *testing.T) {
	steps := []*adios.Step{mixedStep()}
	for _, ranks := range adiostest.PB146Steps(t) {
		steps = append(steps, ranks...)
	}
	var out adios.Step
	for _, s := range steps {
		frame := adios.Marshal(s)
		if !bytes.Equal(frame, marshalReference(s)) {
			t.Fatalf("step %d: Marshal bytes differ from the per-element layout", s.Step)
		}
		if err := adios.UnmarshalInto(frame, &out); err != nil {
			t.Fatalf("step %d: %v", s.Step, err)
		}
		if !bytes.Equal(marshalReference(&out), frame) {
			t.Fatalf("step %d: decoded step does not marshal back to the frame", s.Step)
		}
	}
}

// TestMarshalBytesPinned pins the frame of the seeded step to the
// digest of its BP06 layout, the one marshalReference writes.
func TestMarshalBytesPinned(t *testing.T) {
	const want = "d4be613bab634bfef76a2259701401151ac864e0c53f77c2cd3147163837568a"
	sum := sha256.Sum256(adios.Marshal(mixedStep()))
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("BP06 bytes moved: digest %s, want %s", got, want)
	}
}

func pb146Step(tb testing.TB) *adios.Step { return adiostest.PB146Steps(tb)[1][0] }

// TestWireSteadyStateDoesNotAllocate: after two warm calls a
// same-shaped step marshals, unmarshals and encodes without
// allocating — but for the Frame header the pool wraps every lease in,
// which is what makes a stale Release harmless (pool.go).
func TestWireSteadyStateDoesNotAllocate(t *testing.T) {
	s := pb146Step(t)
	frame := make([]byte, adios.MarshaledSize(s))
	var out adios.Step
	spec, err := codec.ParseSpec([]string{"transpose-delta", "pressure=quantize:1e-6"})
	if err != nil {
		t.Fatal(err)
	}
	enc, pool := adios.NewStreamEncoder(spec), adios.NewFramePool()
	for _, tc := range []struct {
		name string
		want float64
		call func()
	}{
		{"MarshalInto", 0, func() { adios.MarshalInto(s, frame) }},
		{"UnmarshalInto", 0, func() {
			if err := adios.UnmarshalInto(frame, &out); err != nil {
				t.Fatal(err)
			}
		}},
		{"EncodeFrame", 1, func() {
			enc.EncodeFrame(s, pool).Release()
		}},
	} {
		tc.call()
		tc.call()
		if allocs := testing.AllocsPerRun(10, tc.call); allocs != tc.want {
			t.Errorf("%s: %v allocs per steady-state call, want %v", tc.name, allocs, tc.want)
		}
	}
}

func BenchmarkMarshalInto(b *testing.B) {
	s := pb146Step(b)
	frame := make([]byte, adios.MarshaledSize(s))
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adios.MarshalInto(s, frame)
	}
}

func BenchmarkUnmarshalIntoPB146(b *testing.B) {
	frame := adios.Marshal(pb146Step(b))
	var out adios.Step
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := adios.UnmarshalInto(frame, &out); err != nil {
			b.Fatal(err)
		}
	}
}

// pinnedChains are the BPC6 digests TestEncodeFrameBytesPinned checks:
// per spec, the SHA-256 of each rank's EncodeFrame outputs over the
// recorded pb146 steps, concatenated in step order. They were recorded
// when the wire still carried a step-over-step codec; none of these
// specs used it, and their frames did not move when it went.
var pinnedChains = []struct {
	spec  []string
	ranks [2]string
}{
	{[]string{"transpose-delta"}, [2]string{
		"22cbfb5f44c957fe4b00bd132670ef1a967ff4d6f2cc4ded6b41f8856acbd6ea",
		"8691738d1b071480d47a997f5561174d6ee6e9467e538fc5096978a5dcd26726",
	}},
	{[]string{"quantize:1e-6"}, [2]string{
		"bc7e0304877e92f44b5301140c057bedf2aaeb53b28f9ff8b5fcc96b3bd3d90d",
		"3294d5ede530b354fa03973e25040a09902030b48fee732ad3a16d060e77fc78",
	}},
	{[]string{"transpose-delta", "pressure=quantize:1e-3"}, [2]string{
		"3fd2c9e245b75b4b3f93f8e010e761c5888ac16614fbb5656db57f6af6d9c051",
		"edd2dfc3665831a21d0904bfc21739bd397a7ad07cd0b6b5b5e556339953175e",
	}},
}

// TestEncodeFrameBytesPinned is the byte-identity witness of the coded
// wire: one encoder per rank and spec encodes the recorded pb146 steps
// in order, and the digest of its frames must not move.
func TestEncodeFrameBytesPinned(t *testing.T) {
	steps := adiostest.PB146Steps(t)
	pool := adios.NewFramePool()
	for _, pin := range pinnedChains {
		spec, err := codec.ParseSpec(pin.spec)
		if err != nil {
			t.Fatal(err)
		}
		for rank, want := range pin.ranks {
			enc := adios.NewStreamEncoder(spec)
			h := sha256.New()
			for _, ranks := range steps {
				f := enc.EncodeFrame(ranks[rank], pool)
				h.Write(f.Bytes())
				f.Release()
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != want {
				t.Errorf("spec %q rank %d: BPC6 chain digest %s, want %s", pin.spec, rank, got, want)
			}
		}
	}
}
