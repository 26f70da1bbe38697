package adios

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestFramePoolRecycles(t *testing.T) {
	p := NewFramePool()
	f := p.Lease(100)
	if len(f.Bytes()) != 100 {
		t.Fatalf("leased %d bytes, want 100", len(f.Bytes()))
	}
	first := &f.Bytes()[0]
	f.Release()
	g := p.Lease(90) // same size class (128)
	if &g.Bytes()[0] != first {
		t.Error("released buffer was not recycled by the next same-class lease")
	}
	if len(g.Bytes()) != 90 {
		t.Errorf("recycled lease has %d bytes, want 90", len(g.Bytes()))
	}
}

func TestFrameNotRecycledWhileRetained(t *testing.T) {
	p := NewFramePool()
	f := p.Lease(64)
	first := &f.Bytes()[0]
	f.Retain() // a second holder
	f.Release()
	if g := p.Lease(64); &g.Bytes()[0] == first {
		t.Fatal("buffer recycled while a reference was still held")
	}
	f.Release() // last holder
	if g := p.Lease(64); &g.Bytes()[0] != first {
		t.Error("buffer not recycled after the last release")
	}
}

func TestFrameDoubleReleaseSafe(t *testing.T) {
	p := NewFramePool()
	f := p.Lease(64)
	f.Release()
	f.Release() // must not re-pool the same buffer twice
	a := p.Lease(64)
	b := p.Lease(64)
	if &a.Bytes()[0] == &b.Bytes()[0] {
		t.Error("double release handed the same buffer to two leases")
	}
}

func TestFramePoolOversized(t *testing.T) {
	p := NewFramePool()
	f := p.Lease(3) // class smaller than any payload
	if len(f.Bytes()) != 3 {
		t.Fatalf("got %d bytes, want 3", len(f.Bytes()))
	}
	f.Release()
	f.Release()
}

func TestMarshalIntoMatchesMarshal(t *testing.T) {
	s := sampleStep()
	want := Marshal(s)
	if got := MarshaledSize(s); got != len(want) {
		t.Fatalf("MarshaledSize = %d, Marshal emitted %d", got, len(want))
	}
	dst := make([]byte, MarshaledSize(s))
	if n := MarshalInto(s, dst); n != len(dst) {
		t.Fatalf("MarshalInto wrote %d of %d bytes", n, len(dst))
	}
	if !bytes.Equal(dst, want) {
		t.Error("MarshalInto output differs from Marshal")
	}
	p := NewFramePool()
	f := MarshalFrame(s, p)
	defer f.Release()
	if !bytes.Equal(f.Bytes(), want) {
		t.Error("MarshalFrame output differs from Marshal")
	}
}

// TestMarshalLargeArrays round-trips arrays past 32 Ki elements, the
// size one pb146 rank array has.
func TestMarshalLargeArrays(t *testing.T) {
	n := 1<<15 + 1234
	big := make([]float64, n)
	conn := make([]int64, n)
	for i := range big {
		big[i] = float64(i) * 0.5
		conn[i] = int64(i) - 17
	}
	s := &Step{
		Step: 3, Time: 0.5,
		Attrs: map[string]string{"mesh": "mesh"},
		Vars: []Variable{
			NewF64("array/big", big, int64(n)),
			NewI64("connectivity", conn),
		},
	}
	frame := Marshal(s)
	got, err := Unmarshal(frame)
	if err != nil {
		t.Fatal(err)
	}
	for i := range big {
		if got.Vars[0].F64[i] != big[i] {
			t.Fatalf("f64[%d] = %v, want %v", i, got.Vars[0].F64[i], big[i])
		}
		if got.Vars[1].I64[i] != conn[i] {
			t.Fatalf("i64[%d] = %v, want %v", i, got.Vars[1].I64[i], conn[i])
		}
	}
}

// randomStep builds a random step for the decode-into-reuse fuzzing.
func randomStep(rng *rand.Rand) *Step {
	s := &Step{
		Step: rng.Int63n(1e6), Time: rng.Float64(),
		Attrs: map[string]string{},
	}
	for i := 0; i < rng.Intn(4); i++ {
		s.Attrs[string(rune('a'+i))] = string(rune('A' + rng.Intn(26)))
	}
	nv := rng.Intn(6)
	for i := 0; i < nv; i++ {
		name := string(rune('p' + i))
		switch rng.Intn(3) {
		case 0:
			data := make([]float64, rng.Intn(64))
			for j := range data {
				data[j] = rng.NormFloat64()
			}
			s.Vars = append(s.Vars, NewF64(name, data, int64(len(data))))
		case 1:
			data := make([]int64, rng.Intn(64))
			for j := range data {
				data[j] = rng.Int63() - (1 << 62)
			}
			s.Vars = append(s.Vars, NewI64(name, data))
		case 2:
			data := make([]byte, rng.Intn(64))
			rng.Read(data)
			s.Vars = append(s.Vars, NewU8(name, data))
		}
	}
	return s
}

// TestUnmarshalIntoReuseEquivalence fuzzes decode-into-reuse: decoding
// step B into storage recycled from step A must produce exactly what a
// fresh Unmarshal of B produces — asserted by re-marshaling both and
// comparing the canonical wire bytes.
func TestUnmarshalIntoReuseEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	reused := &Step{}
	for iter := 0; iter < 200; iter++ {
		s := randomStep(rng)
		frame := Marshal(s)
		if err := UnmarshalInto(frame, reused); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if got := Marshal(reused); !bytes.Equal(got, frame) {
			t.Fatalf("iter %d: decode-into-reuse drifted from the wire form", iter)
		}
		fresh, err := Unmarshal(frame)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if !bytes.Equal(Marshal(fresh), Marshal(reused)) {
			t.Fatalf("iter %d: reused decode differs from fresh decode", iter)
		}
	}
}

// FuzzUnmarshalInto drives the decoder with arbitrary bytes: fresh
// decode and decode-into-recycled-storage must agree on both the error
// and, on success, the canonical re-marshaled form.
func FuzzUnmarshalInto(f *testing.F) {
	f.Add(Marshal(sampleStep()))
	f.Add([]byte("BP06"))
	f.Add([]byte{})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 4; i++ {
		f.Add(Marshal(randomStep(rng)))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		fresh, freshErr := Unmarshal(raw)
		reused := &Step{}
		// Pre-dirty the reuse destination with unrelated contents.
		if err := UnmarshalInto(Marshal(sampleStep()), reused); err != nil {
			t.Fatal(err)
		}
		intoErr := UnmarshalInto(raw, reused)
		if (freshErr == nil) != (intoErr == nil) {
			t.Fatalf("fresh err=%v, into err=%v", freshErr, intoErr)
		}
		if freshErr == nil {
			if !bytes.Equal(Marshal(fresh), Marshal(reused)) {
				t.Fatal("fresh and reused decodes disagree")
			}
		}
	})
}

func TestReaderRecycleRefusesStructure(t *testing.T) {
	structure := &Step{Attrs: map[string]string{"structure": "1"}}
	if ReuseStep(structure) != nil {
		t.Error("structure step offered for reuse")
	}
	if ReuseStep(nil) != nil {
		t.Error("nil step offered for reuse")
	}
	plain := &Step{Attrs: map[string]string{"mesh": "mesh"}}
	if ReuseStep(plain) != plain {
		t.Error("plain step refused for reuse")
	}
}

// TestUnmarshalIntoDuplicateAttrKeys: a hostile frame carrying the
// same attribute key twice must not defeat the reuse fast path — the
// decoded map must be exactly the frame's attrs (last write wins),
// with no leak of the recycled step's previous attributes.
func TestUnmarshalIntoDuplicateAttrKeys(t *testing.T) {
	src := &Step{Step: 1, Attrs: map[string]string{"dupA": "1", "dupB": "2"}}
	frame := Marshal(src)
	// Rewrite the second key ("dupB", same length) to "dupA".
	patched := bytes.Replace(frame, []byte("dupB"), []byte("dupA"), 1)
	if bytes.Equal(patched, frame) {
		t.Fatal("patch did not apply")
	}
	fresh, err := Unmarshal(patched)
	if err != nil {
		t.Fatal(err)
	}
	// Reused destination whose attr count matches the frame's, with one
	// entry the frame lacks — the leak candidate.
	reused := &Step{Attrs: map[string]string{"dupA": "1", "zz": "stale"}}
	if err := UnmarshalInto(patched, reused); err != nil {
		t.Fatal(err)
	}
	if len(reused.Attrs) != len(fresh.Attrs) {
		t.Fatalf("reused decode has %d attrs (%v), fresh has %d (%v)",
			len(reused.Attrs), reused.Attrs, len(fresh.Attrs), fresh.Attrs)
	}
	if _, ok := reused.Attrs["zz"]; ok {
		t.Error("previous step's attribute leaked through a duplicate-key frame")
	}
	if reused.Attrs["dupA"] != fresh.Attrs["dupA"] {
		t.Errorf("dupA = %q, want %q", reused.Attrs["dupA"], fresh.Attrs["dupA"])
	}
}

// TestUnmarshalIntoDroppedAttr: a reused step whose previous decode
// had more attributes than the new frame must shed the extras.
func TestUnmarshalIntoDroppedAttr(t *testing.T) {
	reused := &Step{}
	if err := UnmarshalInto(Marshal(&Step{Attrs: map[string]string{"a": "1", "b": "2"}}), reused); err != nil {
		t.Fatal(err)
	}
	if err := UnmarshalInto(Marshal(&Step{Attrs: map[string]string{"a": "1"}}), reused); err != nil {
		t.Fatal(err)
	}
	if len(reused.Attrs) != 1 || reused.Attrs["a"] != "1" {
		t.Errorf("stale attrs survived: %v", reused.Attrs)
	}
}
