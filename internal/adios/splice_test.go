package adios

import (
	"bytes"
	"testing"
)

// blockStep builds rank r's block of a synthetic P-rank step: each
// rank carries its slice of the global arrays.
func blockStep(seq, rank, perRank int) *Step {
	press := make([]float64, perRank)
	vel := make([]float64, perRank)
	ids := make([]int64, perRank)
	for i := range press {
		g := rank*perRank + i
		press[i] = float64(seq*1000 + g)
		vel[i] = float64(g) * 0.5
		ids[i] = int64(g)
	}
	return &Step{
		Step: int64(seq), Time: float64(seq) * 0.1,
		Attrs: map[string]string{"mesh": "mesh"},
		Vars: []Variable{
			NewF64("array/pressure", press),
			NewF64("array/velocity", vel),
			NewI64("array/ids", ids),
		},
	}
}

// mergedBlockStep is what the P blocks would look like marshaled as
// one rank.
func mergedBlockStep(seq, ranks, perRank int) *Step {
	out := blockStep(seq, 0, perRank)
	for r := 1; r < ranks; r++ {
		b := blockStep(seq, r, perRank)
		for i := range out.Vars {
			out.Vars[i].F64 = append(out.Vars[i].F64, b.Vars[i].F64...)
			out.Vars[i].I64 = append(out.Vars[i].I64, b.Vars[i].I64...)
		}
	}
	return out
}

func TestSpliceFramesMatchesMergedMarshal(t *testing.T) {
	const ranks, perRank = 4, 17
	pool := NewFramePool()
	frames := make([][]byte, ranks)
	for r := 0; r < ranks; r++ {
		frames[r] = Marshal(blockStep(7, r, perRank))
	}
	f, err := SpliceFrames(frames, pool)
	if err != nil {
		t.Fatalf("SpliceFrames: %v", err)
	}
	defer f.Release()
	want := Marshal(mergedBlockStep(7, ranks, perRank))
	if !bytes.Equal(f.Bytes(), want) {
		t.Fatalf("spliced frame differs from merged marshal: %d vs %d bytes", len(f.Bytes()), len(want))
	}
}

func TestSpliceFramesShapedFirstDim(t *testing.T) {
	pool := NewFramePool()
	a := &Step{Step: 1, Attrs: map[string]string{},
		Vars: []Variable{NewF64("array/x", []float64{1, 2, 3, 4, 5, 6}, 2, 3)}}
	b := &Step{Step: 1, Attrs: map[string]string{},
		Vars: []Variable{NewF64("array/x", []float64{7, 8, 9}, 1, 3)}}
	f, err := SpliceFrames([][]byte{Marshal(a), Marshal(b)}, pool)
	if err != nil {
		t.Fatalf("SpliceFrames: %v", err)
	}
	defer f.Release()
	out, err := Unmarshal(f.Bytes())
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	v := out.FindVar("array/x")
	if v == nil || len(v.Shape) != 2 || v.Shape[0] != 3 || v.Shape[1] != 3 {
		t.Fatalf("merged shape = %v, want [3 3]", v.Shape)
	}
	if len(v.F64) != 9 || v.F64[6] != 7 {
		t.Fatalf("merged payload = %v", v.F64)
	}
}

func TestSpliceFramesSingleInputIsVerbatim(t *testing.T) {
	pool := NewFramePool()
	raw := Marshal(blockStep(3, 0, 5))
	f, err := SpliceFrames([][]byte{raw}, pool)
	if err != nil {
		t.Fatalf("SpliceFrames: %v", err)
	}
	defer f.Release()
	if !bytes.Equal(f.Bytes(), raw) {
		t.Fatal("single-input splice should reproduce the frame byte for byte")
	}
}

func TestSpliceFramesRefusals(t *testing.T) {
	pool := NewFramePool()
	if _, err := SpliceFrames(nil, pool); err == nil {
		t.Fatal("want error for empty input")
	}
	a := Marshal(blockStep(1, 0, 4))
	flagged := blockStep(1, 1, 4)
	flagged.Attrs["structure"] = "1"
	if _, err := SpliceFrames([][]byte{a, Marshal(flagged)}, pool); err == nil {
		t.Fatal("want error for a structure flag that differs across inputs")
	}
	b := Marshal(blockStep(2, 1, 4))
	if _, err := SpliceFrames([][]byte{a, b}, pool); err == nil {
		t.Fatal("want error for step mismatch")
	}
	c := &Step{Step: 1, Attrs: map[string]string{},
		Vars: []Variable{NewF64("array/other", []float64{1})}}
	if _, err := SpliceFrames([][]byte{a, Marshal(c)}, pool); err == nil {
		t.Fatal("want error for var mismatch")
	}
}

// structureBlock is rank r's block of a structure step: one hex cell
// shifted along x, plus one point array.
func structureBlock(r int) *Step {
	x := float64(r)
	return &Step{
		Step: 0, Time: 0,
		Attrs: map[string]string{"mesh": "mesh", "structure": "1"},
		Vars: []Variable{
			NewF64("points", []float64{
				x, 0, 0, x + 1, 0, 0, x + 1, 1, 0, x, 1, 0,
				x, 0, 1, x + 1, 0, 1, x + 1, 1, 1, x, 1, 1,
			}, 8, 3),
			NewI64("connectivity", []int64{0, 1, 2, 3, 4, 5, 6, 7}),
			NewI64("offsets", []int64{8}),
			NewU8("types", []byte{12}),
			NewF64("array/temperature", []float64{0, 1, 2, 3, 4, 5, 6, float64(r)}),
		},
	}
}

// TestSpliceFramesRebasesStructure: structure frames splice into the
// bytes of the decoded merge, connectivity and offsets rebased.
func TestSpliceFramesRebasesStructure(t *testing.T) {
	pool := NewFramePool()
	const ranks = 3
	frames := make([][]byte, ranks)
	parts := make([]*Step, ranks)
	for r := range parts {
		parts[r] = structureBlock(r)
		frames[r] = Marshal(parts[r])
	}
	f, err := SpliceFrames(frames, pool)
	if err != nil {
		t.Fatalf("SpliceFrames: %v", err)
	}
	defer f.Release()
	merged, err := MergeSteps(parts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.Bytes(), Marshal(merged)) {
		t.Fatal("spliced structure frame differs from the marshaled MergeSteps")
	}
	out, err := Unmarshal(f.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if c := out.FindVar("connectivity").I64; c[8] != 8 || c[23] != 23 {
		t.Fatalf("connectivity not rebased: %v", c)
	}
	if o := out.FindVar("offsets").I64; len(o) != 3 || o[2] != 24 {
		t.Fatalf("offsets not rebased: %v", o)
	}
}

// FuzzSpliceFrames splices a well-formed rank frame with whatever a
// second upstream could send, in both orders. The relay publishes the
// result as bytes, so it must be an error or a frame that scans and
// decodes — never a panic, never a read outside an input.
func FuzzSpliceFrames(f *testing.F) {
	good := Marshal(blockStep(7, 0, 5))
	peer := Marshal(blockStep(7, 1, 5))
	f.Add(peer)
	f.Add(good)
	f.Add(peer[:len(peer)-3])
	f.Add(Marshal(blockStep(8, 1, 5))) // another step
	f.Add(Marshal(blockStep(7, 1, 0))) // empty block
	f.Add(Marshal(sampleStep()))       // other variables
	f.Add([]byte("BP06"))
	f.Add([]byte{})
	shaped := blockStep(7, 1, 6)
	shaped.Vars[0].Shape = []int64{2, 3}
	f.Add(Marshal(shaped))
	f.Add(Marshal(structureBlock(1))) // a grid, spliced alone

	pool := NewFramePool()
	f.Fuzz(func(t *testing.T, raw []byte) {
		for _, frames := range [][][]byte{{good, raw}, {raw, good}, {raw}} {
			out, err := SpliceFrames(frames, pool)
			if err != nil {
				continue
			}
			var st Step
			sfi, serr := ScanFrame(out.Bytes())
			if serr != nil {
				t.Fatalf("spliced frame does not scan: %v", serr)
			}
			for _, vs := range sfi.Vars {
				if vs.RecordOff%8 != 0 || vs.RecordLen%8 != 0 || vs.PayloadOff%8 != 0 {
					t.Fatalf("spliced record %q is off the word grid: %+v", vs.Name, vs)
				}
			}
			if derr := UnmarshalInto(out.Bytes(), &st); derr != nil {
				t.Fatalf("spliced frame does not decode: %v", derr)
			}
			var in, got int64
			for _, fr := range frames {
				part, perr := Unmarshal(fr)
				if perr != nil {
					t.Fatalf("splice accepted an input that does not decode: %v", perr)
				}
				in += part.Bytes()
			}
			if got = st.Bytes(); got != in {
				t.Fatalf("spliced payload is %d bytes, inputs carry %d", got, in)
			}
			out.Release()
		}
	})
}
