package adios

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

func scanStep() *Step {
	return &Step{
		Step:  7,
		Time:  1.75,
		Attrs: map[string]string{"mesh": "mesh", "structure": "1"},
		Vars: []Variable{
			NewF64("points", []float64{0, 1, 2, 3, 4, 5}, 2, 3),
			NewI64("connectivity", []int64{0, 1}),
			NewU8("types", []byte{10, 10}),
			NewF64("array/pressure", []float64{9, 8, 7}),
		},
	}
}

// TestScanFrameLayout cross-checks every span ScanFrame reports
// against the actual marshaled bytes.
func TestScanFrameLayout(t *testing.T) {
	s := scanStep()
	raw := Marshal(s)
	fi, err := ScanFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Step != s.Step || fi.Time != s.Time || !fi.Structure {
		t.Fatalf("header mismatch: %+v", fi)
	}
	if len(fi.Vars) != len(s.Vars) {
		t.Fatalf("scanned %d vars, want %d", len(fi.Vars), len(s.Vars))
	}
	// Var records must tile the frame exactly from VarsOff+8 to the end.
	pos := fi.VarsOff + 8
	for i, vs := range fi.Vars {
		if vs.Name != s.Vars[i].Name || vs.Kind != s.Vars[i].Kind {
			t.Fatalf("var %d: %q/%d, want %q/%d", i, vs.Name, vs.Kind, s.Vars[i].Name, s.Vars[i].Kind)
		}
		if vs.RecordOff != pos {
			t.Fatalf("var %d record offset %d, want %d", i, vs.RecordOff, pos)
		}
		if vs.Elems != int64(s.Vars[i].Len()) || vs.PayloadLen != s.Vars[i].Bytes() {
			t.Fatalf("var %d payload span wrong: %+v", i, vs)
		}
		pos += vs.RecordLen
	}
	if pos != int64(len(raw)) {
		t.Fatalf("var records tile to %d, frame is %d", pos, len(raw))
	}
	// A var record re-marshals to the same bytes as a one-var step.
	one := &Step{Step: s.Step, Time: s.Time, Attrs: s.Attrs, Vars: s.Vars[3:4]}
	oneRaw := Marshal(one)
	vs := fi.Vars[3]
	spliced := append([]byte(nil), raw[:fi.VarsOff]...)
	spliced = append(spliced, oneRaw[fi.VarsOff:fi.VarsOff+8]...) // count word (1)
	spliced = append(spliced, raw[vs.RecordOff:vs.RecordOff+vs.RecordLen]...)
	if !bytes.Equal(spliced, oneRaw) {
		t.Fatal("spliced single-var frame differs from direct marshal")
	}
}

// TestScanFrameTruncated ensures the scan rejects torn frames at any
// cut point instead of over-reading.
func TestScanFrameTruncated(t *testing.T) {
	raw := Marshal(scanStep())
	for cut := 0; cut < len(raw); cut++ {
		if _, err := ScanFrame(raw[:cut]); err == nil {
			t.Fatalf("truncation at %d scanned clean", cut)
		}
	}
	if _, err := ScanFrame(append(raw[:len(raw):len(raw)], 0)); err == nil {
		t.Fatal("trailing byte scanned clean")
	}
}

// FuzzScanFrame feeds the header walk whatever a peer or a disk could
// hold. The hub ships bytes along the spans a clean scan reports, so a
// clean scan must mean: every span lies inside raw, a plain frame
// decodes, and any subset cut along the spans decodes to the step with
// those variables filtered out. Conversely a plain frame that decodes
// must scan clean: the hub, relay and archive refuse what does not.
func FuzzScanFrame(f *testing.F) {
	plain := Marshal(sampleStep())
	f.Add(plain)
	f.Add(Marshal(blockStep(3, 1, 9)))
	f.Add(plain[:len(plain)/2])
	f.Add(append(plain[:len(plain):len(plain)], 0xAB)) // one trailing byte
	f.Add([]byte("BP05"))
	f.Add([]byte{})
	enc := NewStreamEncoder(mustSpec(f, "transpose-delta"))
	coded, _ := enc.EncodeFrame(codedStep(1, 50), NewFramePool())
	f.Add(coded.Bytes())
	fi, err := ScanFrame(plain)
	if err != nil {
		f.Fatal(err)
	}
	huge := append([]byte(nil), plain...) // an element count past the frame
	binary.LittleEndian.PutUint64(huge[fi.Vars[0].PayloadOff-8:], 1<<60)
	f.Add(huge)

	pool := NewFramePool()
	f.Fuzz(func(t *testing.T, raw []byte) {
		fi, err := ScanFrame(raw)
		if err != nil {
			if _, derr := Unmarshal(raw); derr == nil {
				t.Fatalf("frame decodes but does not scan: %v", err)
			}
			return
		}
		n := int64(len(raw))
		if fi.VarsOff < 4 || fi.VarsOff+8 > n {
			t.Fatalf("VarsOff %d outside a %d-byte frame", fi.VarsOff, n)
		}
		for _, vs := range fi.Vars {
			if vs.RecordOff < fi.VarsOff+8 || vs.RecordLen < 0 || vs.RecordOff+vs.RecordLen > n ||
				vs.PayloadOff < vs.RecordOff || vs.PayloadLen < 0 ||
				vs.PayloadOff+vs.PayloadLen != vs.RecordOff+vs.RecordLen {
				t.Fatalf("span of %q leaves the frame or its record: %+v (frame %d bytes)", vs.Name, vs, n)
			}
		}
		if fi.Encoded {
			return // BPC5 payloads are the StreamDecoder's to vet (FuzzStreamDecoder)
		}
		full, err := Unmarshal(raw)
		if err != nil {
			t.Fatalf("frame scanned clean but does not decode: %v", err)
		}
		// Keep every other array: the cut must decode to the filtered
		// step (compared re-marshaled: a hostile header may repeat an
		// attribute key, which a decoded map holds once).
		var keep []string
		for i, vs := range fi.Vars {
			if name, ok := strings.CutPrefix(vs.Name, "array/"); ok && i%2 == 0 {
				keep = append(keep, name)
			}
		}
		cut := SubsetFrame(raw, &fi, keep, pool)
		defer cut.Release()
		sub, err := Unmarshal(cut.Bytes())
		if err != nil {
			t.Fatalf("subset cut does not decode: %v", err)
		}
		want := &Step{Step: full.Step, Time: full.Time, Attrs: full.Attrs}
		for i := range full.Vars {
			if KeepVar(full.Vars[i].Name, keep) {
				want.Vars = append(want.Vars, full.Vars[i])
			}
		}
		if !bytes.Equal(Marshal(sub), Marshal(want)) {
			t.Fatal("subset cut decodes to something other than the filtered step")
		}
	})
}
