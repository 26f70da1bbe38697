package adios

import (
	"encoding/binary"
	"fmt"
	"testing"
)

// TestEntryPointsAgreeOnHostileFrames feeds every reader of the frame
// grammar the same hostile frames: Unmarshal, UnmarshalInto into
// recycled storage, a StreamDecoder and ScanFrame must give one
// accept/reject answer per frame. The plain decoders refuse BPC5 by
// design, so on a BPC5 row they must refuse while the other two give
// the row's answer.
func TestEntryPointsAgreeOnHostileFrames(t *testing.T) {
	plain := Marshal(sampleStep())
	fi, err := ScanFrame(plain)
	if err != nil {
		t.Fatal(err)
	}
	v0 := fi.Vars[0]
	kindOff := v0.RecordOff + 8 + int64(len(v0.Name))
	enc := NewStreamEncoder(mustSpec(t, "transpose-delta"))
	coded, _ := enc.EncodeFrame(codedStep(1, 50), NewFramePool())
	bpc := coded.Bytes()
	cfi, err := ScanFrame(bpc)
	if err != nil {
		t.Fatal(err)
	}
	meta := cfi.FindVar("meta/residual") // verbatim: codec byte 0
	if meta == nil || meta.Codec != 0 {
		t.Fatalf("coded frame lacks a verbatim meta/residual: %+v", cfi.Vars)
	}

	// with returns a copy of raw with the byte or word at off replaced.
	with := func(raw []byte, off int64, word uint64, width int) []byte {
		b := append([]byte(nil), raw...)
		if width == 1 {
			b[off] = byte(word)
		} else {
			binary.LittleEndian.PutUint64(b[off:], word)
		}
		return b
	}
	rows := []struct {
		name string
		raw  []byte
		ok   bool
	}{
		{"plain", plain, true},
		{"trailing byte", append(plain[:len(plain):len(plain)], 0xAB), false},
		{"unknown kind", with(plain, kindOff, 7, 1), false},
		{"attr count past frame", with(plain, 20, 1<<60, 8), false},
		{"var count past frame", with(plain, fi.VarsOff, 1<<60, 8), false},
		{"shape rank past frame", with(plain, kindOff+1, 1<<60, 8), false},
		{"element count past frame", with(plain, v0.PayloadOff-8, 1<<60, 8), false},
		{"BPC5 keyframe", bpc, true},
		{"BPC5 trailing byte", append(bpc[:len(bpc):len(bpc)], 0xAB), false},
		{"BPC5 payload length past frame", with(bpc, meta.PayloadOff-8, 1<<60, 8), false},
		{"BPC5 verbatim payload short of its elements", with(bpc, meta.PayloadOff-16, 2, 8), false},
	}
	for _, raw := range [][]byte{plain, bpc} {
		for cut := 0; cut < len(raw); cut++ {
			rows = append(rows, struct {
				name string
				raw  []byte
				ok   bool
			}{fmt.Sprintf("%s cut at %d of %d", raw[:4], cut, len(raw)), raw[:cut], false})
		}
	}

	verdict := func(err error) string {
		if err != nil {
			return "reject (" + err.Error() + ")"
		}
		return "accept"
	}
	for _, row := range rows {
		encoded := IsEncodedFrame(row.raw)
		recycled := &Step{}
		if err := UnmarshalInto(Marshal(codedStep(9, 64)), recycled); err != nil {
			t.Fatal(err)
		}
		_, unmarshalErr := Unmarshal(row.raw)
		_, scanErr := ScanFrame(row.raw)
		for _, got := range []struct {
			entry string
			err   error
			want  bool
		}{
			{"Unmarshal", unmarshalErr, row.ok && !encoded},
			{"UnmarshalInto", UnmarshalInto(row.raw, recycled), row.ok && !encoded},
			{"StreamDecoder.DecodeInto", NewStreamDecoder(false).DecodeInto(row.raw, &Step{}), row.ok},
			{"ScanFrame", scanErr, row.ok},
		} {
			if (got.err == nil) != got.want {
				t.Errorf("%s: %s gives %s, want accept=%v", row.name, got.entry, verdict(got.err), got.want)
			}
		}
	}
}
