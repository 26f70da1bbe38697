package adios

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"nekrs-sensei/internal/codec"
)

// TestEntryPointsAgreeOnHostileFrames feeds every reader of the frame
// grammar the same hostile frames: Unmarshal, UnmarshalInto into
// recycled storage, a StreamDecoder and ScanFrame must give one
// accept/reject answer per frame. The plain decoders refuse BPC6 by
// design, so on a BPC6 row they must refuse while the other two give
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
	coded := enc.EncodeFrame(codedStep(1, 50), NewFramePool())
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
	retired := func(raw []byte, magic string) []byte {
		return append([]byte(magic), raw[4:]...)
	}
	// splice replaces raw[from:to] with ins.
	splice := func(raw []byte, from, to int64, ins []byte) []byte {
		return append(append(append([]byte(nil), raw[:from]...), ins...), raw[to:]...)
	}
	last := fi.Vars[len(fi.Vars)-1]
	if last.Kind != KindUint8 || last.PayloadLen%8 == 0 || -(v0.RecordOff+8+int64(len(v0.Name))+1)&7 != 7 {
		t.Fatalf("sample frame lacks the pads the rows below cut: %+v", fi.Vars)
	}
	// The retired temporal-delta codec's two marks: a base step, and
	// its codec byte on a variable.
	based := with(bpc, 20, 1, 8)
	temporal := with(bpc, cfi.FindVar("array/u").RecordOff+8+int64(len("array/u"))+1, 2, 1)
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
		{"retired BP05 magic", retired(plain, "BP05"), false},
		{"nonzero header pad", with(plain, fi.VarsOff-1, 0xAB, 1), false},
		{"nonzero pad after a kind byte", with(plain, kindOff+1, 0xAB, 1), false},
		{"nonzero pad after a byte payload", with(plain, last.PayloadOff+last.PayloadLen, 0xAB, 1), false},
		{"missing pad after a kind byte", splice(plain, kindOff+1, kindOff+8, nil), false},
		{"record not a whole number of words", splice(plain, v0.PayloadOff+v0.PayloadLen, v0.PayloadOff+v0.PayloadLen, []byte{0}), false},
		{"BPC6", bpc, true},
		{"BPC6 base word not 0", based, false},
		{"BPC6 codec byte 2", temporal, false},
		{"retired BPC5 magic", retired(bpc, "BPC5"), false},
		{"BPC6 nonzero pad after the codec byte", with(bpc, meta.RecordOff+8+int64(len(meta.Name))+2, 0xAB, 1), false},
		{"BPC6 trailing byte", append(bpc[:len(bpc):len(bpc)], 0xAB), false},
		{"BPC6 payload length past frame", with(bpc, meta.PayloadOff-8, 1<<60, 8), false},
		{"BPC6 verbatim payload short of its elements", with(bpc, meta.PayloadOff-16, 2, 8), false},
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

	for _, magic := range []string{"BP05", "BPC5"} {
		if _, err := ScanFrame(retired(plain, magic)); !errors.Is(err, ErrRetiredFormat) || !strings.Contains(err.Error(), magic) {
			t.Errorf("a %s frame is refused with %v, want ErrRetiredFormat naming it", magic, err)
		}
	}
	for _, raw := range [][]byte{based, temporal} {
		if _, err := ScanFrame(raw); !errors.Is(err, codec.ErrRetired) || !strings.Contains(err.Error(), "temporal-delta") {
			t.Errorf("a frame of the retired codec is refused with %v, want codec.ErrRetired naming it", err)
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
			{"StreamDecoder.DecodeInto", NewStreamDecoder().DecodeInto(row.raw, &Step{}), row.ok},
			{"ScanFrame", scanErr, row.ok},
		} {
			if (got.err == nil) != got.want {
				t.Errorf("%s: %s gives %s, want accept=%v", row.name, got.entry, verdict(got.err), got.want)
			}
		}
	}
}
