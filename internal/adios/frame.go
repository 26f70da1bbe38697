package adios

import (
	"encoding/binary"
	"fmt"
	"math"

	"nekrs-sensei/internal/codec"
)

// This file is the one reader of the frame grammar. Every marshaled
// step the package is handed — decoded by UnmarshalInto and
// StreamDecoder.DecodeInto, or scanned for its layout by ScanFrame
// (the hub, the relay's splice, the archive index) — is walked by
// walkFrame, which checks every bound once before a visitor sees a
// byte. A plain frame one entry point accepts, the others accept.
//
// Layout, little-endian; str is a u64 length and that many bytes, and
// a dash marks a field the format does not carry:
//
//	field          BP05 (plain)        BPC5 (codec-encoded)
//	magic          "BP05"              "BPC5"
//	step           u64                 u64
//	time           f64                 f64
//	base+1         -                   u64, 0 = keyframe
//	attrs          u64 n, n × (key str, value str)
//	nvars          u64                 u64
//	per variable:
//	  name         str                 str
//	  kind         u8                  u8
//	  codec        -                   u8, 0 = verbatim
//	  param        -                   f64, the quantizer's bound
//	  shape        u64 rank, rank × u64
//	  elems        u64                 u64
//	  payload len  -                   u64
//	  payload      elems × width       payload len bytes
//
// A verbatim payload is elems × width bytes in both formats (width 8
// for float64 and int64, 1 for uint8); a coded one is whatever its
// codec emitted, and only the StreamDecoder can check it.

// frameHead is what walkFrame reads before the variable records.
type frameHead struct {
	encoded  bool // BPC5
	step     int64
	time     float64
	baseWord uint64 // BPC5 base step + 1; 0 for a keyframe and in BP05
	nattr    int
	attrs    []byte // the nattr key/value pairs, already bounds-checked
	varsOff  int    // offset of the var-count word
	nvars    int
}

// nextAttr splits the first key/value pair off a suffix of a walked
// frameHead.attrs.
func nextAttr(pairs []byte) (k, v, rest []byte) {
	n := binary.LittleEndian.Uint64(pairs)
	k, pairs = pairs[8:8+n], pairs[8+n:]
	n = binary.LittleEndian.Uint64(pairs)
	return k, pairs[8 : 8+n], pairs[8+n:]
}

// varRecord is one walked variable record. Its byte slices alias the
// frame.
type varRecord struct {
	off        int // the record starts at raw[off] and ends with payload
	name       []byte
	kind       Kind
	codec      codec.ID // BPC5 only; Identity is a verbatim payload
	param      float64
	shapeOff   int // the shape is rank u64 words at raw[shapeOff:]
	rank       int
	elems      uint64
	payloadOff int
	payload    []byte
}

// width is the wire size of one element of a verbatim payload, 0 for
// an unknown kind.
func (k Kind) width() uint64 {
	switch k {
	case KindFloat64, KindInt64:
		return 8
	case KindUint8:
		return 1
	}
	return 0
}

// walker reads raw front to back. A short read sticks: every later
// read returns zero bytes without moving pos, so the walk checks err
// once per field group rather than once per word.
type walker struct {
	raw   []byte
	pos   int
	short bool
}

func (w *walker) left() uint64 { return uint64(len(w.raw) - w.pos) }

// take returns the next n bytes in place, or nil once the walk ran
// short. n is compared with the bytes left before any conversion to
// int, so a hostile length cannot overflow into a huge or negative
// slice.
func (w *walker) take(n uint64) []byte {
	if w.short || n > w.left() {
		w.short = true
		return nil
	}
	w.pos += int(n)
	return w.raw[w.pos-int(n) : w.pos]
}

func (w *walker) u64() uint64 {
	if b := w.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (w *walker) u8() uint8 {
	if b := w.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (w *walker) err() error {
	if w.short {
		return fmt.Errorf("adios: truncated at %d", w.pos)
	}
	return nil
}

// walkFrame reads raw against the grammar above. visitHead gets the
// header once the attributes and the variable count are validated,
// then visitVar each variable record in order; the walk stops at the
// first error, its own or a visitor's. A frame it accepts is exactly
// its records: no trailing bytes.
func walkFrame(raw []byte, visitHead func(frameHead) error, visitVar func(int, varRecord) error) error {
	var h frameHead
	h.encoded = IsEncodedFrame(raw)
	if !h.encoded && (len(raw) < 4 || string(raw[:4]) != bpMagic) {
		return fmt.Errorf("adios: bad magic")
	}
	w := walker{raw: raw, pos: 4}
	h.step = int64(w.u64())
	h.time = math.Float64frombits(w.u64())
	if h.encoded {
		h.baseWord = w.u64()
	}
	nattr := w.u64()
	if !w.short && nattr > w.left()/16 { // each attr needs two length words
		return fmt.Errorf("adios: attr count %d exceeds frame", nattr)
	}
	attrsOff := w.pos
	for i := uint64(0); i < nattr && !w.short; i++ {
		w.take(w.u64())
		w.take(w.u64())
	}
	h.attrs, h.nattr, h.varsOff = raw[attrsOff:w.pos], int(nattr), w.pos
	nvars := w.u64()
	minRecord := uint64(8 + 1 + 8 + 8) // name length, kind, rank, elems
	if h.encoded {
		minRecord += 1 + 8 + 8 // codec, param, payload length
	}
	if w.short {
		return w.err()
	}
	if nvars > w.left()/minRecord {
		return fmt.Errorf("adios: var count %d exceeds frame", nvars)
	}
	h.nvars = int(nvars)
	if err := visitHead(h); err != nil {
		return err
	}
	for i := 0; i < h.nvars; i++ {
		r := varRecord{off: w.pos}
		r.name = w.take(w.u64())
		r.kind = Kind(w.u8())
		if h.encoded {
			r.codec = codec.ID(w.u8())
			r.param = math.Float64frombits(w.u64())
		}
		rank := w.u64()
		if !w.short && rank > w.left()/8 {
			return fmt.Errorf("adios: shape rank %d exceeds frame", rank)
		}
		r.shapeOff, r.rank = w.pos, int(rank)
		w.take(8 * rank)
		r.elems = w.u64()
		var size uint64 // BP05 derives it from elems below
		if h.encoded {
			size = w.u64()
		}
		if w.short {
			return w.err()
		}
		width := r.kind.width()
		switch {
		case width == 0:
			return fmt.Errorf("adios: unknown kind %d", r.kind)
		case !h.encoded:
			if r.elems > w.left()/width {
				return fmt.Errorf("adios: truncated payload for %q", r.name)
			}
			size = r.elems * width
		case size > w.left():
			return fmt.Errorf("adios: truncated payload for %q", r.name)
		case r.codec == codec.Identity && (size%width != 0 || size/width != r.elems):
			return fmt.Errorf("adios: plain payload for %q is %d bytes, want %d elements", r.name, size, r.elems)
		}
		r.payloadOff = w.pos
		r.payload = w.take(size)
		if err := visitVar(i, r); err != nil {
			return err
		}
	}
	if w.pos != len(raw) {
		return fmt.Errorf("adios: %d trailing bytes after frame", len(raw)-w.pos)
	}
	return nil
}

// dim returns dimension d of the variable's shape; raw is the frame
// ScanFrame read vs from.
func (vs *VarSpan) dim(raw []byte, d int) uint64 {
	return binary.LittleEndian.Uint64(raw[vs.shapeOff+8*int64(d):])
}
