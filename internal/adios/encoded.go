package adios

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"

	"nekrs-sensei/internal/codec"
	"nekrs-sensei/internal/lebytes"
)

// This file is the encoded sibling of bp.go: the BPC6 frame format
// that carries per-variable codec output (internal/codec) instead of
// raw payloads, and the stream encoder/decoder pair that reuses its
// scratch across a stream's steps. Every BPC6 frame decodes alone.
//
// The frame layout is drawn beside BP06's in frame.go, whose walk
// reads both. The base word, where the retired temporal-delta named
// the step it differenced against, is always 0 (frame.go refuses any
// other). Only float64 variables under the "array/" prefix are ever
// coded; everything else — and any array whose negotiated choice is
// identity — ships its payload verbatim with codec byte 0, and the
// quantizer's param field carries the error bound the decoder
// reconstructs with. Uncoded BP06 frames remain
// valid on any connection (the spill tier and structure steps use
// this), so both formats are distinguished by magic and a
// StreamDecoder accepts either; a plain UnmarshalInto rejects BPC6
// with a telling error.
const bpcMagic = "BPC6"

// IsEncodedFrame reports whether raw is a BPC6 (codec-encoded) frame.
func IsEncodedFrame(raw []byte) bool {
	return len(raw) >= 4 && string(raw[:4]) == bpcMagic
}

// arrayPrefix marks the wire names codecs apply to (the solver arrays
// published by the staging adaptor; structure and metadata variables
// always travel verbatim).
const arrayPrefix = "array/"

// codecEligible reports whether a variable's payload may be coded.
func codecEligible(v *Variable) bool {
	return v.Kind == KindFloat64 && strings.HasPrefix(v.Name, arrayPrefix)
}

// StreamEncoder encodes the steps of one logical stream as BPC6
// frames under a negotiated codec.Spec, reusing its scratch from step
// to step. Not safe for concurrent use; the staging hub serializes
// encodes with a per-stream mutex.
type StreamEncoder struct {
	spec codec.Spec
	sc   codec.Scratch

	enc [][]byte // per-variable encoded payload scratch, reused

	// Accounting for telemetry: totals since construction. Atomic so
	// stats readers can poll while the owning goroutine encodes.
	rawBytes, encBytes atomic.Int64
}

// NewStreamEncoder returns an encoder for one negotiated spec.
func NewStreamEncoder(spec codec.Spec) *StreamEncoder {
	return &StreamEncoder{spec: spec}
}

// Ratio reports encoded/raw payload bytes over the encoder's
// lifetime (1 until something was encoded).
func (e *StreamEncoder) Ratio() float64 {
	raw := e.rawBytes.Load()
	if raw == 0 {
		return 1
	}
	return float64(e.encBytes.Load()) / float64(raw)
}

// BytesRaw reports cumulative codec-eligible payload bytes seen.
func (e *StreamEncoder) BytesRaw() int64 { return e.rawBytes.Load() }

// BytesEncoded reports the cumulative encoded bytes those payloads
// shipped as.
func (e *StreamEncoder) BytesEncoded() int64 { return e.encBytes.Load() }

// choiceFor resolves the negotiated choice for a variable.
func (e *StreamEncoder) choiceFor(v *Variable) codec.Choice {
	return e.spec.For(strings.TrimPrefix(v.Name, arrayPrefix))
}

// encodeVars fills e.enc with each eligible variable's coded payload.
// Ineligible or identity variables get a nil entry and ship verbatim.
func (e *StreamEncoder) encodeVars(s *Step) {
	if cap(e.enc) < len(s.Vars) {
		e.enc = make([][]byte, len(s.Vars))
	}
	e.enc = e.enc[:len(s.Vars)]
	var raw, coded int64 // one telemetry update per frame, not two per variable
	for i := range s.Vars {
		v := &s.Vars[i]
		if !codecEligible(v) {
			e.enc[i] = nil
			continue
		}
		ch := e.choiceFor(v)
		// Reuse the slot's previous capacity: a steady stream of
		// same-shaped steps encodes without allocating.
		buf := e.enc[i]
		switch ch.ID {
		case codec.Identity:
			e.enc[i] = nil
			continue
		case codec.TransposeDelta:
			buf = codec.AppendTransposeDelta(buf[:0], v.F64, &e.sc)
		case codec.Quantize:
			buf = codec.AppendQuantize(buf[:0], v.F64, ch.Bound, &e.sc)
		}
		e.enc[i] = buf
		raw += v.Bytes()
		coded += int64(len(buf))
	}
	e.rawBytes.Add(raw)
	e.encBytes.Add(coded)
}

// writeFrame writes s into dst, which must be exactly frameSize bytes:
// as a BP06 frame on a nil encoder (MarshalInto), else as a BPC6 frame
// whose coded payloads come from e.enc. Pads are written as zeros,
// whatever dst held. Returns the bytes written.
func (e *StreamEncoder) writeFrame(s *Step, dst []byte) int {
	coded := e != nil
	magic := bpMagic
	if coded {
		magic = bpcMagic
	}
	off := copy(dst, magic)
	putU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(dst[off:], v)
		off += 8
	}
	putString := func(str string) {
		putU64(uint64(len(str)))
		off += copy(dst[off:], str)
	}
	putU64(uint64(s.Step))
	putU64(math.Float64bits(s.Time))
	if coded {
		putU64(0) // base word
	}
	putU64(uint64(len(s.Attrs)))
	// Sorted attribute order for deterministic output; the usual
	// handful of keys sorts on the stack.
	var few [8]string
	keys := few[:0]
	for k := range s.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		putString(k)
		putString(s.Attrs[k])
	}
	off = lebytes.Pad(dst, off)
	putU64(uint64(len(s.Vars)))
	for i := range s.Vars {
		v := &s.Vars[i]
		putString(v.Name)
		dst[off] = byte(v.Kind)
		off++
		var ch codec.Choice // Identity: a verbatim payload
		var enc []byte
		if coded {
			if enc = e.enc[i]; enc != nil {
				ch = e.choiceFor(v)
			}
			dst[off] = byte(ch.ID)
			off++
		}
		off = lebytes.Pad(dst, off)
		if coded {
			putU64(math.Float64bits(ch.Bound))
		}
		putU64(uint64(len(v.Shape)))
		for _, d := range v.Shape {
			putU64(uint64(d))
		}
		putU64(uint64(v.Len()))
		if coded && enc != nil {
			putU64(uint64(len(enc)))
		} else if coded {
			putU64(uint64(v.Bytes()))
		}
		switch {
		case enc != nil:
			off += copy(dst[off:], enc)
		case v.Kind == KindFloat64:
			off += lebytes.Put(dst[off:], v.F64)
		case v.Kind == KindInt64:
			off += lebytes.Put(dst[off:], v.I64)
		case v.Kind == KindUint8:
			off += copy(dst[off:], v.U8)
		}
		off = lebytes.Pad(dst, off)
	}
	return off
}

// EncodeFrame marshals s as a BPC6 frame into a frame leased from p.
func (e *StreamEncoder) EncodeFrame(s *Step, p *FramePool) *Frame {
	e.encodeVars(s)
	f := p.Lease(frameSize(s, true, e.enc))
	e.writeFrame(s, f.Bytes())
	return f
}

// StreamDecoder decodes the frames of one connection, accepting both
// BP06 and BPC6 and reusing its scratch from frame to frame. Not safe
// for concurrent use.
type StreamDecoder struct {
	sc codec.Scratch
}

// NewStreamDecoder returns a decoder.
func NewStreamDecoder() *StreamDecoder { return &StreamDecoder{} }

// DecodeInto decodes a wire frame of either format into out, reusing
// out's storage like UnmarshalInto: raw is copied once into out's own
// frame buffer, which out's verbatim payloads then view, so out owns
// what it holds and the caller keeps raw. A nil decoder is
// UnmarshalInto and refuses BPC6.
func (d *StreamDecoder) DecodeInto(raw []byte, out *Step) error {
	out.frame = append(out.frame[:0], raw...)
	return d.decode(out.frame, out, nil)
}

// decode is DecodeInto without the copy: out's verbatim payloads view
// raw (lebytes.View), so out is valid exactly as long as raw's bytes
// are. A non-nil arrays keeps only the variables KeepVar selects.
func (d *StreamDecoder) decode(raw []byte, out *Step, arrays []string) error {
	encoded := IsEncodedFrame(raw)
	if d == nil && encoded {
		return fmt.Errorf("adios: encoded (BPC6) frame needs a StreamDecoder")
	}
	kept := 0
	err := walkFrame(raw, func(h frameHead) error {
		out.Step, out.Time = h.step, h.time
		decodeAttrsInto(&h, out)
		if cap(out.Vars) >= h.nvars {
			out.Vars = out.Vars[:h.nvars]
		} else {
			out.Vars = make([]Variable, h.nvars)
		}
		return nil
	}, func(i int, r varRecord) error {
		vv := &out.Vars[kept]
		if err := d.decodeVar(vv, raw, &r); err != nil {
			return err
		}
		if arrays == nil || KeepVar(vv.Name, arrays) {
			kept++
		}
		return nil
	})
	out.Vars = out.Vars[:kept]
	return err
}

// decodeAttrsInto sets out's attribute map to the frame's attributes,
// reusing it. Fast path: verify — without mutating — that the frame's
// attrs are exactly the map's current contents (the steady state,
// where attrs repeat per step: zero allocations). Any mismatch, a
// stale or missing key, or a duplicate key in a hostile frame falls
// back to a full rebuild, so the decoded map is always exactly the
// frame's attrs (last write wins on duplicates, matching a fresh
// decode).
func decodeAttrsInto(h *frameHead, out *Step) {
	if out.Attrs == nil {
		out.Attrs = make(map[string]string, h.nattr)
	}
	const attrFastPathMax = 16
	match := h.nattr <= attrFastPathMax && len(out.Attrs) == h.nattr
	var seenKeys [attrFastPathMax][]byte
	rest := h.attrs
	for i := 0; match && i < h.nattr; i++ {
		var kb, vb []byte
		kb, vb, rest = nextAttr(rest)
		for j := 0; j < i; j++ {
			if bytes.Equal(seenKeys[j], kb) {
				match = false // duplicate key: counting is unreliable
			}
		}
		seenKeys[i] = kb
		if cur, ok := out.Attrs[string(kb)]; !ok || cur != string(vb) {
			match = false
		}
	}
	if match {
		return
	}
	clear(out.Attrs)
	for rest = h.attrs; len(rest) > 0; {
		var kb, vb []byte
		kb, vb, rest = nextAttr(rest)
		out.Attrs[string(kb)] = string(vb)
	}
}

// decodeVar decodes one walked variable record into vv, reusing its
// name, shape and payload storage.
func (d *StreamDecoder) decodeVar(vv *Variable, raw []byte, r *varRecord) error {
	if vv.Name != string(r.name) {
		vv.Name = string(r.name)
	}
	vv.Kind = r.kind
	if vv.Shape == nil && r.rank > 0 || cap(vv.Shape) < r.rank {
		vv.Shape = make([]int64, r.rank)
	} else {
		vv.Shape = vv.Shape[:r.rank]
	}
	lebytes.Get(vv.Shape, raw[r.shapeOff:])
	if vv.view {
		// The payload views an earlier frame: never write through it.
		vv.F64, vv.I64, vv.U8, vv.view = nil, nil, nil, false
	}
	// Truncate the payload slices the new kind does not use, so a
	// reused Variable that changed kind cannot expose stale data
	// (capacity is kept for a later flip back).
	switch vv.Kind {
	case KindFloat64:
		vv.I64, vv.U8 = vv.I64[:0], vv.U8[:0]
	case KindInt64:
		vv.F64, vv.U8 = vv.F64[:0], vv.U8[:0]
	case KindUint8:
		vv.F64, vv.I64 = vv.F64[:0], vv.I64[:0]
	}
	n, enc := r.elems, r.payload
	if r.codec == codec.Identity { // verbatim: a view of the frame
		switch vv.Kind {
		case KindFloat64:
			vv.F64, vv.view = lebytes.View(vv.F64, enc)
		case KindInt64:
			vv.I64, vv.view = lebytes.View(vv.I64, enc)
		case KindUint8:
			vv.U8, vv.view = enc[:n:n], true
		}
		return nil
	}
	if vv.Kind != KindFloat64 {
		return fmt.Errorf("adios: codec %s on non-float64 variable %q", r.codec.Name(), vv.Name)
	}
	if n > 16*uint64(len(enc)) {
		// Element count is decoupled from the payload length for coded
		// payloads; bound it before allocating. A zero-RLE token yields
		// at most 128 output bytes, so n elements (8n bytes) need at
		// least n/16 encoded bytes — anything sparser is hostile.
		return fmt.Errorf("adios: coded element count %d exceeds payload %d", n, len(enc))
	}
	vv.F64 = resize(vv.F64, n)
	var err error
	switch r.codec {
	case codec.TransposeDelta:
		err = codec.DecodeTransposeDelta(vv.F64, enc, &d.sc)
	case codec.Quantize:
		if !(r.param > 0) || math.IsInf(r.param, 0) {
			return fmt.Errorf("adios: quantized payload %q declares bad bound %v", vv.Name, r.param)
		}
		err = codec.DecodeQuantize(vv.F64, r.param, enc, &d.sc)
	default:
		return fmt.Errorf("adios: unknown codec %d on %q", uint8(r.codec), vv.Name)
	}
	if err != nil {
		return fmt.Errorf("adios: decode %q: %w", vv.Name, err)
	}
	return nil
}

// resize returns s resliced to n elements, reallocated when its
// capacity falls short. A nil s is always allocated, so an empty
// decoded payload is an empty slice, never nil.
func resize[T any](s []T, n uint64) []T {
	if s == nil || cap(s) < int(n) {
		return make([]T, n)
	}
	return s[:n]
}
