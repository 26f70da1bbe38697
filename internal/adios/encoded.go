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

// This file is the encoded sibling of bp.go: the BPC5 frame format
// that carries per-variable codec output (internal/codec) instead of
// raw payloads, and the stream encoder/decoder pair that owns the
// inter-step state the temporal codec needs.
//
// The frame layout is drawn beside BP05's in frame.go, whose walk
// reads both. The base word records the step number the frame's
// temporal-delta payloads difference against, offset by one so zero
// means "no base" (a keyframe). Only float64 variables under the
// "array/" prefix are ever coded; everything else — and any array
// whose negotiated choice is identity — ships its payload verbatim
// with codec byte 0, and the quantizer's param field carries the error
// bound the decoder reconstructs with. Uncoded BP05 frames remain
// valid on any connection (the spill tier and structure steps use
// this), so both formats are distinguished by magic and a
// StreamDecoder accepts either; a plain UnmarshalInto rejects BPC5
// with a telling error.
const bpcMagic = "BPC5"

// IsEncodedFrame reports whether raw is a BPC5 (codec-encoded) frame.
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

// StreamEncoder encodes the steps of one logical stream as BPC5
// frames under a negotiated codec.Spec, owning the previous-step
// snapshots the temporal codec differences against. Not safe for
// concurrent use; the staging hub serializes chains with a per-stream
// mutex.
type StreamEncoder struct {
	spec codec.Spec
	sc   codec.Scratch

	enc  [][]byte // per-variable encoded payload scratch, reused
	keys []string // attr-sort scratch, reused

	// Temporal state: copies of the last EncodeFrame'd step's arrays.
	prev     map[string][]float64
	prevStep int64
	hasPrev  bool

	// Accounting for telemetry: totals since construction. Atomic so
	// stats readers can poll while the owning goroutine encodes.
	rawBytes, encBytes atomic.Int64
}

// NewStreamEncoder returns an encoder for one negotiated spec.
func NewStreamEncoder(spec codec.Spec) *StreamEncoder {
	return &StreamEncoder{spec: spec, prev: map[string][]float64{}}
}

// Spec returns the encoder's negotiated spec.
func (e *StreamEncoder) Spec() codec.Spec { return e.spec }

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

// Reset drops the temporal state: the next frame is a keyframe.
func (e *StreamEncoder) Reset() { e.hasPrev = false }

// choiceFor resolves the negotiated choice for a variable, demoting
// temporal to transpose-delta when no usable base exists.
func (e *StreamEncoder) choiceFor(v *Variable, temporalOK bool) codec.Choice {
	ch := e.spec.For(strings.TrimPrefix(v.Name, arrayPrefix))
	if ch.ID == codec.TemporalDelta {
		if !temporalOK || !e.hasPrev {
			return codec.Choice{ID: codec.TransposeDelta}
		}
		if base, ok := e.prev[v.Name]; !ok || len(base) != len(v.F64) {
			return codec.Choice{ID: codec.TransposeDelta}
		}
	}
	return ch
}

// encodeVars fills e.enc with each eligible variable's coded payload
// and returns (total encoded payload bytes, whether any variable used
// the temporal codec). Ineligible or identity variables get a nil
// entry and ship verbatim.
func (e *StreamEncoder) encodeVars(s *Step, temporalOK bool) (int, bool) {
	if cap(e.enc) < len(s.Vars) {
		e.enc = make([][]byte, len(s.Vars))
	}
	e.enc = e.enc[:len(s.Vars)]
	total := 0
	usedTemporal := false
	var raw, coded int64 // one telemetry update per frame, not two per variable
	for i := range s.Vars {
		v := &s.Vars[i]
		if !codecEligible(v) {
			e.enc[i] = nil
			total += int(v.Bytes())
			continue
		}
		ch := e.choiceFor(v, temporalOK)
		// Reuse the slot's previous capacity: a steady stream of
		// same-shaped steps encodes without allocating.
		buf := e.enc[i]
		switch ch.ID {
		case codec.Identity:
			e.enc[i] = nil
			total += int(v.Bytes())
			continue
		case codec.TransposeDelta:
			buf = codec.AppendTransposeDelta(buf[:0], v.F64, &e.sc)
		case codec.TemporalDelta:
			buf = codec.AppendTemporalDelta(buf[:0], v.F64, e.prev[v.Name], &e.sc)
			usedTemporal = true
		case codec.Quantize:
			buf = codec.AppendQuantize(buf[:0], v.F64, ch.Bound, &e.sc)
		}
		e.enc[i] = buf
		total += len(buf)
		raw += v.Bytes()
		coded += int64(len(buf))
	}
	e.rawBytes.Add(raw)
	e.encBytes.Add(coded)
	return total, usedTemporal
}

// encodedSize is MarshaledSize for the BPC5 layout, given the total
// payload bytes computed by encodeVars.
func encodedSize(s *Step, payload int) int {
	n := len(bpcMagic) + 8 + 8 + 8 + 8 // magic, step, time, base, attr count
	for k, v := range s.Attrs {
		n += 8 + len(k) + 8 + len(v)
	}
	n += 8 // var count
	for i := range s.Vars {
		v := &s.Vars[i]
		// name | kind | codec | param | nshape | shapes | elems | enclen
		n += 8 + len(v.Name) + 1 + 1 + 8 + 8 + 8*len(v.Shape) + 8 + 8
	}
	return n + payload
}

// marshalEncoded writes the BPC5 frame into dst (exactly
// encodedSize bytes), pulling coded payloads from e.enc.
func (e *StreamEncoder) marshalEncoded(s *Step, dst []byte, base int64, temporalOK bool) {
	off := copy(dst, bpcMagic)
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
	putU64(uint64(base + 1)) // 0 = no base
	putU64(uint64(len(s.Attrs)))
	keys := e.keys[:0]
	for k := range s.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.keys = keys
	for _, k := range keys {
		putString(k)
		putString(s.Attrs[k])
	}
	putU64(uint64(len(s.Vars)))
	for i := range s.Vars {
		v := &s.Vars[i]
		putString(v.Name)
		dst[off] = byte(v.Kind)
		off++
		ch, enc := codec.Choice{ID: codec.Identity}, e.enc[i]
		if enc != nil {
			ch = e.choiceFor(v, temporalOK)
		}
		dst[off] = byte(ch.ID)
		off++
		putU64(math.Float64bits(ch.Bound))
		putU64(uint64(len(v.Shape)))
		for _, d := range v.Shape {
			putU64(uint64(d))
		}
		putU64(uint64(v.Len()))
		if enc != nil {
			putU64(uint64(len(enc)))
			off += copy(dst[off:], enc)
			continue
		}
		putU64(uint64(v.Bytes()))
		switch v.Kind {
		case KindFloat64:
			off += lebytes.Put(dst[off:], v.F64)
		case KindInt64:
			off += lebytes.Put(dst[off:], v.I64)
		case KindUint8:
			off += copy(dst[off:], v.U8)
		}
	}
}

// snapshot copies the step's codec-eligible temporal arrays into the
// encoder's previous-step state, reusing capacity.
func (e *StreamEncoder) snapshot(s *Step) {
	for i := range s.Vars {
		v := &s.Vars[i]
		if !codecEligible(v) {
			continue
		}
		if e.spec.For(strings.TrimPrefix(v.Name, arrayPrefix)).ID != codec.TemporalDelta {
			continue
		}
		p := e.prev[v.Name]
		if cap(p) < len(v.F64) {
			p = make([]float64, len(v.F64))
		}
		p = p[:len(v.F64)]
		copy(p, v.F64)
		e.prev[v.Name] = p
	}
	e.prevStep = s.Step
	e.hasPrev = true
}

// EncodeFrame marshals s as a BPC5 frame into a frame leased from p,
// advancing the encoder's temporal chain: temporal arrays difference
// against the previous EncodeFrame'd step, and the returned base is
// that step's number (-1 when the frame is a keyframe — only
// consumers whose last delivered step equals base can decode a
// non-keyframe; hand others EncodeKeyFrame's form).
func (e *StreamEncoder) EncodeFrame(s *Step, p *FramePool) (f *Frame, base int64) {
	payload, usedTemporal := e.encodeVars(s, true)
	base = -1
	if usedTemporal {
		base = e.prevStep
	}
	f = p.Lease(encodedSize(s, payload))
	e.marshalEncoded(s, f.Bytes(), base, true)
	if e.spec.UsesTemporal() {
		e.snapshot(s)
	}
	return f, base
}

// EncodeKeyFrame marshals s with the temporal codec demoted to
// transpose-delta and without touching the encoder's chain state —
// the self-contained form shared by consumers that missed the chain's
// base step (drop-oldest gaps, fresh attaches).
func (e *StreamEncoder) EncodeKeyFrame(s *Step, p *FramePool) *Frame {
	payload, _ := e.encodeVars(s, false)
	f := p.Lease(encodedSize(s, payload))
	e.marshalEncoded(s, f.Bytes(), -1, false)
	return f
}

// StreamDecoder decodes the frames of one connection, accepting both
// BP05 and BPC5 and owning the previous-step arrays temporal frames
// difference against. Not safe for concurrent use.
type StreamDecoder struct {
	sc codec.Scratch

	// temporal enables previous-step snapshots; decoders for streams
	// that never negotiated the temporal codec skip the copies.
	temporal bool
	prev     map[string][]float64
	prevStep int64
	hasPrev  bool
}

// NewStreamDecoder returns a decoder. temporal must be true when the
// stream may carry temporal-delta frames (it is always safe, at the
// cost of one array copy per decoded step).
func NewStreamDecoder(temporal bool) *StreamDecoder {
	d := &StreamDecoder{temporal: temporal}
	if temporal {
		d.prev = map[string][]float64{}
	}
	return d
}

// DecodeInto decodes a wire frame of either format into out, reusing
// out's storage like UnmarshalInto; a nil decoder is UnmarshalInto and
// refuses BPC5. A BP05 frame (structure step, spill catch-up) resets
// the temporal state — the hub guarantees the next coded frame after
// any gap is a keyframe.
func (d *StreamDecoder) DecodeInto(raw []byte, out *Step) error {
	encoded := IsEncodedFrame(raw)
	if d == nil && encoded {
		return fmt.Errorf("adios: encoded (BPC5) frame needs a StreamDecoder")
	}
	var hasBase bool
	err := walkFrame(raw, func(h frameHead) error {
		if hasBase = h.baseWord != 0; hasBase {
			base := int64(h.baseWord) - 1
			if !d.temporal {
				return fmt.Errorf("adios: temporal frame on a connection that negotiated no temporal codec")
			}
			if !d.hasPrev || d.prevStep != base {
				return fmt.Errorf("adios: temporal frame needs base step %d, decoder holds %d", base, d.lastStep())
			}
		}
		out.Step, out.Time = h.step, h.time
		decodeAttrsInto(&h, out)
		if cap(out.Vars) >= h.nvars {
			out.Vars = out.Vars[:h.nvars]
		} else {
			out.Vars = make([]Variable, h.nvars)
		}
		return nil
	}, func(i int, r varRecord) error {
		return d.decodeVar(&out.Vars[i], raw, &r, hasBase)
	})
	if d == nil {
		return err
	}
	if err != nil || !encoded {
		d.hasPrev = false
		return err
	}
	if d.temporal && out.Attrs["structure"] != "1" {
		d.snapshot(out)
	}
	return nil
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
// name, shape and payload storage. hasBase reports whether the frame
// differences against a base step (only a temporal decoder holding it
// gets this far).
func (d *StreamDecoder) decodeVar(vv *Variable, raw []byte, r *varRecord, hasBase bool) error {
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
	if r.codec == codec.Identity {
		decodePlainPayload(vv, n, enc)
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
	case codec.TemporalDelta:
		if !hasBase {
			return fmt.Errorf("adios: temporal payload %q in a keyframe", vv.Name)
		}
		err = codec.DecodeTemporalDelta(vv.F64, d.prev[vv.Name], enc, &d.sc)
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

// snapshot mirrors StreamEncoder.snapshot on the decode side.
func (d *StreamDecoder) snapshot(s *Step) {
	for i := range s.Vars {
		v := &s.Vars[i]
		if !codecEligible(v) {
			continue
		}
		p := d.prev[v.Name]
		if cap(p) < len(v.F64) {
			p = make([]float64, len(v.F64))
		}
		p = p[:len(v.F64)]
		copy(p, v.F64)
		d.prev[v.Name] = p
	}
	d.prevStep = s.Step
	d.hasPrev = true
}

func (d *StreamDecoder) lastStep() int64 {
	if !d.hasPrev {
		return -1
	}
	return d.prevStep
}

// decodePlainPayload decodes a verbatim payload of n elements from enc
// (its exact size, checked by the walk) into the reused variable
// storage.
func decodePlainPayload(vv *Variable, n uint64, enc []byte) {
	switch vv.Kind {
	case KindFloat64:
		vv.F64 = resize(vv.F64, n)
		lebytes.Get(vv.F64, enc)
	case KindInt64:
		vv.I64 = resize(vv.I64, n)
		lebytes.Get(vv.I64, enc)
	case KindUint8:
		vv.U8 = resize(vv.U8, n)
		copy(vv.U8, enc)
	}
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
