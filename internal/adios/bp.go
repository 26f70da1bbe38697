// Package adios reimplements the slice of ADIOS2 the paper's in
// transit workflow uses: BP-style binary marshaling of variable sets
// and the SST (Sustainable Staging Transport) engine — a staged
// streaming architecture in which the data producer queues marshaled
// steps and a remote consumer pulls them over the network, decoupling
// simulation from visualization.
//
// The paper configures SST over UCX for data and TCP sockets for
// control; here both planes share one TCP connection per writer-reader
// pair, with a JSON control handshake followed by length-prefixed
// binary data frames. The properties the evaluation measures — the
// simulation side's bounded staging queue (memory), back-pressure from
// a slow endpoint, and step pipelining — are preserved.
//
// The marshal layer is built for an allocation-free steady state: a
// step's wire size is computed exactly up front (MarshaledSize), the
// encode is a single pass straight into the destination (MarshalInto;
// a numeric payload is one copy of the array's bytes), frames lease
// from a refcounted FramePool (MarshalFrame), and readers decode into
// recycled Step storage (UnmarshalInto / ReuseStep). See DESIGN.md
// "Memory discipline" for the ownership rules.
//
// A reader may negotiate per-array wire compression in its hello
// (ReaderOptions.Codecs, checked against the producer's
// advertisement); such a connection carries "BPC5" frames produced by
// a StreamEncoder and decoded by a StreamDecoder — per-variable codec
// stages from internal/codec, temporal-delta chains with shared
// keyframes, and the same pooled-frame discipline. Connections that
// negotiate nothing are byte-identical to the plain BP05 wire. See
// DESIGN.md "Wire compression".
package adios

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"nekrs-sensei/internal/lebytes"
)

// bpMagic heads every marshaled step.
const bpMagic = "BP05"

// Kind discriminates variable payload types.
type Kind uint8

// Variable payload kinds.
const (
	KindFloat64 Kind = 0
	KindInt64   Kind = 1
	KindUint8   Kind = 2
)

// Variable is one named block of data within a step.
type Variable struct {
	Name  string
	Kind  Kind
	Shape []int64 // global dimensions, optional

	F64 []float64
	I64 []int64
	U8  []byte
}

// NewF64 builds a float64 variable.
func NewF64(name string, data []float64, shape ...int64) Variable {
	return Variable{Name: name, Kind: KindFloat64, F64: data, Shape: shape}
}

// NewI64 builds an int64 variable.
func NewI64(name string, data []int64, shape ...int64) Variable {
	return Variable{Name: name, Kind: KindInt64, I64: data, Shape: shape}
}

// NewU8 builds a byte variable.
func NewU8(name string, data []byte, shape ...int64) Variable {
	return Variable{Name: name, Kind: KindUint8, U8: data, Shape: shape}
}

// Len reports the element count of the payload.
func (v *Variable) Len() int {
	switch v.Kind {
	case KindFloat64:
		return len(v.F64)
	case KindInt64:
		return len(v.I64)
	case KindUint8:
		return len(v.U8)
	}
	return 0
}

// Bytes reports the payload size in bytes.
func (v *Variable) Bytes() int64 {
	switch v.Kind {
	case KindFloat64:
		return int64(len(v.F64)) * 8
	case KindInt64:
		return int64(len(v.I64)) * 8
	case KindUint8:
		return int64(len(v.U8))
	}
	return 0
}

// Step is one timestep's payload: metadata plus variables.
type Step struct {
	Step  int64
	Time  float64
	Attrs map[string]string
	Vars  []Variable
}

// FindVar returns the named variable or nil.
func (s *Step) FindVar(name string) *Variable {
	for i := range s.Vars {
		if s.Vars[i].Name == name {
			return &s.Vars[i]
		}
	}
	return nil
}

// Bytes reports the step's total payload size.
func (s *Step) Bytes() int64 {
	var n int64
	for i := range s.Vars {
		n += s.Vars[i].Bytes()
	}
	return n
}

// MarshaledSize reports the exact wire size of a step — the buffer
// MarshalInto fills completely, with no growth or trailing slack.
func MarshaledSize(s *Step) int {
	n := len(bpMagic) + 8 + 8 + 8 // magic, step, time, attr count
	for k, v := range s.Attrs {
		n += 8 + len(k) + 8 + len(v)
	}
	n += 8 // var count
	for i := range s.Vars {
		v := &s.Vars[i]
		n += 8 + len(v.Name) + 1 + 8 + 8*len(v.Shape) + 8 + int(v.Bytes())
	}
	return n
}

// MarshalInto serializes a step in BP-style binary form straight into
// dst, which must be exactly MarshaledSize(s) bytes (the single-pass,
// zero-growth encode under Marshal and MarshalFrame). Returns the
// bytes written.
func MarshalInto(s *Step, dst []byte) int {
	off := copy(dst, bpMagic)
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
	putU64(uint64(len(s.Vars)))
	for i := range s.Vars {
		v := &s.Vars[i]
		putString(v.Name)
		dst[off] = byte(v.Kind)
		off++
		putU64(uint64(len(v.Shape)))
		for _, d := range v.Shape {
			putU64(uint64(d))
		}
		putU64(uint64(v.Len()))
		switch v.Kind {
		case KindFloat64:
			off += lebytes.Put(dst[off:], v.F64)
		case KindInt64:
			off += lebytes.Put(dst[off:], v.I64)
		case KindUint8:
			off += copy(dst[off:], v.U8)
		}
	}
	return off
}

// Marshal serializes a step in BP-style binary form.
func Marshal(s *Step) []byte {
	dst := make([]byte, MarshaledSize(s))
	MarshalInto(s, dst)
	return dst
}

// MarshalFrame serializes a step into a frame leased from p, the
// allocation-free steady-state encode path: the returned frame holds
// one reference and its buffer recycles on the last Release.
func MarshalFrame(s *Step, p *FramePool) *Frame {
	f := p.Lease(MarshaledSize(s))
	MarshalInto(s, f.Bytes())
	return f
}

// Unmarshal decodes a step marshaled by Marshal into fresh storage.
func Unmarshal(raw []byte) (*Step, error) {
	out := &Step{}
	if err := UnmarshalInto(raw, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReuseStep vets a consumed step for decode-into-reuse: it returns s
// itself when its storage may be recycled as an UnmarshalInto
// destination, and nil when it must not be — s is nil, or it carries
// the grid structure, whose payload slices downstream grid caches
// keep referencing for the rest of the stream (see
// intransit.StreamDataAdaptor.IngestStructure). Structure steps are
// therefore never pooled; they occur once per stream, so the steady
// state is unaffected.
func ReuseStep(s *Step) *Step {
	if s == nil || s.Attrs["structure"] == "1" {
		return nil
	}
	return s
}

// decodeAttrsInto decodes an attribute section — the attr-count word
// at pos followed by length-prefixed key/value pairs — into out's
// attribute map, reusing it. Fast path: verify — without mutating —
// that the frame's attrs are exactly the map's current contents (the
// steady state, where attrs repeat per step: zero allocations). Any
// mismatch, a stale or missing key, or a duplicate key in a hostile
// frame falls back to a full rebuild, so the decoded map is always
// exactly the frame's attrs (last write wins on duplicates, matching
// a fresh decode). Returns the offset just past the section. Shared
// by the BP05 and BPC5 decoders.
func decodeAttrsInto(raw []byte, pos int, out *Step) (int, error) {
	getU64 := func() (uint64, error) {
		if pos+8 > len(raw) {
			return 0, fmt.Errorf("adios: truncated at %d", pos)
		}
		v := binary.LittleEndian.Uint64(raw[pos:])
		pos += 8
		return v, nil
	}
	getBytes := func() ([]byte, error) {
		n, err := getU64()
		if err != nil {
			return nil, err
		}
		if n > uint64(len(raw)-pos) {
			return nil, fmt.Errorf("adios: truncated string")
		}
		b := raw[pos : pos+int(n)]
		pos += int(n)
		return b, nil
	}
	nattr, err := getU64()
	if err != nil {
		return pos, err
	}
	if nattr > uint64(len(raw)-pos)/16 { // each attr needs two length words
		return pos, fmt.Errorf("adios: attr count %d exceeds frame", nattr)
	}
	if out.Attrs == nil {
		out.Attrs = make(map[string]string, nattr)
	}
	const attrFastPathMax = 16
	attrStart := pos
	match := nattr <= attrFastPathMax && uint64(len(out.Attrs)) == nattr
	var seenKeys [attrFastPathMax][]byte
	for i := uint64(0); i < nattr; i++ {
		kb, err := getBytes()
		if err != nil {
			return pos, err
		}
		vb, err := getBytes()
		if err != nil {
			return pos, err
		}
		if match {
			for j := uint64(0); j < i; j++ {
				if bytes.Equal(seenKeys[j], kb) {
					match = false // duplicate key: counting is unreliable
				}
			}
			seenKeys[i] = kb
			if cur, ok := out.Attrs[string(kb)]; !ok || cur != string(vb) {
				match = false
			}
		}
	}
	if !match {
		clear(out.Attrs)
		pos = attrStart
		for i := uint64(0); i < nattr; i++ {
			kb, _ := getBytes() // region validated by the first pass
			vb, _ := getBytes()
			out.Attrs[string(kb)] = string(vb)
		}
	}
	return pos, nil
}

// UnmarshalInto decodes a step marshaled by Marshal into out, reusing
// out's attribute map, variable headers, shape slices and payload
// storage wherever capacities allow — the decode side of the
// zero-allocation steady state. A zero-valued out behaves like a
// fresh Unmarshal; a recycled out (see ReuseStep) decodes a stream of
// same-shaped steps without allocating. On error out's contents are
// unspecified.
func UnmarshalInto(raw []byte, out *Step) error {
	if len(raw) < 4 || string(raw[:4]) != bpMagic {
		if IsEncodedFrame(raw) {
			return fmt.Errorf("adios: encoded (BPC5) frame needs a StreamDecoder")
		}
		return fmt.Errorf("adios: bad magic")
	}
	pos := 4
	getU64 := func() (uint64, error) {
		if pos+8 > len(raw) {
			return 0, fmt.Errorf("adios: truncated at %d", pos)
		}
		v := binary.LittleEndian.Uint64(raw[pos:])
		pos += 8
		return v, nil
	}
	// getBytes returns the next length-prefixed region in place (no
	// copy): callers compare against existing strings before allocating.
	// Lengths are validated against the remaining bytes before any
	// conversion to int, so a hostile frame cannot overflow the bounds
	// checks into a huge or negative allocation.
	getBytes := func() ([]byte, error) {
		n, err := getU64()
		if err != nil {
			return nil, err
		}
		if n > uint64(len(raw)-pos) {
			return nil, fmt.Errorf("adios: truncated string")
		}
		b := raw[pos : pos+int(n)]
		pos += int(n)
		return b, nil
	}
	v, err := getU64()
	if err != nil {
		return err
	}
	out.Step = int64(v)
	if v, err = getU64(); err != nil {
		return err
	}
	out.Time = math.Float64frombits(v)
	pos, err = decodeAttrsInto(raw, pos, out)
	if err != nil {
		return err
	}
	nvars, err := getU64()
	if err != nil {
		return err
	}
	if nvars > uint64(len(raw)-pos)/25 { // name len + kind + ndim + elem count
		return fmt.Errorf("adios: var count %d exceeds frame", nvars)
	}
	if cap(out.Vars) >= int(nvars) {
		out.Vars = out.Vars[:nvars]
	} else {
		out.Vars = make([]Variable, nvars)
	}
	for i := uint64(0); i < nvars; i++ {
		vv := &out.Vars[i]
		nb, err := getBytes()
		if err != nil {
			return err
		}
		if vv.Name != string(nb) {
			vv.Name = string(nb)
		}
		if pos >= len(raw) {
			return fmt.Errorf("adios: truncated kind")
		}
		vv.Kind = Kind(raw[pos])
		pos++
		ndim, err := getU64()
		if err != nil {
			return err
		}
		if ndim > uint64(len(raw)-pos)/8 {
			return fmt.Errorf("adios: shape rank %d exceeds frame", ndim)
		}
		if vv.Shape == nil && ndim > 0 || cap(vv.Shape) < int(ndim) {
			vv.Shape = make([]int64, ndim)
		} else {
			vv.Shape = vv.Shape[:ndim]
		}
		for d := uint64(0); d < ndim; d++ {
			s, err := getU64()
			if err != nil {
				return err
			}
			vv.Shape[d] = int64(s)
		}
		n, err := getU64()
		if err != nil {
			return err
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
		switch vv.Kind {
		case KindFloat64:
			if n > uint64(len(raw)-pos)/8 {
				return fmt.Errorf("adios: truncated f64 payload")
			}
			if vv.F64 == nil || cap(vv.F64) < int(n) {
				vv.F64 = make([]float64, n)
			} else {
				vv.F64 = vv.F64[:n]
			}
			lebytes.Get(vv.F64, raw[pos:])
			pos += 8 * int(n)
		case KindInt64:
			if n > uint64(len(raw)-pos)/8 {
				return fmt.Errorf("adios: truncated i64 payload")
			}
			if vv.I64 == nil || cap(vv.I64) < int(n) {
				vv.I64 = make([]int64, n)
			} else {
				vv.I64 = vv.I64[:n]
			}
			lebytes.Get(vv.I64, raw[pos:])
			pos += 8 * int(n)
		case KindUint8:
			if n > uint64(len(raw)-pos) {
				return fmt.Errorf("adios: truncated u8 payload")
			}
			if vv.U8 == nil || cap(vv.U8) < int(n) {
				vv.U8 = make([]byte, n)
			} else {
				vv.U8 = vv.U8[:n]
			}
			copy(vv.U8, raw[pos:pos+int(n)])
			pos += int(n)
		default:
			return fmt.Errorf("adios: unknown kind %d", vv.Kind)
		}
	}
	return nil
}
