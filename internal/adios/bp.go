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
// DESIGN.md "Wire compression". Both formats are drawn, and read by
// one bounds-checked walk, in frame.go.
package adios

import (
	"encoding/binary"
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

// UnmarshalInto decodes a step marshaled by Marshal into out, reusing
// out's attribute map, variable headers, shape slices and payload
// storage wherever capacities allow — the decode side of the
// zero-allocation steady state. A zero-valued out behaves like a
// fresh Unmarshal; a recycled out (see ReuseStep) decodes a stream of
// same-shaped steps without allocating. On error out's contents are
// unspecified. It is DecodeInto on a nil StreamDecoder, which refuses
// BPC5 frames.
func UnmarshalInto(raw []byte, out *Step) error {
	return (*StreamDecoder)(nil).DecodeInto(raw, out)
}
