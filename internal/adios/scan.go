package adios

import (
	"encoding/binary"
	"slices"
	"strings"
)

// This file is the layout half of the frame walk (frame.go): ScanFrame
// recovers the frame's layout — step/time, the structure flag, and
// every variable's byte span — without decoding any payload. The
// persistent archive (internal/archive) indexes frames with it, and
// subset frames are spliced from the recorded spans, so on-disk
// record/replay and index-answered array subsetting never re-encode.

// VarSpan locates one variable inside a marshaled frame: the full
// record (header + payload, the unit subset splicing copies) and the
// raw payload within it.
type VarSpan struct {
	Name string
	Kind Kind

	// RecordOff/RecordLen span the variable's whole record: name,
	// kind, shape, element count and payload. Concatenating selected
	// records after the frame header yields a valid subset frame.
	RecordOff, RecordLen int64
	// PayloadOff/PayloadLen span just the encoded payload bytes.
	PayloadOff, PayloadLen int64
	// Elems is the payload's element count.
	Elems int64
	// Codec is the wire codec byte (BPC5 frames only; 0 = verbatim)
	// and Param its parameter (the quantizer's error bound).
	Codec uint8
	Param float64

	// shapeOff and rank locate the shape words (VarSpan.dim) for
	// SpliceFrames; an archive index does not keep them.
	shapeOff int64
	rank     int
}

// FrameInfo is the decoded layout of one marshaled frame.
type FrameInfo struct {
	Step      int64
	Time      float64
	Structure bool // the frame carries the grid structure

	// Encoded reports a BPC5 (codec-encoded) frame; Base is the step
	// its temporal payloads difference against (-1 for a keyframe).
	Encoded bool
	Base    int64

	// VarsOff is the offset of the variable-count word: raw[:VarsOff]
	// is the frame header (magic, step, time, base word, attributes)
	// shared by every subset spliced from this frame.
	VarsOff int64
	Vars    []VarSpan
}

// KeepVar is the array-subset rule shared by the hub, the archive and
// SubsetFrame: variables outside the "array/" namespace (structure,
// metadata) always travel; arrays only when named in arrays.
func KeepVar(varName string, arrays []string) bool {
	name, isArray := strings.CutPrefix(varName, arrayPrefix)
	return !isArray || name == "" || slices.Contains(arrays, name)
}

// SubsetFrame cuts an array subset out of a plain frame along its
// scanned layout: the frame header, a fresh variable count and the
// records KeepVar selects, copied span by span into a frame leased
// from pool — no payload is decoded. The bytes equal Marshal of the
// subset-filtered step (the operation the archive performs on disk).
// fi must be ScanFrame's layout of raw.
func SubsetFrame(raw []byte, fi *FrameInfo, arrays []string, pool *FramePool) *Frame {
	size, kept := fi.VarsOff+8, 0
	for i := range fi.Vars {
		if KeepVar(fi.Vars[i].Name, arrays) {
			size += fi.Vars[i].RecordLen
			kept++
		}
	}
	f := pool.Lease(int(size))
	dst := f.Bytes()
	off := copy(dst, raw[:fi.VarsOff])
	binary.LittleEndian.PutUint64(dst[off:], uint64(kept))
	off += 8
	for i := range fi.Vars {
		if vs := &fi.Vars[i]; KeepVar(vs.Name, arrays) {
			off += copy(dst[off:], raw[vs.RecordOff:vs.RecordOff+vs.RecordLen])
		}
	}
	return f
}

// FindVar returns the span of the named variable, or nil.
func (fi *FrameInfo) FindVar(name string) *VarSpan {
	for i := range fi.Vars {
		if fi.Vars[i].Name == name {
			return &fi.Vars[i]
		}
	}
	return nil
}

// ScanFrame returns the layout of a frame of either format without
// decoding payloads. It is a visitor over the same walk as
// UnmarshalInto, so a plain frame scans clean exactly when it decodes.
func ScanFrame(raw []byte) (FrameInfo, error) {
	var fi FrameInfo
	err := walkFrame(raw, func(h frameHead) error {
		fi = FrameInfo{Step: h.step, Time: h.time, Encoded: h.encoded, Base: int64(h.baseWord) - 1,
			VarsOff: int64(h.varsOff), Vars: make([]VarSpan, h.nvars)}
		for rest := h.attrs; len(rest) > 0; {
			var k, v []byte
			k, v, rest = nextAttr(rest)
			if string(k) == "structure" && string(v) == "1" {
				fi.Structure = true
			}
		}
		return nil
	}, func(i int, r varRecord) error {
		vs, end := &fi.Vars[i], r.payloadOff+len(r.payload)
		vs.Name, vs.Kind, vs.Codec, vs.Param = string(r.name), r.kind, uint8(r.codec), r.param
		vs.RecordOff, vs.RecordLen = int64(r.off), int64(end-r.off)
		vs.PayloadOff, vs.PayloadLen, vs.Elems = int64(r.payloadOff), int64(len(r.payload)), int64(r.elems)
		vs.shapeOff, vs.rank = int64(r.shapeOff), r.rank
		return nil
	})
	return fi, err
}
