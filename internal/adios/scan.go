package adios

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
)

// This file is the header-only walk of a marshaled frame: ScanFrame
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

// ScanFrame walks a frame marshaled by Marshal/MarshalInto and
// returns its layout without decoding payloads: header fields are
// parsed, payload bytes are skipped. The scan validates the same
// bounds as UnmarshalInto, so a frame that scans clean also decodes.
func ScanFrame(raw []byte) (FrameInfo, error) {
	var fi FrameInfo
	if len(raw) < 4 || string(raw[:4]) != bpMagic && string(raw[:4]) != bpcMagic {
		return fi, fmt.Errorf("adios: bad magic")
	}
	fi.Encoded = string(raw[:4]) == bpcMagic
	fi.Base = -1
	pos := int64(4)
	n := int64(len(raw))
	getU64 := func() (uint64, error) {
		if pos+8 > n {
			return 0, fmt.Errorf("adios: truncated at %d", pos)
		}
		v := binary.LittleEndian.Uint64(raw[pos:])
		pos += 8
		return v, nil
	}
	getBytes := func() ([]byte, error) {
		l, err := getU64()
		if err != nil {
			return nil, err
		}
		if l > uint64(n-pos) {
			return nil, fmt.Errorf("adios: truncated string")
		}
		b := raw[pos : pos+int64(l)]
		pos += int64(l)
		return b, nil
	}
	v, err := getU64()
	if err != nil {
		return fi, err
	}
	fi.Step = int64(v)
	if v, err = getU64(); err != nil {
		return fi, err
	}
	fi.Time = math.Float64frombits(v)
	if fi.Encoded {
		bw, err := getU64()
		if err != nil {
			return fi, err
		}
		fi.Base = int64(bw) - 1
	}
	nattr, err := getU64()
	if err != nil {
		return fi, err
	}
	if nattr > uint64(n-pos)/16 {
		return fi, fmt.Errorf("adios: attr count %d exceeds frame", nattr)
	}
	for i := uint64(0); i < nattr; i++ {
		kb, err := getBytes()
		if err != nil {
			return fi, err
		}
		vb, err := getBytes()
		if err != nil {
			return fi, err
		}
		if string(kb) == "structure" && string(vb) == "1" {
			fi.Structure = true
		}
	}
	fi.VarsOff = pos
	nvars, err := getU64()
	if err != nil {
		return fi, err
	}
	if nvars > uint64(n-pos)/25 {
		return fi, fmt.Errorf("adios: var count %d exceeds frame", nvars)
	}
	fi.Vars = make([]VarSpan, 0, nvars)
	for i := uint64(0); i < nvars; i++ {
		var vs VarSpan
		vs.RecordOff = pos
		nb, err := getBytes()
		if err != nil {
			return fi, err
		}
		vs.Name = string(nb)
		if pos >= n {
			return fi, fmt.Errorf("adios: truncated kind")
		}
		vs.Kind = Kind(raw[pos])
		pos++
		if fi.Encoded {
			if pos >= n {
				return fi, fmt.Errorf("adios: truncated codec byte")
			}
			vs.Codec = raw[pos]
			pos++
			pw, err := getU64()
			if err != nil {
				return fi, err
			}
			vs.Param = math.Float64frombits(pw)
		}
		ndim, err := getU64()
		if err != nil {
			return fi, err
		}
		if ndim > uint64(n-pos)/8 {
			return fi, fmt.Errorf("adios: shape rank %d exceeds frame", ndim)
		}
		pos += 8 * int64(ndim)
		elems, err := getU64()
		if err != nil {
			return fi, err
		}
		var width int64
		switch vs.Kind {
		case KindFloat64, KindInt64:
			width = 8
		case KindUint8:
			width = 1
		default:
			return fi, fmt.Errorf("adios: unknown kind %d", vs.Kind)
		}
		vs.Elems = int64(elems)
		if fi.Encoded {
			enclen, err := getU64()
			if err != nil {
				return fi, err
			}
			if enclen > uint64(n-pos) {
				return fi, fmt.Errorf("adios: truncated payload for %q", vs.Name)
			}
			vs.PayloadOff = pos
			vs.PayloadLen = int64(enclen)
		} else {
			if width > 1 && elems > uint64(n-pos)/uint64(width) ||
				width == 1 && elems > uint64(n-pos) {
				return fi, fmt.Errorf("adios: truncated payload for %q", vs.Name)
			}
			vs.PayloadOff = pos
			vs.PayloadLen = int64(elems) * width
		}
		pos += vs.PayloadLen
		vs.RecordLen = pos - vs.RecordOff
		fi.Vars = append(fi.Vars, vs)
	}
	if pos != n {
		return fi, fmt.Errorf("adios: %d trailing bytes after frame", n-pos)
	}
	return fi, nil
}
