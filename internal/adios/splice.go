package adios

import (
	"encoding/binary"
	"fmt"
)

// This file is the relay's block-range splice: SpliceFrames merges
// the marshaled frames of several producer ranks' same-numbered steps
// into one frame, payload bytes copied span-to-span over the
// ScanFrame layout — the M×N repartitioner never decodes a float. The
// subset-frame machinery splices records *out* of one frame; this is
// its dual, splicing same-named records *across* frames.

// rebaseBy is how far one input shifts the rebased words of the
// inputs after it, as MergeSteps rebases: int64 connectivity by the
// input's points, int64 offsets by its connectivity entries; 0 for
// every other variable.
func rebaseBy(fi *FrameInfo, vs *VarSpan) uint64 {
	if vs.Kind != KindInt64 {
		return 0
	}
	switch vs.Name {
	case "connectivity":
		if p := fi.FindVar("points"); p != nil && p.Kind == KindFloat64 {
			return uint64(p.Elems / 3)
		}
	case "offsets":
		if c := fi.FindVar("connectivity"); c != nil && c.Kind == KindInt64 {
			return uint64(c.Elems)
		}
	}
	return 0
}

// SpliceFrames concatenates P same-step plain BP05 frames into one:
// the output carries frames[0]'s header (step, time, attributes) and
// variable order, with each variable's payload the concatenation of
// every input's payload bytes in frame order — the wire form the
// producers would have marshaled had they been one rank, and the bytes
// of Marshal(MergeSteps(...)) over the decoded inputs. Shaped
// variables sum their first (block-distributed) dimension; trailing
// dimensions must agree. Structure frames splice too: int64
// "connectivity" and "offsets" words are rebased, as MergeSteps does,
// by the points and connectivity entries of the inputs before them.
// Every input must carry the same variable names, kinds and structure
// flag, and data frames the same step number (a relay re-blocks grids
// its sources sent at different steps; the output takes frames[0]'s);
// codec-encoded (BPC5) frames are refused.
//
// The result is leased from pool: release it when done (a staging hub
// publish takes ownership instead, see Hub.PublishFrame).
func SpliceFrames(frames [][]byte, pool *FramePool) (*Frame, error) {
	if len(frames) == 0 {
		return nil, fmt.Errorf("adios: splice of no frames")
	}
	infos := make([]FrameInfo, len(frames))
	for i, raw := range frames {
		fi, err := ScanFrame(raw)
		if err != nil {
			return nil, fmt.Errorf("adios: splice input %d: %w", i, err)
		}
		if fi.Encoded {
			return nil, fmt.Errorf("adios: splice input %d: codec-encoded frame", i)
		}
		if i > 0 {
			switch {
			case fi.Step != infos[0].Step && !fi.Structure:
				return nil, fmt.Errorf("adios: splice step mismatch: input %d has step %d, input 0 has %d", i, fi.Step, infos[0].Step)
			case fi.Structure != infos[0].Structure:
				return nil, fmt.Errorf("adios: splice input %d structure flag differs from input 0", i)
			case len(fi.Vars) != len(infos[0].Vars):
				return nil, fmt.Errorf("adios: splice input %d has %d vars, input 0 has %d", i, len(fi.Vars), len(infos[0].Vars))
			}
		}
		infos[i] = fi
	}

	// Size pass: header + var count + per-var headers and summed
	// payloads (shapes checked across inputs as they are read).
	shapes := make([][]uint64, len(infos[0].Vars))
	size := int64(infos[0].VarsOff) + 8
	for v := range infos[0].Vars {
		v0 := &infos[0].Vars[v]
		shape := make([]uint64, v0.rank)
		for i, raw := range frames {
			vi := &infos[i].Vars[v]
			if vi.Name != v0.Name || vi.Kind != v0.Kind {
				return nil, fmt.Errorf("adios: splice input %d var %d is %q/%d, input 0 has %q/%d",
					i, v, vi.Name, vi.Kind, v0.Name, v0.Kind)
			}
			if vi.rank != v0.rank {
				return nil, fmt.Errorf("adios: splice var %q: rank %d vs %d", v0.Name, vi.rank, v0.rank)
			}
			for d := range shape {
				switch dim := vi.dim(raw, d); {
				case d == 0:
					shape[0] += dim
				case i == 0:
					shape[d] = dim
				case dim != shape[d]:
					return nil, fmt.Errorf("adios: splice var %q: dim %d is %d vs %d", v0.Name, d, dim, shape[d])
				}
			}
		}
		shapes[v] = shape
		size += 8 + int64(len(v0.Name)) + 1 + 8 + 8*int64(len(shape)) + 8
		for i := range frames {
			size += infos[i].Vars[v].PayloadLen
		}
	}

	f := pool.Lease(int(size))
	dst := f.Bytes()
	off := copy(dst, frames[0][:infos[0].VarsOff])
	putU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(dst[off:], v)
		off += 8
	}
	putU64(uint64(len(infos[0].Vars)))
	for v := range infos[0].Vars {
		v0 := &infos[0].Vars[v]
		putU64(uint64(len(v0.Name)))
		off += copy(dst[off:], v0.Name)
		dst[off] = byte(v0.Kind)
		off++
		putU64(uint64(len(shapes[v])))
		for _, d := range shapes[v] {
			putU64(d)
		}
		var elems int64
		for i := range frames {
			elems += infos[i].Vars[v].Elems
		}
		putU64(uint64(elems))
		var base uint64 // what this input's words rebase by: 0 but for structure
		for i, raw := range frames {
			vs := &infos[i].Vars[v]
			src := raw[vs.PayloadOff : vs.PayloadOff+vs.PayloadLen]
			if base == 0 {
				off += copy(dst[off:], src)
			} else {
				for k := 0; k < len(src); k += 8 {
					putU64(binary.LittleEndian.Uint64(src[k:]) + base)
				}
			}
			base += rebaseBy(&infos[i], vs)
		}
	}
	if int64(off) != size {
		f.Release()
		return nil, fmt.Errorf("adios: splice size accounting: wrote %d of %d", off, size)
	}
	return f, nil
}
