package adios

import "fmt"

// MergeSteps merges P same-step decoded steps into one, as if their
// producer ranks had been a single rank — the decoded counterpart of
// SpliceFrames (which produces its marshaled bytes), used by the
// endpoint's StreamDataAdaptor for the grid of the blocks it holds.
// Array payloads concatenate in source order; of the structure
// variables points and cell types concatenate, connectivity rebases by
// the running point count and offsets by the running connectivity
// length. One part is returned as is.
func MergeSteps(parts []*Step) (*Step, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("adios: merge of no steps")
	}
	if len(parts) == 1 {
		return parts[0], nil
	}
	first := parts[0]
	out := &Step{Step: first.Step, Time: first.Time, Attrs: map[string]string{}}
	for k, v := range first.Attrs {
		out.Attrs[k] = v
	}

	var pointBase, connBase int64
	bases := make([]int64, len(parts)) // per-part point base, for connectivity
	connBases := make([]int64, len(parts))
	for i, p := range parts {
		bases[i], connBases[i] = pointBase, connBase
		if v := p.FindVar("points"); v != nil {
			pointBase += int64(len(v.F64)) / 3
		}
		if v := p.FindVar("connectivity"); v != nil {
			connBase += int64(len(v.I64))
		}
	}

	for vi := range first.Vars {
		v0 := &first.Vars[vi]
		mv := Variable{Name: v0.Name, Kind: v0.Kind}
		var firstDim int64
		for i, p := range parts {
			v := p.FindVar(v0.Name)
			if v == nil || v.Kind != v0.Kind {
				return nil, fmt.Errorf("adios: merge step %d: source %d missing variable %q", first.Step, i, v0.Name)
			}
			if len(v.Shape) != len(v0.Shape) {
				return nil, fmt.Errorf("adios: merge step %d: variable %q rank differs across sources", first.Step, v0.Name)
			}
			for d := 1; d < len(v.Shape); d++ {
				if v.Shape[d] != v0.Shape[d] {
					return nil, fmt.Errorf("adios: merge step %d: variable %q dim %d differs across sources", first.Step, v0.Name, d)
				}
			}
			if len(v.Shape) > 0 {
				firstDim += v.Shape[0]
			}
			switch v0.Name {
			case "connectivity":
				for _, c := range v.I64 {
					mv.I64 = append(mv.I64, c+bases[i])
				}
			case "offsets":
				for _, off := range v.I64 {
					mv.I64 = append(mv.I64, off+connBases[i])
				}
			default:
				switch v.Kind {
				case KindFloat64:
					mv.F64 = append(mv.F64, v.F64...)
				case KindInt64:
					mv.I64 = append(mv.I64, v.I64...)
				case KindUint8:
					mv.U8 = append(mv.U8, v.U8...)
				}
			}
		}
		if len(v0.Shape) > 0 {
			mv.Shape = append([]int64{firstDim}, v0.Shape[1:]...)
		}
		out.Vars = append(out.Vars, mv)
	}
	return out, nil
}
