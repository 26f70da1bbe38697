package sensei

import (
	"fmt"
	"strconv"

	"nekrs-sensei/internal/mpirt"
)

// Histogram is SENSEI's classic built-in mini-analysis: a distributed
// histogram of one array, computed with two reductions (range, then
// counts). Registered as analysis type "histogram" with attributes
// mesh, array, bins.
type Histogram struct {
	ctx   *Context
	mesh  string
	array string
	bins  int

	lastEdges  []float64
	lastCounts []int64
	sub        []int64 // the bin kernel's sub-counts, reused
}

// NewHistogram constructs the analysis directly (tests, examples).
func NewHistogram(ctx *Context, meshName, array string, bins int) *Histogram {
	if bins < 1 {
		bins = 10
	}
	return &Histogram{ctx: ctx, mesh: meshName, array: array, bins: bins}
}

func init() {
	Register("histogram", func(ctx *Context, attrs map[string]string) (Analysis, error) {
		if err := CheckAttrs("histogram", attrs, "mesh", "array", "bins"); err != nil {
			return nil, err
		}
		bins := 10
		if b, ok := attrs["bins"]; ok {
			v, err := strconv.Atoi(b)
			if err != nil || v < 1 {
				return nil, fmt.Errorf("sensei: histogram: bad bins %q", b)
			}
			bins = v
		}
		array := attrs["array"]
		if array == "" {
			return nil, fmt.Errorf("sensei: histogram: array attribute required")
		}
		meshName := attrs["mesh"]
		if meshName == "" {
			meshName = "mesh"
		}
		return NewHistogram(ctx, meshName, array, bins), nil
	})
}

// Describe implements Analysis: one point array of one mesh.
func (h *Histogram) Describe() Requirements {
	return RequireArrays(h.mesh, AssocPoint, h.array)
}

// Execute implements Analysis.
func (h *Histogram) Execute(st *Step) (bool, error) {
	arr, err := st.PointArray(h.mesh, h.array)
	if err != nil {
		return false, err
	}
	lo, hi := Range(arr.Data)
	lo = h.ctx.Comm.AllreduceF64Scalar(lo, mpirt.OpMin)
	hi = h.ctx.Comm.AllreduceF64Scalar(hi, mpirt.OpMax)
	if hi <= lo {
		hi = lo + 1
	}
	counts := make([]int64, h.bins)
	h.sub = binCounts(counts, h.sub, arr.Data, lo, float64(h.bins)/(hi-lo))
	counts = h.ctx.Comm.AllreduceI64(counts, mpirt.OpSum)
	h.lastCounts = counts
	h.lastEdges = make([]float64, h.bins+1)
	for i := range h.lastEdges {
		h.lastEdges[i] = lo + float64(i)*(hi-lo)/float64(h.bins)
	}
	return false, nil
}

// Finalize implements Analysis.
func (h *Histogram) Finalize() error { return nil }

// Last returns the most recent bin edges (bins+1) and global counts
// (bins); nil before the first Execute.
func (h *Histogram) Last() (edges []float64, counts []int64) {
	return h.lastEdges, h.lastCounts
}
