package sensei

import (
	"fmt"
	"strconv"

	"nekrs-sensei/internal/mpirt"
)

// Autocorrelation is SENSEI's second classic mini-analysis: the
// temporal autocorrelation of one array over a sliding window of the
// last `window` triggers, volume-summed and lag-normalized. Registered
// as analysis type "autocorrelation" with attributes mesh, array,
// window.
type Autocorrelation struct {
	ctx    *Context
	mesh   string
	array  string
	window int

	ring   [][]float64 // previous snapshots, newest last
	acc    []float64   // acc[k] = sum over triggers of <f(t), f(t-k)>
	counts []int64
}

// NewAutocorrelation constructs the analysis directly.
func NewAutocorrelation(ctx *Context, meshName, array string, window int) *Autocorrelation {
	if window < 1 {
		window = 4
	}
	return &Autocorrelation{
		ctx: ctx, mesh: meshName, array: array, window: window,
		acc:    make([]float64, window+1),
		counts: make([]int64, window+1),
	}
}

func init() {
	Register("autocorrelation", func(ctx *Context, attrs map[string]string) (Analysis, error) {
		if err := CheckAttrs("autocorrelation", attrs, "mesh", "array", "window"); err != nil {
			return nil, err
		}
		array := attrs["array"]
		if array == "" {
			return nil, fmt.Errorf("sensei: autocorrelation: array attribute required")
		}
		meshName := attrs["mesh"]
		if meshName == "" {
			meshName = "mesh"
		}
		window := 4
		if w, ok := attrs["window"]; ok {
			v, err := strconv.Atoi(w)
			if err != nil || v < 1 {
				return nil, fmt.Errorf("sensei: autocorrelation: bad window %q", w)
			}
			window = v
		}
		return NewAutocorrelation(ctx, meshName, array, window), nil
	})
}

// Describe implements Analysis: one point array of one mesh.
func (a *Autocorrelation) Describe() Requirements {
	return RequireArrays(a.mesh, AssocPoint, a.array)
}

// Execute implements Analysis: accumulates lag products of the
// current snapshot against the window.
func (a *Autocorrelation) Execute(st *Step) (bool, error) {
	arr, err := st.PointArray(a.mesh, a.array)
	if err != nil {
		return false, err
	}
	now := append([]float64(nil), arr.Data...)

	// Lag 0 against itself, lag k against the k-th previous snapshot.
	for k := 0; k <= len(a.ring); k++ {
		if k > a.window {
			break
		}
		var prev []float64
		if k == 0 {
			prev = now
		} else {
			prev = a.ring[len(a.ring)-k]
		}
		var dot float64
		for i := range now {
			dot += now[i] * prev[i]
		}
		a.acc[k] += dot
		a.counts[k]++
	}
	a.ring = append(a.ring, now)
	if len(a.ring) > a.window {
		a.ring = a.ring[1:]
	}
	return false, nil
}

// Finalize implements Analysis.
func (a *Autocorrelation) Finalize() error { return nil }

// Correlations returns the global lag correlations C(k)/C(0) for
// k = 0..window (NaN-free: lags never observed report 0). Collective.
func (a *Autocorrelation) Correlations() []float64 {
	global := a.ctx.Comm.AllreduceF64(a.acc, mpirt.OpSum)
	out := make([]float64, len(global))
	if a.counts[0] == 0 || global[0] == 0 {
		return out
	}
	c0 := global[0] / float64(a.counts[0])
	for k := range out {
		if a.counts[k] > 0 {
			out[k] = (global[k] / float64(a.counts[k])) / c0
		}
	}
	return out
}
