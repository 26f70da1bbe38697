// Package probe implements a history-points analysis adaptor, the
// SENSEI equivalent of Nek5000/NekRS's `hpts` monitors: a fixed set of
// probe points is sampled from the simulation's fields at every
// trigger and appended to a CSV time series on rank 0.
//
// Like every SENSEI analysis, the probe sees simulation data only
// through the VTK data model: points are located in the grid's
// hexahedral cells and interpolated trilinearly, so the adaptor works
// unchanged against the in situ solver adaptor or the in transit
// stream adaptor. Registered as analysis type "probe" with attributes
// points ("x,y,z; x,y,z; ..."), arrays (comma-separated) and output
// (CSV filename).
package probe

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"nekrs-sensei/internal/mpirt"
	"nekrs-sensei/internal/sensei"
	"nekrs-sensei/internal/vtkdata"
)

// Point is one probe location.
type Point struct {
	X, Y, Z float64
}

// Adaptor samples fields at fixed points each trigger.
type Adaptor struct {
	ctx      *sensei.Context
	meshName string
	points   []Point
	arrays   []string
	output   string

	file    *os.File
	history [][]float64 // rank 0: one row per trigger (time + values)
}

// New constructs the probe programmatically.
func New(ctx *sensei.Context, meshName string, points []Point, arrays []string, output string) *Adaptor {
	if meshName == "" {
		meshName = "mesh"
	}
	if output == "" {
		output = "probes.csv"
	}
	return &Adaptor{ctx: ctx, meshName: meshName, points: points, arrays: arrays, output: output}
}

// ParsePoints parses "x,y,z; x,y,z; ..." into probe points.
func ParsePoints(s string) ([]Point, error) {
	var out []Point
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		coords := strings.Split(part, ",")
		if len(coords) != 3 {
			return nil, fmt.Errorf("probe: point %q needs x,y,z", part)
		}
		var p Point
		for i, c := range coords {
			v, err := strconv.ParseFloat(strings.TrimSpace(c), 64)
			if err != nil {
				return nil, fmt.Errorf("probe: point %q: %w", part, err)
			}
			switch i {
			case 0:
				p.X = v
			case 1:
				p.Y = v
			case 2:
				p.Z = v
			}
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("probe: no points given")
	}
	return out, nil
}

func init() {
	sensei.Register("probe", func(ctx *sensei.Context, attrs map[string]string) (sensei.Analysis, error) {
		if err := sensei.CheckAttrs("probe", attrs, "mesh", "points", "arrays", "output"); err != nil {
			return nil, err
		}
		points, err := ParsePoints(attrs["points"])
		if err != nil {
			return nil, err
		}
		var arrays []string
		for _, a := range strings.Split(attrs["arrays"], ",") {
			if a = strings.TrimSpace(a); a != "" {
				arrays = append(arrays, a)
			}
		}
		if len(arrays) == 0 {
			return nil, fmt.Errorf("probe: arrays attribute required")
		}
		return New(ctx, attrs["mesh"], points, arrays, attrs["output"]), nil
	})
}

// History returns rank 0's sampled rows (time followed by one value
// per point per array).
func (a *Adaptor) History() [][]float64 { return a.history }

// sampleCell interpolates array values at (x, y, z) inside the
// axis-aligned hex cell c, returning ok=false when the point is
// outside. The SEM-to-VTK conversion produces axis-aligned subcells,
// so trilinear local coordinates are exact.
func sampleCell(g *vtkdata.UnstructuredGrid, conn []int64, x, y, z float64, arrays []*vtkdata.DataArray, out []float64) bool {
	// Bounding box of the 8 corners.
	lo := [3]float64{math.Inf(1), math.Inf(1), math.Inf(1)}
	hi := [3]float64{math.Inf(-1), math.Inf(-1), math.Inf(-1)}
	for _, p := range conn {
		for d := 0; d < 3; d++ {
			v := g.Points[3*p+int64(d)]
			if v < lo[d] {
				lo[d] = v
			}
			if v > hi[d] {
				hi[d] = v
			}
		}
	}
	const eps = 1e-12
	if x < lo[0]-eps || x > hi[0]+eps || y < lo[1]-eps || y > hi[1]+eps || z < lo[2]-eps || z > hi[2]+eps {
		return false
	}
	// Local coordinates in [0,1] per axis (degenerate axes map to 0).
	lc := [3]float64{}
	pt := [3]float64{x, y, z}
	for d := 0; d < 3; d++ {
		if hi[d] > lo[d] {
			lc[d] = (pt[d] - lo[d]) / (hi[d] - lo[d])
		}
	}
	// Trilinear weights in VTK hex corner order:
	// (0,0,0),(1,0,0),(1,1,0),(0,1,0),(0,0,1),(1,0,1),(1,1,1),(0,1,1).
	wx := [2]float64{1 - lc[0], lc[0]}
	wy := [2]float64{1 - lc[1], lc[1]}
	wz := [2]float64{1 - lc[2], lc[2]}
	corner := [8][3]int{{0, 0, 0}, {1, 0, 0}, {1, 1, 0}, {0, 1, 0}, {0, 0, 1}, {1, 0, 1}, {1, 1, 1}, {0, 1, 1}}
	for ai, arr := range arrays {
		var v float64
		for c, idx := range conn {
			w := wx[corner[c][0]] * wy[corner[c][1]] * wz[corner[c][2]]
			v += w * arr.Data[idx]
		}
		out[ai] = v
	}
	return true
}

// Describe implements sensei.Analysis: the sampled point arrays of
// one mesh.
func (a *Adaptor) Describe() sensei.Requirements {
	return sensei.RequireArrays(a.meshName, sensei.AssocPoint, a.arrays...)
}

// Execute implements sensei.Analysis.
func (a *Adaptor) Execute(st *sensei.Step) (bool, error) {
	g, err := st.Mesh(a.meshName)
	if err != nil {
		return false, err
	}
	arrs := make([]*vtkdata.DataArray, len(a.arrays))
	for i, name := range a.arrays {
		if arrs[i], err = st.PointArray(a.meshName, name); err != nil {
			return false, err
		}
	}

	// Local sampling: a point owned by several ranks (on a shared
	// face) carries the same value, so averaging contributions is
	// exact for continuous fields.
	nv := len(a.arrays)
	vals := make([]float64, len(a.points)*nv)
	hits := make([]float64, len(a.points))
	tmp := make([]float64, nv)
	for pi, p := range a.points {
		start := int64(0)
		for c := 0; c < g.NumCells(); c++ {
			end := g.Offsets[c]
			conn := g.Connectivity[start:end]
			start = end
			if g.CellTypes[c] != vtkdata.VTKHexahedron || len(conn) != 8 {
				continue
			}
			if sampleCell(g, conn, p.X, p.Y, p.Z, arrs, tmp) {
				for ai := 0; ai < nv; ai++ {
					vals[pi*nv+ai] += tmp[ai]
				}
				hits[pi]++
				break // one cell per rank suffices
			}
		}
	}
	vals = a.ctx.Comm.AllreduceF64(vals, mpirt.OpSum)
	hits = a.ctx.Comm.AllreduceF64(hits, mpirt.OpSum)
	for pi, h := range hits {
		if h == 0 {
			return false, fmt.Errorf("probe: point %d (%v) outside the mesh", pi, a.points[pi])
		}
		for ai := 0; ai < nv; ai++ {
			vals[pi*nv+ai] /= h
		}
	}

	if a.ctx.Comm.Rank() == 0 {
		row := append([]float64{st.Time()}, vals...)
		a.history = append(a.history, row)
		if err := a.appendCSV(st.TimeStep(), row); err != nil {
			return false, err
		}
	}
	return false, nil
}

func (a *Adaptor) appendCSV(step int, row []float64) error {
	if a.file == nil {
		dir := a.ctx.OutputDir
		if dir == "" {
			dir = "."
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(dir, a.output))
		if err != nil {
			return err
		}
		a.file = f
		// Header: step, time, then p<i>_<array>.
		cols := []string{"step", "time"}
		for pi := range a.points {
			for _, name := range a.arrays {
				cols = append(cols, fmt.Sprintf("p%d_%s", pi, name))
			}
		}
		if _, err := fmt.Fprintln(f, strings.Join(cols, ",")); err != nil {
			return err
		}
	}
	cells := make([]string, 0, len(row)+1)
	cells = append(cells, strconv.Itoa(step))
	for _, v := range row {
		cells = append(cells, strconv.FormatFloat(v, 'g', 12, 64))
	}
	_, err := fmt.Fprintln(a.file, strings.Join(cells, ","))
	return err
}

// Finalize closes the CSV and counts it as one file of its size.
func (a *Adaptor) Finalize() error {
	if a.file == nil {
		return nil
	}
	if st, err := a.file.Stat(); err == nil {
		a.ctx.Storage.AddFile(st.Size())
	}
	return a.file.Close()
}
