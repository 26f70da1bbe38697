package isosurf

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"nekrs-sensei/internal/render"
	"nekrs-sensei/internal/vtkdata"
)

// vtkHexToLattice maps VTK hexahedron corner order to the 2x2x2
// lattice order contourGrid expects (i fastest, then j, then k).
var vtkHexToLattice = [8]int{0, 1, 3, 2, 4, 5, 7, 6}

// contourCellsReference and sliceCellsReference are ContourCells and
// SliceCells as they stood before the render hot path was rebuilt:
// every cell copied into a 2x2x2 lattice and handed to contourGrid.
func contourCellsReference(g *vtkdata.UnstructuredGrid, f, s []float64, iso float64) *render.TriangleSoup {
	out := &render.TriangleSoup{}
	var x, y, z, fv, sv [8]float64
	start := int64(0)
	for c := 0; c < g.NumCells(); c++ {
		end := g.Offsets[c]
		if g.CellTypes[c] != vtkdata.VTKHexahedron || end-start != 8 {
			start = end
			continue
		}
		conn := g.Connectivity[start:end]
		start = end
		for lat, vtk := range vtkHexToLattice {
			p := conn[vtk]
			x[lat] = g.Points[3*p]
			y[lat] = g.Points[3*p+1]
			z[lat] = g.Points[3*p+2]
			fv[lat] = f[p]
			sv[lat] = s[p]
		}
		contourGrid(2, 2, 2, x[:], y[:], z[:], fv[:], sv[:], iso, out)
	}
	return out
}

func sliceCellsReference(g *vtkdata.UnstructuredGrid, normal [3]float64, c float64, s []float64) *render.TriangleSoup {
	dist := make([]float64, g.NumPoints())
	for p := range dist {
		dist[p] = normal[0]*g.Points[3*p] + normal[1]*g.Points[3*p+1] + normal[2]*g.Points[3*p+2] - c
	}
	return contourCellsReference(g, dist, s, 0)
}

// hexGrid is an n³-cell hexahedral grid over the unit cube with
// jittered interior points, a wedge-typed and a short cell mixed in
// (both skipped by the filters), and two smooth fields.
func hexGrid(n int, seed int64) (g *vtkdata.UnstructuredGrid, f, s []float64) {
	rng := rand.New(rand.NewSource(seed))
	np := n + 1
	g = &vtkdata.UnstructuredGrid{}
	h := 1 / float64(n)
	for k := 0; k < np; k++ {
		for j := 0; j < np; j++ {
			for i := 0; i < np; i++ {
				x, y, z := float64(i)*h, float64(j)*h, float64(k)*h
				g.Points = append(g.Points, x+0.2*h*(rng.Float64()-0.5), y+0.2*h*(rng.Float64()-0.5), z+0.2*h*(rng.Float64()-0.5))
				f = append(f, math.Sin(5*x+rng.Float64()*0.1)*math.Cos(4*y)+z-0.5)
				s = append(s, x*y+z)
			}
		}
	}
	id := func(i, j, k int) int64 { return int64(k*np*np + j*np + i) }
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				g.Connectivity = append(g.Connectivity,
					id(i, j, k), id(i+1, j, k), id(i+1, j+1, k), id(i, j+1, k),
					id(i, j, k+1), id(i+1, j, k+1), id(i+1, j+1, k+1), id(i, j+1, k+1))
				g.Offsets = append(g.Offsets, int64(len(g.Connectivity)))
				g.CellTypes = append(g.CellTypes, vtkdata.VTKHexahedron)
			}
		}
		// Not hexahedra: an 8-point cell of another type, a 4-point cell.
		g.Connectivity = append(g.Connectivity, 0, 1, 2, 3, 4, 5, 6, 7)
		g.Offsets = append(g.Offsets, int64(len(g.Connectivity)))
		g.CellTypes = append(g.CellTypes, 13)
		g.Connectivity = append(g.Connectivity, 0, 1, 2, 3)
		g.Offsets = append(g.Offsets, int64(len(g.Connectivity)))
		g.CellTypes = append(g.CellTypes, vtkdata.VTKHexahedron)
	}
	return g, f, s
}

// TestCellFiltersMatchReference: the filters emit the triangles of the
// previous implementation, bit for bit and in the same order, also
// with field values exactly on the iso level and NaNs in the field.
func TestCellFiltersMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		g, f, s := hexGrid(9, seed)
		f[17], f[200] = 0.1, 0.1 // exactly on an iso level below
		f[333] = math.NaN()
		for _, iso := range []float64{-0.3, 0, 0.1, 0.45, 9} {
			got, err := ContourCells(g, f, s, iso)
			if err != nil {
				t.Fatal(err)
			}
			want := contourCellsReference(g, f, s, iso)
			if iso < 9 && want.NumTriangles() == 0 {
				t.Fatalf("seed %d iso %g: reference is empty", seed, iso)
			}
			if !sameSoup(got, want) {
				t.Errorf("seed %d iso %g: contour differs from the reference (%d vs %d triangles)",
					seed, iso, got.NumTriangles(), want.NumTriangles())
			}
		}
		for _, pl := range []struct {
			n [3]float64
			c float64
		}{{[3]float64{0, 1, 0}, 0.5}, {[3]float64{0, 0, 1}, 1.0 / 3}, {[3]float64{1, -2, 0.5}, 0.1}} {
			got, err := SliceCells(g, pl.n, pl.c, s)
			if err != nil {
				t.Fatal(err)
			}
			want := sliceCellsReference(g, pl.n, pl.c, s)
			if want.NumTriangles() == 0 {
				t.Fatalf("seed %d plane %v: reference is empty", seed, pl)
			}
			if !sameSoup(got, want) {
				t.Errorf("seed %d plane %v: slice differs from the reference", seed, pl)
			}
		}
	}
}

// sameSoup compares bit patterns, so NaN coordinates (from the NaN
// field value) compare equal to themselves.
func sameSoup(a, b *render.TriangleSoup) bool {
	bits := func(v []float64) []uint64 {
		out := make([]uint64, len(v))
		for i, x := range v {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	return reflect.DeepEqual(bits(a.Positions), bits(b.Positions)) && reflect.DeepEqual(bits(a.Scalars), bits(b.Scalars))
}

// TestCellRangesConcatenate: the range forms over any split of the
// cells — empty and one-cell ranges included — append, range after
// range, the bits ContourCells and SliceCells emit for the whole grid.
func TestCellRangesConcatenate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for seed := int64(1); seed <= 3; seed++ {
		g, f, s := hexGrid(9, seed)
		nc := g.NumCells()
		wantContour, _ := ContourCells(g, f, s, 0.1)
		wantSlice, _ := SliceCells(g, [3]float64{1, -2, 0.5}, 0.1, s)
		for split := 0; split < 20; split++ {
			// Cut points, sorted, repeats kept: a repeat is an empty
			// range, neighbours one apart a one-cell range.
			cuts := []int{0, nc}
			for k := rng.Intn(40); k > 0; k-- {
				c := rng.Intn(nc + 1)
				cuts = append(cuts, c, c, min(c+1, nc))
			}
			slices.Sort(cuts)
			var contour, slice render.TriangleSoup
			for k := 0; k+1 < len(cuts); k++ {
				ContourCellRange(&contour, g, f, s, 0.1, cuts[k], cuts[k+1])
				SliceCellRange(&slice, g, [3]float64{1, -2, 0.5}, 0.1, s, cuts[k], cuts[k+1])
			}
			if !sameSoup(&contour, wantContour) {
				t.Errorf("seed %d cuts %v: contour ranges differ from ContourCells (%d vs %d triangles)",
					seed, cuts, contour.NumTriangles(), wantContour.NumTriangles())
			}
			if !sameSoup(&slice, wantSlice) {
				t.Errorf("seed %d cuts %v: slice ranges differ from SliceCells (%d vs %d triangles)",
					seed, cuts, slice.NumTriangles(), wantSlice.NumTriangles())
			}
		}
	}
}

// TestCellFiltersInto: the range forms append to what the soup holds,
// fill a soup with room for their cells without allocating, and the
// whole-grid forms report a field of the wrong length.
func TestCellFiltersInto(t *testing.T) {
	g, f, s := hexGrid(6, 4)
	want, _ := ContourCells(g, f, s, 0)
	var soup render.TriangleSoup
	soup.Append(render.Vec3{}, render.Vec3{X: 1}, render.Vec3{Y: 1}, 7, 8, 9)
	ContourCellRange(&soup, g, f, s, 0, 0, g.NumCells())
	if soup.NumTriangles() != 1+want.NumTriangles() || soup.Scalars[0] != 7 ||
		!reflect.DeepEqual(soup.Positions[9:], want.Positions) {
		t.Error("ContourCellRange did not append to the soup")
	}

	const chunk = 16
	full := chunk * MaxCellTriangles
	soup = render.TriangleSoup{Positions: make([]float64, 0, 9*full), Scalars: make([]float64, 0, 3*full)}
	allocs := testing.AllocsPerRun(5, func() {
		for c0 := 0; c0 < g.NumCells(); c0 += chunk {
			c1 := min(c0+chunk, g.NumCells())
			soup.Reset()
			SliceCellRange(&soup, g, [3]float64{0, 0, 1}, 0.4, s, c0, c1)
			soup.Reset()
			ContourCellRange(&soup, g, f, s, 0, c0, c1)
		}
	})
	if allocs != 0 {
		t.Errorf("range filters into a soup of %d triangles allocate %v times per run, want 0", full, allocs)
	}

	if _, err := ContourCells(g, f[:10], s, 0); err == nil {
		t.Error("short field accepted")
	}
	if _, err := SliceCells(g, [3]float64{0, 0, 1}, 0.4, s[:10]); err == nil {
		t.Error("short scalar accepted")
	}
}

func benchGrid() (*vtkdata.UnstructuredGrid, []float64, []float64) { return hexGrid(20, 1) }

// benchmarkCellRange fills one soup with room for benchChunk cells a
// range at a time over the whole grid, the way catalyst.Adaptor feeds
// its rasteriser.
func benchmarkCellRange(b *testing.B, g *vtkdata.UnstructuredGrid, fill func(out *render.TriangleSoup, c0, c1 int)) {
	const benchChunk = 256
	full := benchChunk * MaxCellTriangles
	soup := render.TriangleSoup{Positions: make([]float64, 0, 9*full), Scalars: make([]float64, 0, 3*full)}
	tris := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tris = 0
		for c0 := 0; c0 < g.NumCells(); c0 += benchChunk {
			soup.Reset()
			fill(&soup, c0, min(c0+benchChunk, g.NumCells()))
			tris += soup.NumTriangles()
		}
	}
	b.ReportMetric(float64(tris), "triangles")
}

func BenchmarkContourCellRange(b *testing.B) {
	g, f, s := benchGrid()
	benchmarkCellRange(b, g, func(out *render.TriangleSoup, c0, c1 int) {
		ContourCellRange(out, g, f, s, 0, c0, c1)
	})
}

func BenchmarkSliceCellRange(b *testing.B) {
	g, _, s := benchGrid()
	benchmarkCellRange(b, g, func(out *render.TriangleSoup, c0, c1 int) {
		SliceCellRange(out, g, [3]float64{0, 1, 0}, 0.5, s, c0, c1)
	})
}
