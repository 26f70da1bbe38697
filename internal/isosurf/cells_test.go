package isosurf

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"nekrs-sensei/internal/render"
	"nekrs-sensei/internal/vtkdata"
)

// vtkHexToLattice maps VTK hexahedron corner order to the 2x2x2
// lattice order ContourGrid expects (i fastest, then j, then k).
var vtkHexToLattice = [8]int{0, 1, 3, 2, 4, 5, 7, 6}

// contourCellsReference and sliceCellsReference are ContourCells and
// SliceCells as they stood before the render hot path was rebuilt:
// every cell copied into a 2x2x2 lattice and handed to ContourGrid.
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
		ContourGrid(2, 2, 2, x[:], y[:], z[:], fv[:], sv[:], iso, out)
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

// TestCellFiltersInto: the Into variants append to what the soup
// holds, reuse its storage and the distance scratch, and report a
// field of the wrong length.
func TestCellFiltersInto(t *testing.T) {
	g, f, s := hexGrid(6, 4)
	want, _ := ContourCells(g, f, s, 0)
	var soup render.TriangleSoup
	soup.Append(render.Vec3{}, render.Vec3{X: 1}, render.Vec3{Y: 1}, 7, 8, 9)
	if err := ContourCellsInto(&soup, g, f, s, 0); err != nil {
		t.Fatal(err)
	}
	if soup.NumTriangles() != 1+want.NumTriangles() || soup.Scalars[0] != 7 ||
		!reflect.DeepEqual(soup.Positions[9:], want.Positions) {
		t.Error("ContourCellsInto did not append to the soup")
	}

	wantSlice, _ := SliceCells(g, [3]float64{0, 0, 1}, 0.4, s)
	var dist []float64
	var err error
	allocs := testing.AllocsPerRun(5, func() {
		soup.Reset()
		if dist, err = SliceCellsInto(&soup, dist, g, [3]float64{0, 0, 1}, 0.4, s); err != nil {
			t.Fatal(err)
		}
		soup.Reset()
		if err = ContourCellsInto(&soup, g, f, s, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("filters into a warm soup allocate %v times per run, want 0", allocs)
	}
	soup.Reset()
	if dist, err = SliceCellsInto(&soup, dist, g, [3]float64{0, 0, 1}, 0.4, s); err != nil || !sameSoup(&soup, wantSlice) {
		t.Errorf("SliceCellsInto with reused scratch: err %v, same %v", err, sameSoup(&soup, wantSlice))
	}
	if len(dist) != g.NumPoints() {
		t.Errorf("distance scratch has %d values for %d points", len(dist), g.NumPoints())
	}

	if err := ContourCellsInto(&soup, g, f[:10], s, 0); err == nil {
		t.Error("short field accepted")
	}
	if _, err := SliceCells(g, [3]float64{0, 0, 1}, 0.4, s[:10]); err == nil {
		t.Error("short scalar accepted")
	}
}

func benchGrid() (*vtkdata.UnstructuredGrid, []float64, []float64) { return hexGrid(20, 1) }

func BenchmarkContourCells(b *testing.B) {
	g, f, s := benchGrid()
	var soup render.TriangleSoup
	if err := ContourCellsInto(&soup, g, f, s, 0); err != nil { // the first call grows the soup
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		soup.Reset()
		if err := ContourCellsInto(&soup, g, f, s, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(soup.NumTriangles()), "triangles")
}

func BenchmarkSliceCells(b *testing.B) {
	g, _, s := benchGrid()
	var soup render.TriangleSoup
	dist, err := SliceCellsInto(&soup, nil, g, [3]float64{0, 1, 0}, 0.5, s) // the first call grows soup and scratch
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		soup.Reset()
		if dist, err = SliceCellsInto(&soup, dist, g, [3]float64{0, 1, 0}, 0.5, s); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(soup.NumTriangles()), "triangles")
}
