package isosurf

import (
	"math"
	"testing"
	"testing/quick"

	"nekrs-sensei/internal/mesh"
	"nekrs-sensei/internal/render"
)

// corner offsets (di, dj, dk) of the hex corner order of tets.
var corners = [8][3]int{
	{0, 0, 0}, {1, 0, 0}, {1, 1, 0}, {0, 1, 0},
	{0, 0, 1}, {1, 0, 1}, {1, 1, 1}, {0, 1, 1},
}

// contourGrid contours the iso level of f over one curvilinear grid of
// nx x ny x nz points (index k*nx*ny + j*nx + i), interpolating the
// secondary scalar s onto the surface. Results are appended to out:
// the reference of the cell filters and the lattice the geometric
// tests below march.
func contourGrid(nx, ny, nz int, x, y, z, f, s []float64, iso float64, out *render.TriangleSoup) {
	idx := func(i, j, k int) int { return k*nx*ny + j*nx + i }
	for k := 0; k+1 < nz; k++ {
		for j := 0; j+1 < ny; j++ {
			for i := 0; i+1 < nx; i++ {
				var cp [8]render.Vec3
				var cf, cs [8]float64
				// Quick reject: all corners same side.
				allAbove, allBelow := true, true
				for c, d := range corners {
					q := idx(i+d[0], j+d[1], k+d[2])
					cp[c] = render.Vec3{X: x[q], Y: y[q], Z: z[q]}
					cf[c] = f[q]
					cs[c] = s[q]
					if cf[c] >= iso {
						allBelow = false
					} else {
						allAbove = false
					}
				}
				if allAbove || allBelow {
					continue
				}
				for _, tet := range tets {
					marchTet(
						[4]render.Vec3{cp[tet[0]], cp[tet[1]], cp[tet[2]], cp[tet[3]]},
						[4]float64{cf[tet[0]], cf[tet[1]], cf[tet[2]], cf[tet[3]]},
						[4]float64{cs[tet[0]], cs[tet[1]], cs[tet[2]], cs[tet[3]]},
						iso, out)
				}
			}
		}
	}
}

// contourMesh extracts the iso level of field f over all local elements of
// the mesh, carrying the secondary scalar s (pass f again to color by
// the contoured field itself).
func contourMesh(m *mesh.Mesh, f, s []float64, iso float64) *render.TriangleSoup {
	out := &render.TriangleSoup{}
	nq, np := m.Nq, m.Np
	for e := 0; e < m.Nelt; e++ {
		off := e * np
		contourGrid(nq, nq, nq,
			m.X[off:off+np], m.Y[off:off+np], m.Z[off:off+np],
			f[off:off+np], s[off:off+np], iso, out)
	}
	return out
}

// slicePlane extracts the plane {x : n.x = c} through the mesh,
// colored by the scalar s. Implemented as the zero contour of the
// plane's signed distance, which is exact for the linear distance
// field.
func slicePlane(m *mesh.Mesh, normal [3]float64, c float64, s []float64) *render.TriangleSoup {
	out := &render.TriangleSoup{}
	nq, np := m.Nq, m.Np
	dist := make([]float64, np)
	for e := 0; e < m.Nelt; e++ {
		off := e * np
		for p := 0; p < np; p++ {
			dist[p] = normal[0]*m.X[off+p] + normal[1]*m.Y[off+p] + normal[2]*m.Z[off+p] - c
		}
		contourGrid(nq, nq, nq,
			m.X[off:off+np], m.Y[off:off+np], m.Z[off:off+np],
			dist, s[off:off+np], 0, out)
	}
	return out
}

// regularGrid builds an n^3 point grid over [0,1]^3 with field values
// from fn and secondary scalar from sn.
func regularGrid(n int, fn, sn func(x, y, z float64) float64) (x, y, z, f, s []float64) {
	x = make([]float64, n*n*n)
	y = make([]float64, n*n*n)
	z = make([]float64, n*n*n)
	f = make([]float64, n*n*n)
	s = make([]float64, n*n*n)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				q := k*n*n + j*n + i
				x[q] = float64(i) / float64(n-1)
				y[q] = float64(j) / float64(n-1)
				z[q] = float64(k) / float64(n-1)
				f[q] = fn(x[q], y[q], z[q])
				s[q] = sn(x[q], y[q], z[q])
			}
		}
	}
	return
}

func triArea(p []float64) float64 {
	a := render.Vec3{X: p[3] - p[0], Y: p[4] - p[1], Z: p[5] - p[2]}
	b := render.Vec3{X: p[6] - p[0], Y: p[7] - p[1], Z: p[8] - p[2]}
	return 0.5 * a.Cross(b).Norm()
}

func soupArea(s *render.TriangleSoup) float64 {
	var area float64
	for t := 0; t < s.NumTriangles(); t++ {
		area += triArea(s.Positions[9*t : 9*t+9])
	}
	return area
}

func TestPlaneContourExact(t *testing.T) {
	// Contour of the linear field z at iso 0.4 is the plane z=0.4 with
	// area exactly 1.
	const n = 7
	x, y, z, f, s := regularGrid(n,
		func(x, y, z float64) float64 { return z },
		func(x, y, z float64) float64 { return x })
	out := &render.TriangleSoup{}
	contourGrid(n, n, n, x, y, z, f, s, 0.4, out)
	if out.NumTriangles() == 0 {
		t.Fatal("no triangles")
	}
	for i := 2; i < len(out.Positions); i += 3 {
		if math.Abs(out.Positions[i]-0.4) > 1e-12 {
			t.Fatalf("vertex z = %v, want 0.4", out.Positions[i])
		}
	}
	if area := soupArea(out); math.Abs(area-1) > 1e-10 {
		t.Errorf("plane area = %v, want 1", area)
	}
	// Secondary scalar is x, interpolated exactly for linear fields.
	for tr := 0; tr < out.NumTriangles(); tr++ {
		for v := 0; v < 3; v++ {
			xc := out.Positions[9*tr+3*v]
			sc := out.Scalars[3*tr+v]
			if math.Abs(xc-sc) > 1e-12 {
				t.Fatalf("scalar %v != x %v", sc, xc)
			}
		}
	}
}

func TestSphereContour(t *testing.T) {
	// Distance-from-center field: the 0.3-isosurface is a sphere of
	// radius 0.3; verify vertex radii and total area.
	const n = 24
	c := render.Vec3{X: 0.5, Y: 0.5, Z: 0.5}
	x, y, z, f, s := regularGrid(n,
		func(x, y, z float64) float64 {
			return math.Sqrt((x-c.X)*(x-c.X) + (y-c.Y)*(y-c.Y) + (z-c.Z)*(z-c.Z))
		},
		func(x, y, z float64) float64 { return 1 })
	out := &render.TriangleSoup{}
	contourGrid(n, n, n, x, y, z, f, s, 0.3, out)
	if out.NumTriangles() < 100 {
		t.Fatalf("too few triangles: %d", out.NumTriangles())
	}
	h := 1.0 / float64(n-1)
	for i := 0; i < len(out.Positions); i += 3 {
		r := math.Sqrt(
			(out.Positions[i]-c.X)*(out.Positions[i]-c.X) +
				(out.Positions[i+1]-c.Y)*(out.Positions[i+1]-c.Y) +
				(out.Positions[i+2]-c.Z)*(out.Positions[i+2]-c.Z))
		if math.Abs(r-0.3) > h {
			t.Fatalf("vertex radius %v, want 0.3 +- %v", r, h)
		}
	}
	want := 4 * math.Pi * 0.3 * 0.3
	if area := soupArea(out); math.Abs(area-want)/want > 0.05 {
		t.Errorf("sphere area = %v, want %v within 5%%", area, want)
	}
}

func TestNoCrossingEmpty(t *testing.T) {
	const n = 5
	x, y, z, f, s := regularGrid(n,
		func(x, y, z float64) float64 { return 1 },
		func(x, y, z float64) float64 { return 0 })
	out := &render.TriangleSoup{}
	contourGrid(n, n, n, x, y, z, f, s, 5, out)
	if out.NumTriangles() != 0 {
		t.Errorf("expected empty, got %d triangles", out.NumTriangles())
	}
}

// TestVerticesInsideBBox: contour vertices of any field stay inside
// the grid bounding box.
func TestVerticesInsideBBox(t *testing.T) {
	f := func(seed int64) bool {
		rng := newRand(seed)
		const n = 5
		x, y, z, fv, s := regularGrid(n,
			func(x, y, z float64) float64 { return rng() },
			func(x, y, z float64) float64 { return rng() })
		out := &render.TriangleSoup{}
		contourGrid(n, n, n, x, y, z, fv, s, 0.5, out)
		for i := 0; i < len(out.Positions); i += 3 {
			for d := 0; d < 3; d++ {
				v := out.Positions[i+d]
				if v < -1e-12 || v > 1+1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// newRand is a tiny deterministic generator for property tests.
func newRand(seed int64) func() float64 {
	state := uint64(seed)*2654435761 + 1
	return func() float64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return float64(state%1000) / 1000
	}
}

func TestMeshContourAndSlice(t *testing.T) {
	m, err := mesh.NewBox(mesh.BoxConfig{
		Nx: 2, Ny: 2, Nz: 2, Lx: 1, Ly: 1, Lz: 1, Order: 4,
	}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := make([]float64, m.NumNodes())
	for i := range f {
		f[i] = m.X[i] // linear field
	}
	soup := contourMesh(m, f, f, 0.5)
	if soup.NumTriangles() == 0 {
		t.Fatal("mesh contour empty")
	}
	for i := 0; i < len(soup.Positions); i += 3 {
		if math.Abs(soup.Positions[i]-0.5) > 1e-10 {
			t.Fatalf("contour x = %v, want 0.5", soup.Positions[i])
		}
	}
	slice := slicePlane(m, [3]float64{0, 0, 1}, 0.25, f)
	if slice.NumTriangles() == 0 {
		t.Fatal("slice empty")
	}
	var area float64
	for tr := 0; tr < slice.NumTriangles(); tr++ {
		area += triArea(slice.Positions[9*tr : 9*tr+9])
	}
	if math.Abs(area-1) > 1e-9 {
		t.Errorf("slice area = %v, want 1", area)
	}
	for i := 2; i < len(slice.Positions); i += 3 {
		if math.Abs(slice.Positions[i]-0.25) > 1e-12 {
			t.Fatalf("slice z = %v, want 0.25", slice.Positions[i])
		}
	}
}

func TestWatertightPlaneNoGaps(t *testing.T) {
	// The plane-slice area must be exact even on a mesh partitioned
	// into multiple elements: face-consistent tet decomposition leaves
	// no cracks for fields linear on each subcell.
	m, err := mesh.NewBox(mesh.BoxConfig{
		Nx: 3, Ny: 2, Nz: 2, Lx: 2, Ly: 1, Lz: 1, Order: 3,
	}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := make([]float64, m.NumNodes())
	slice := slicePlane(m, [3]float64{1, 0, 0}, 0.77, s)
	var area float64
	for tr := 0; tr < slice.NumTriangles(); tr++ {
		area += triArea(slice.Positions[9*tr : 9*tr+9])
	}
	if math.Abs(area-1) > 1e-9 {
		t.Errorf("cross-section area = %v, want 1", area)
	}
}

func BenchmarkSphereContour(b *testing.B) {
	const n = 16
	x, y, z, f, s := regularGrid(n,
		func(x, y, z float64) float64 {
			return math.Sqrt((x-0.5)*(x-0.5) + (y-0.5)*(y-0.5) + (z-0.5)*(z-0.5))
		},
		func(x, y, z float64) float64 { return x })
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out := &render.TriangleSoup{}
		contourGrid(n, n, n, x, y, z, f, s, 0.3, out)
	}
}
