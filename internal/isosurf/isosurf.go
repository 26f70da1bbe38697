// Package isosurf extracts isosurfaces and plane slices from
// spectral-element fields, the role of ParaView/Catalyst's contour and
// slice filters in the paper's rendering pipelines.
//
// Each element's GLL point lattice is treated as a curvilinear grid of
// hexahedral subcells; every subcell is decomposed into six tetrahedra
// and contoured with marching tetrahedra. The output is a triangle
// soup with a secondary scalar interpolated onto the surface, ready
// for the rasterizer. (VTK uses marching cubes; marching tetrahedra
// produces an equivalent, watertight triangulation without the
// 256-case tables.)
package isosurf

import "nekrs-sensei/internal/render"

// tets lists the 6-tetrahedron decomposition of a hexahedron whose
// corners are ordered (i,j,k),(i+1,j,k),(i+1,j+1,k),(i,j+1,k), then the
// k+1 layer in the same order. All tets share the 0-6 main diagonal,
// which makes the decomposition face-consistent between neighbors.
var tets = [6][4]int{
	{0, 1, 2, 6},
	{0, 2, 3, 6},
	{0, 3, 7, 6},
	{0, 7, 4, 6},
	{0, 4, 5, 6},
	{0, 5, 1, 6},
}

// edgeVert linearly interpolates the iso crossing on edge (a, b).
func edgeVert(pa, pb render.Vec3, fa, fb, sa, sb, iso float64) (render.Vec3, float64) {
	t := 0.5
	if fb != fa {
		t = (iso - fa) / (fb - fa)
	}
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	return render.Vec3{
		X: pa.X + t*(pb.X-pa.X),
		Y: pa.Y + t*(pb.Y-pa.Y),
		Z: pa.Z + t*(pb.Z-pa.Z),
	}, sa + t*(sb-sa)
}

// marchTet emits 0, 1 or 2 triangles for one tetrahedron.
func marchTet(p [4]render.Vec3, f [4]float64, s [4]float64, iso float64, out *render.TriangleSoup) {
	var above [4]bool
	nAbove := 0
	for i := 0; i < 4; i++ {
		if f[i] >= iso {
			above[i] = true
			nAbove++
		}
	}
	switch nAbove {
	case 0, 4:
		return
	case 1, 3:
		// One vertex on its own side: a single triangle across the
		// three edges incident to it.
		lone := -1
		want := nAbove == 1
		for i := 0; i < 4; i++ {
			if above[i] == want {
				lone = i
				break
			}
		}
		var vs [3]render.Vec3
		var ss [3]float64
		k := 0
		for i := 0; i < 4; i++ {
			if i == lone {
				continue
			}
			vs[k], ss[k] = edgeVert(p[lone], p[i], f[lone], f[i], s[lone], s[i], iso)
			k++
		}
		out.Append(vs[0], vs[1], vs[2], ss[0], ss[1], ss[2])
	case 2:
		// Two/two split: a quad across the four crossing edges.
		var hi, lo [2]int
		ih, il := 0, 0
		for i := 0; i < 4; i++ {
			if above[i] {
				hi[ih] = i
				ih++
			} else {
				lo[il] = i
				il++
			}
		}
		v00, s00 := edgeVert(p[hi[0]], p[lo[0]], f[hi[0]], f[lo[0]], s[hi[0]], s[lo[0]], iso)
		v01, s01 := edgeVert(p[hi[0]], p[lo[1]], f[hi[0]], f[lo[1]], s[hi[0]], s[lo[1]], iso)
		v10, s10 := edgeVert(p[hi[1]], p[lo[0]], f[hi[1]], f[lo[0]], s[hi[1]], s[lo[0]], iso)
		v11, s11 := edgeVert(p[hi[1]], p[lo[1]], f[hi[1]], f[lo[1]], s[hi[1]], s[lo[1]], iso)
		out.Append(v00, v01, v11, s00, s01, s11)
		out.Append(v00, v11, v10, s00, s11, s10)
	}
}
