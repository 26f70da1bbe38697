package isosurf

import (
	"fmt"
	"slices"

	"nekrs-sensei/internal/render"
	"nekrs-sensei/internal/vtkdata"
)

// ContourCells contours the iso level of the per-point field f over
// the hexahedral cells of a VTK unstructured grid, interpolating the
// secondary scalar s. This is the form the Catalyst adaptor uses,
// since analyses see simulation data only through the VTK data model.
func ContourCells(g *vtkdata.UnstructuredGrid, f, s []float64, iso float64) (*render.TriangleSoup, error) {
	out := &render.TriangleSoup{}
	if err := ContourCellsInto(out, g, f, s, iso); err != nil {
		return nil, err
	}
	return out, nil
}

// ContourCellsInto is ContourCells appending to a soup the caller
// owns, so a caller that contours every step reuses one soup's
// storage. A cell is looked at in two steps: its eight field values
// decide whether the surface crosses it at all, and only a crossed
// cell has its corner positions and scalars gathered and its six
// tetrahedra marched — in the corner order of ContourGrid, which VTK's
// hexahedron order happens to be.
func ContourCellsInto(out *render.TriangleSoup, g *vtkdata.UnstructuredGrid, f, s []float64, iso float64) error {
	if len(f) != g.NumPoints() || len(s) != g.NumPoints() {
		return fmt.Errorf("isosurf: field length %d/%d does not match %d points", len(f), len(s), g.NumPoints())
	}
	var cp [8]render.Vec3
	var cf, cs [8]float64
	start := int64(0)
	for c, end := range g.Offsets[:g.NumCells()] {
		conn := g.Connectivity[start:end]
		start = end
		if g.CellTypes[c] != vtkdata.VTKHexahedron || len(conn) != 8 {
			continue
		}
		above := 0
		for i, p := range conn {
			cf[i] = f[p]
			if cf[i] >= iso {
				above++
			}
		}
		if above == 0 || above == 8 {
			continue
		}
		for i, p := range conn {
			cp[i] = render.Vec3{X: g.Points[3*p], Y: g.Points[3*p+1], Z: g.Points[3*p+2]}
			cs[i] = s[p]
		}
		for _, tet := range tets {
			marchTet(
				[4]render.Vec3{cp[tet[0]], cp[tet[1]], cp[tet[2]], cp[tet[3]]},
				[4]float64{cf[tet[0]], cf[tet[1]], cf[tet[2]], cf[tet[3]]},
				[4]float64{cs[tet[0]], cs[tet[1]], cs[tet[2]], cs[tet[3]]},
				iso, out)
		}
	}
	return nil
}

// SliceCells extracts the plane {x : n.x = c} through the grid's hex
// cells, colored by the per-point scalar s.
func SliceCells(g *vtkdata.UnstructuredGrid, normal [3]float64, c float64, s []float64) (*render.TriangleSoup, error) {
	out := &render.TriangleSoup{}
	if _, err := SliceCellsInto(out, nil, g, normal, c, s); err != nil {
		return nil, err
	}
	return out, nil
}

// SliceCellsInto is SliceCells appending to a soup the caller owns.
// The slice is the zero contour of the plane's signed distance, which
// is evaluated at every point into dist; dist is scratch, grown when
// it is too short and returned for the next call.
func SliceCellsInto(out *render.TriangleSoup, dist []float64, g *vtkdata.UnstructuredGrid, normal [3]float64, c float64, s []float64) ([]float64, error) {
	dist = slices.Grow(dist[:0], g.NumPoints())[:g.NumPoints()]
	for p := range dist {
		dist[p] = normal[0]*g.Points[3*p] + normal[1]*g.Points[3*p+1] + normal[2]*g.Points[3*p+2] - c
	}
	return dist, ContourCellsInto(out, g, dist, s, 0)
}
