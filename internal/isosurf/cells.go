package isosurf

import (
	"fmt"

	"nekrs-sensei/internal/render"
	"nekrs-sensei/internal/vtkdata"
)

// MaxCellTriangles bounds what one cell adds to a soup: two triangles
// from each of its six tetrahedra.
const MaxCellTriangles = 2 * len(tets)

// ContourCells contours the iso level of the per-point field f over
// the hexahedral cells of a VTK unstructured grid, interpolating the
// secondary scalar s. This is the form the Catalyst adaptor uses,
// since analyses see simulation data only through the VTK data model.
func ContourCells(g *vtkdata.UnstructuredGrid, f, s []float64, iso float64) (*render.TriangleSoup, error) {
	if len(f) != g.NumPoints() || len(s) != g.NumPoints() {
		return nil, fmt.Errorf("isosurf: field length %d/%d does not match %d points", len(f), len(s), g.NumPoints())
	}
	out := &render.TriangleSoup{}
	ContourCellRange(out, g, f, s, iso, 0, g.NumCells())
	return out, nil
}

// SliceCells extracts the plane {x : n.x = c} through the grid's hex
// cells, colored by the per-point scalar s.
func SliceCells(g *vtkdata.UnstructuredGrid, normal [3]float64, c float64, s []float64) (*render.TriangleSoup, error) {
	if len(s) != g.NumPoints() {
		return nil, fmt.Errorf("isosurf: scalar length %d does not match %d points", len(s), g.NumPoints())
	}
	out := &render.TriangleSoup{}
	SliceCellRange(out, g, normal, c, s, 0, g.NumCells())
	return out, nil
}

// ContourCellRange appends to out what ContourCells emits for the
// cells [c0, c1), in cell order, so filling a soup from consecutive
// ranges gives ContourCells' soup, and a caller can draw each range's
// triangles before it cuts the next range into the same storage. A
// range adds at most MaxCellTriangles triangles per cell. f and s must
// hold one value per point.
func ContourCellRange(out *render.TriangleSoup, g *vtkdata.UnstructuredGrid, f, s []float64, iso float64, c0, c1 int) {
	cellRange(out, g, f, [3]float64{}, 0, s, iso, c0, c1)
}

// SliceCellRange appends to out what SliceCells emits for the cells
// [c0, c1), as ContourCellRange does: the zero contour of the plane's
// signed distance, evaluated at each cell's corners. s must hold one
// value per point.
func SliceCellRange(out *render.TriangleSoup, g *vtkdata.UnstructuredGrid, normal [3]float64, c float64, s []float64, c0, c1 int) {
	cellRange(out, g, nil, normal, c, s, 0, c0, c1)
}

// cellRange contours the iso level of f over the cells [c0, c1), or
// where f is nil, that of the signed distance n.x - c. A cell is looked
// at in two steps: its eight values decide whether the surface crosses
// it at all, and only a crossed cell has its corner positions and
// scalars gathered and its six tetrahedra marched — in the corner order
// of tets, which is VTK's hexahedron order.
func cellRange(out *render.TriangleSoup, g *vtkdata.UnstructuredGrid, f []float64, n [3]float64, c float64, s []float64, iso float64, c0, c1 int) {
	var cp [8]render.Vec3
	var cf, cs [8]float64
	start := int64(0)
	if c0 > 0 {
		start = g.Offsets[c0-1]
	}
	pts, conns, types := g.Points, g.Connectivity, g.CellTypes[c0:c1]
	n0, n1, n2 := n[0], n[1], n[2]
	for i, end := range g.Offsets[c0:c1] {
		hex := conns[start:end]
		start = end
		if types[i] != vtkdata.VTKHexahedron || len(hex) != 8 {
			continue
		}
		above := 0
		if f != nil {
			for k, p := range (*[8]int64)(hex) {
				cf[k] = f[p]
				if cf[k] >= iso {
					above++
				}
			}
		} else {
			for k, p := range (*[8]int64)(hex) {
				x := pts[3*p : 3*p+3 : 3*p+3]
				cf[k] = n0*x[0] + n1*x[1] + n2*x[2] - c
				if cf[k] >= iso {
					above++
				}
			}
		}
		if above == 0 || above == 8 {
			continue
		}
		for k, p := range (*[8]int64)(hex) {
			x := pts[3*p : 3*p+3 : 3*p+3]
			cp[k] = render.Vec3{X: x[0], Y: x[1], Z: x[2]}
			cs[k] = s[p]
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
