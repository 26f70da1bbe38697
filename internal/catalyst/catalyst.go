// Package catalyst is the reproduction's Catalyst AnalysisAdaptor: a
// SENSEI analysis back end that runs declarative rendering pipelines
// (slice and contour filters feeding a rasterizer) and writes PNG
// images, the role ParaView Catalyst plays in the paper's Polaris and
// JUWELS experiments.
//
// Where the real Catalyst is scripted through `analysis.py`, this
// adaptor reads an XML pipeline description (see ParsePipelines) named
// by the `filename` attribute of its <analysis> element — preserving
// the paper's property that rendering setup changes without
// recompiling the simulation. Every rank rasterizes only its local
// blocks; pipeline i's image is composited and written on rank i mod size.
package catalyst

import (
	"encoding/xml"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"nekrs-sensei/internal/isosurf"
	"nekrs-sensei/internal/mpirt"
	"nekrs-sensei/internal/render"
	"nekrs-sensei/internal/sensei"
	"nekrs-sensei/internal/vtkdata"
)

// SliceSpec is an axis plane filter: the plane {x : Normal.x = Offset}.
type SliceSpec struct {
	Normal [3]float64
	Offset float64
}

// ContourSpec is an isosurface filter on the named field.
type ContourSpec struct {
	Field string
	Iso   float64
}

// Pipeline renders one image per trigger: a filter (slice or contour)
// colored by Field through Colormap, seen from CameraDir.
type Pipeline struct {
	Width, Height int
	Output        string // filename pattern containing one %d for the step
	Colormap      string
	CameraDir     [3]float64
	Field         string  // array to color by
	Min, Max      float64 // scalar range; equal values mean auto
	Slice         *SliceSpec
	Contour       *ContourSpec
}

// xml parse targets for the pipeline script.
type xCatalyst struct {
	XMLName xml.Name `xml:"catalyst"`
	Images  []xImage `xml:"image"`
}

type xImage struct {
	Width    int       `xml:"width,attr"`
	Height   int       `xml:"height,attr"`
	Output   string    `xml:"output,attr"`
	Colormap string    `xml:"colormap,attr"`
	Camera   string    `xml:"camera,attr"`
	Field    string    `xml:"field,attr"`
	Min      string    `xml:"min,attr"`
	Max      string    `xml:"max,attr"`
	Slice    *xSlice   `xml:"slice"`
	Contour  *xContour `xml:"contour"`
}

type xSlice struct {
	Normal string  `xml:"normal,attr"`
	Offset float64 `xml:"offset,attr"`
}

type xContour struct {
	Field string  `xml:"field,attr"`
	Iso   float64 `xml:"iso,attr"`
}

func parseVec3(s string, def [3]float64) ([3]float64, error) {
	if strings.TrimSpace(s) == "" {
		return def, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return def, fmt.Errorf("catalyst: want 3 comma-separated values, got %q", s)
	}
	var v [3]float64
	for i, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return def, fmt.Errorf("catalyst: bad vector %q: %w", s, err)
		}
		v[i] = f
	}
	return v, nil
}

// ParsePipelines parses the XML pipeline script:
//
//	<catalyst>
//	  <image width="256" height="256" output="slice_%06d.png"
//	         colormap="viridis" camera="1,1,1" field="velocity_x">
//	    <slice normal="0,0,1" offset="0.5"/>
//	  </image>
//	  <image width="256" height="256" output="iso_%06d.png"
//	         field="temperature">
//	    <contour field="temperature" iso="0.5"/>
//	  </image>
//	</catalyst>
func ParsePipelines(doc []byte) ([]Pipeline, error) {
	var cfg xCatalyst
	if err := xml.Unmarshal(doc, &cfg); err != nil {
		return nil, fmt.Errorf("catalyst: pipeline parse: %w", err)
	}
	if len(cfg.Images) == 0 {
		return nil, fmt.Errorf("catalyst: pipeline script has no <image> entries")
	}
	out := make([]Pipeline, 0, len(cfg.Images))
	for i, im := range cfg.Images {
		p := Pipeline{
			Width: im.Width, Height: im.Height,
			Output: im.Output, Colormap: im.Colormap, Field: im.Field,
		}
		if p.Width <= 0 {
			p.Width = 256
		}
		if p.Height <= 0 {
			p.Height = 256
		}
		if p.Output == "" {
			p.Output = fmt.Sprintf("image%d_%%06d.png", i)
		}
		if p.Field == "" {
			return nil, fmt.Errorf("catalyst: image %d: field attribute required", i)
		}
		var err error
		if p.CameraDir, err = parseVec3(im.Camera, [3]float64{1, 1, 1}); err != nil {
			return nil, err
		}
		if im.Min != "" {
			if p.Min, err = strconv.ParseFloat(im.Min, 64); err != nil {
				return nil, fmt.Errorf("catalyst: image %d: bad min: %w", i, err)
			}
		}
		if im.Max != "" {
			if p.Max, err = strconv.ParseFloat(im.Max, 64); err != nil {
				return nil, fmt.Errorf("catalyst: image %d: bad max: %w", i, err)
			}
		}
		switch {
		case im.Slice != nil && im.Contour != nil:
			return nil, fmt.Errorf("catalyst: image %d: slice and contour are exclusive", i)
		case im.Slice != nil:
			normal, err := parseVec3(im.Slice.Normal, [3]float64{0, 0, 1})
			if err != nil {
				return nil, err
			}
			p.Slice = &SliceSpec{Normal: normal, Offset: im.Slice.Offset}
		case im.Contour != nil:
			cf := im.Contour.Field
			if cf == "" {
				cf = p.Field
			}
			p.Contour = &ContourSpec{Field: cf, Iso: im.Contour.Iso}
		default:
			return nil, fmt.Errorf("catalyst: image %d: needs a <slice> or <contour> filter", i)
		}
		out = append(out, p)
	}
	return out, nil
}

// Adaptor is the Catalyst analysis adaptor.
//
// It renders every trigger into workspaces it keeps for its lifetime
// (DESIGN.md, "Render hot path"): one triangle soup holding one chunk
// of cells' triangles, drawn before the next chunk is cut into it, one
// framebuffer that the pipelines use in turn, a compositor per
// pipeline whose output is that pipeline's frame, and the PNG encoder.
// The accountant is told of the soup and one framebuffer for the
// length of a pipeline, as if they were allocated per image.
type Adaptor struct {
	ctx       *sensei.Context
	meshName  string
	pipelines []Pipeline

	cameras []render.Camera // per pipeline, fitted to the global mesh bounds once

	soup        render.TriangleSoup // one chunk's triangles
	fb          *render.Framebuffer
	compositors []render.Compositor // per pipeline
	png         render.PNGEncoder
	path        []byte // the image path being written
	dirMade     bool
	create      func(path string) (io.WriteCloser, error) // os.Create, but for tests

	imagesWritten int
	lastFrames    []*render.Framebuffer // the last frames of the pipelines this rank roots
}

// chunkCells is how many cells a filter cuts before their triangles are
// drawn; the soup has room for all they can yield, 294,912 bytes.
const chunkCells, chunkTriangles = 256, 256 * isosurf.MaxCellTriangles

// New builds the adaptor programmatically.
func New(ctx *sensei.Context, meshName string, pipelines []Pipeline) *Adaptor {
	if meshName == "" {
		meshName = "mesh"
	}
	return &Adaptor{
		ctx: ctx, meshName: meshName, pipelines: pipelines,
		soup:        render.TriangleSoup{Positions: make([]float64, 0, 9*chunkTriangles), Scalars: make([]float64, 0, 3*chunkTriangles)},
		compositors: make([]render.Compositor, len(pipelines)),
		create:      func(path string) (io.WriteCloser, error) { return os.Create(path) },
	}
}

func init() {
	sensei.Register("catalyst", func(ctx *sensei.Context, attrs map[string]string) (sensei.Analysis, error) {
		// pipeline names the script kind, as SENSEI's does; a script
		// is the only kind.
		if err := sensei.CheckAttrs("catalyst", attrs, "mesh", "pipeline", "filename"); err != nil {
			return nil, err
		}
		if kind, ok := attrs["pipeline"]; ok && kind != "script" {
			return nil, fmt.Errorf("catalyst: analysis type %q runs pipeline=\"script\", not %q", "catalyst", kind)
		}
		path := attrs["filename"]
		if path == "" {
			return nil, fmt.Errorf("catalyst: filename attribute (pipeline script) required")
		}
		doc, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("catalyst: read pipeline script: %w", err)
		}
		pipelines, err := ParsePipelines(doc)
		if err != nil {
			return nil, err
		}
		return New(ctx, attrs["mesh"], pipelines), nil
	})
}

// ImagesWritten reports how many PNG files this rank has written: the
// images of the pipelines it is root of.
func (a *Adaptor) ImagesWritten() int { return a.imagesWritten }

// LastFrames returns the composited frames of the pipelines this rank
// roots, in pipeline order: their compositors' images, redrawn by Execute.
func (a *Adaptor) LastFrames() []*render.Framebuffer { return a.lastFrames }

// fitCameras reduces the global mesh bounding box and fits every
// pipeline's camera to it, on the first trigger (NekRS meshes are
// static). Collective then.
func (a *Adaptor) fitCameras(g *vtkdata.UnstructuredGrid) {
	if a.cameras != nil {
		return
	}
	lo := [3]float64{math.Inf(1), math.Inf(1), math.Inf(1)}
	hi := [3]float64{math.Inf(-1), math.Inf(-1), math.Inf(-1)}
	for p := 0; p < g.NumPoints(); p++ {
		for d := 0; d < 3; d++ {
			v := g.Points[3*p+d]
			if v < lo[d] {
				lo[d] = v
			}
			if v > hi[d] {
				hi[d] = v
			}
		}
	}
	glo := a.ctx.Comm.AllreduceF64(lo[:], mpirt.OpMin)
	ghi := a.ctx.Comm.AllreduceF64(hi[:], mpirt.OpMax)
	a.cameras = make([]render.Camera, len(a.pipelines))
	for i, p := range a.pipelines {
		a.cameras[i] = render.FitBox(
			render.Vec3{X: glo[0], Y: glo[1], Z: glo[2]},
			render.Vec3{X: ghi[0], Y: ghi[1], Z: ghi[2]},
			render.Vec3{X: p.CameraDir[0], Y: p.CameraDir[1], Z: p.CameraDir[2]})
	}
}

// fields lists every array any pipeline reads (color and contour
// fields), with duplicates.
func (a *Adaptor) fields() []string {
	var out []string
	for _, p := range a.pipelines {
		out = append(out, p.Field)
		if p.Contour != nil && p.Contour.Field != p.Field {
			out = append(out, p.Contour.Field)
		}
	}
	return out
}

// Describe implements sensei.Analysis: every field any pipeline
// colors by or contours on (the Requirements union deduplicates).
func (a *Adaptor) Describe() sensei.Requirements {
	return sensei.RequireArrays(a.meshName, sensei.AssocPoint, a.fields()...)
}

// Execute implements sensei.Analysis: filters, draws and composites
// each pipeline i to rank i mod size, then, past every collective, writes
// the PNGs this rank roots. They are on disk when it returns.
func (a *Adaptor) Execute(st *sensei.Step) (bool, error) {
	g, err := st.Mesh(a.meshName)
	if err != nil {
		return false, err
	}
	a.fitCameras(g)

	a.lastFrames = a.lastFrames[:0]
	for i := range a.pipelines {
		if err := a.render(i, g); err != nil {
			return false, err
		}
	}
	rank, size := a.ctx.Comm.Rank(), a.ctx.Comm.Size()
	for j, fb := range a.lastFrames { // frame j is pipeline rank + j*size's
		if err := a.writePNG(a.pipelines[rank+j*size].Output, st.TimeStep(), fb); err != nil {
			return false, err
		}
	}
	return false, nil
}

// render runs pipeline i: filter and draw a chunk of cells at a time,
// composite to rank i mod size. What it tells the accountant it takes
// back on every way out.
func (a *Adaptor) render(i int, g *vtkdata.UnstructuredGrid) error {
	p := &a.pipelines[i]
	color, err := pointArray(g, "array", p.Field)
	if err != nil {
		return err
	}
	var field []float64
	if p.Contour != nil {
		if field, err = pointArray(g, "contour array", p.Contour.Field); err != nil {
			return err
		}
	}

	// Scalar range must agree across ranks for consistent colors.
	smin, smax := p.Min, p.Max
	if smin == smax {
		lo, hi := sensei.Range(color)
		smin = a.ctx.Comm.AllreduceF64Scalar(lo, mpirt.OpMin)
		smax = a.ctx.Comm.AllreduceF64Scalar(hi, mpirt.OpMax)
	}

	geom := a.soup.Bytes()
	a.ctx.Acct.Alloc("catalyst-geom", geom)
	defer a.ctx.Acct.Free("catalyst-geom", geom)
	fb := a.framebuffer(p.Width, p.Height)
	a.ctx.Acct.Alloc("catalyst-fb", fb.Bytes())
	defer a.ctx.Acct.Free("catalyst-fb", fb.Bytes())

	// Draw treats each triangle on its own, in soup order, so chunks
	// drawn in cell order give the pixels of one whole soup.
	cmap, light := render.ColormapByName(p.Colormap), render.DefaultLight()
	for c0 := 0; c0 < g.NumCells(); c0 += chunkCells {
		c1 := min(c0+chunkCells, g.NumCells())
		a.soup.Reset()
		if p.Slice != nil {
			isosurf.SliceCellRange(&a.soup, g, p.Slice.Normal, p.Slice.Offset, color, c0, c1)
		} else {
			isosurf.ContourCellRange(&a.soup, g, field, color, p.Contour.Iso, c0, c1)
		}
		render.Draw(fb, a.cameras[i], &a.soup, cmap, smin, smax, light)
	}

	if final := a.compositors[i].Composite(a.ctx.Comm, fb, i%a.ctx.Comm.Size()); final != nil {
		a.lastFrames = append(a.lastFrames, final)
	}
	return nil
}

// pointArray returns the values of g's point array name, which must
// hold one per point: the filters index them by point.
func pointArray(g *vtkdata.UnstructuredGrid, what, name string) ([]float64, error) {
	switch arr := g.FindPointData(name); {
	case arr == nil:
		return nil, fmt.Errorf("catalyst: %s %q missing", what, name)
	case len(arr.Data) != g.NumPoints():
		return nil, fmt.Errorf("catalyst: %s %q has %d values for %d points", what, name, len(arr.Data), g.NumPoints())
	default:
		return arr.Data, nil
	}
}

// framebuffer returns the shared framebuffer, cleared, at w×h.
func (a *Adaptor) framebuffer(w, h int) *render.Framebuffer {
	if a.fb == nil || a.fb.W != w || a.fb.H != h {
		a.fb = render.NewFramebuffer(w, h)
	} else {
		a.fb.Clear([4]uint8{0, 0, 0, 255})
	}
	return a.fb
}

// writePNG writes fb under the output directory as pattern with the
// step filled in, and counts the image once it is whole on disk.
func (a *Adaptor) writePNG(pattern string, step int, fb *render.Framebuffer) error {
	dir := a.ctx.OutputDir
	if dir == "" {
		dir = "."
	}
	if !a.dirMade {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		a.dirMade = true
	}
	a.path = append(append(a.path[:0], dir...), filepath.Separator)
	if strings.Contains(pattern, "%") {
		a.path = fmt.Appendf(a.path, pattern, step)
	} else {
		a.path = append(a.path, pattern...)
	}
	f, err := a.create(string(a.path))
	if err != nil {
		return err
	}
	n, err := a.png.Encode(f, fb)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	a.ctx.Storage.AddFile(n)
	a.imagesWritten++
	return nil
}

// Finalize implements sensei.Analysis.
func (a *Adaptor) Finalize() error { return nil }
