package render_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"image"
	"image/png"
	"io"
	"math"
	"math/rand"
	"testing"

	"nekrs-sensei/internal/cases"
	"nekrs-sensei/internal/core"
	"nekrs-sensei/internal/isosurf"
	"nekrs-sensei/internal/mpirt"
	"nekrs-sensei/internal/nekrs"
	. "nekrs-sensei/internal/render"
	"nekrs-sensei/internal/sensei"
)

// referenceColormap is the colormap as it stood before the render hot
// path was rebuilt: a closure over the control points, called once per
// shaded pixel.
type referenceColormap func(t float64) (r, g, b uint8)

func lerpTable(pts [][3]float64) referenceColormap {
	n := len(pts)
	return func(t float64) (uint8, uint8, uint8) {
		if t <= 0 {
			return uint8(pts[0][0]), uint8(pts[0][1]), uint8(pts[0][2])
		}
		if t >= 1 {
			return uint8(pts[n-1][0]), uint8(pts[n-1][1]), uint8(pts[n-1][2])
		}
		x := t * float64(n-1)
		i := int(x)
		f := x - float64(i)
		r := pts[i][0] + f*(pts[i+1][0]-pts[i][0])
		g := pts[i][1] + f*(pts[i+1][1]-pts[i][1])
		b := pts[i][2] + f*(pts[i+1][2]-pts[i][2])
		return uint8(r), uint8(g), uint8(b)
	}
}

// referenceColormaps holds the control points of that commit, by the
// name ColormapByName knows them under.
var referenceColormaps = map[string]referenceColormap{
	"viridis": lerpTable([][3]float64{
		{68, 1, 84}, {71, 44, 122}, {59, 81, 139}, {44, 113, 142}, {33, 144, 141},
		{39, 173, 129}, {92, 200, 99}, {170, 220, 50}, {253, 231, 37},
	}),
	"coolwarm": lerpTable([][3]float64{
		{59, 76, 192}, {144, 178, 254}, {221, 221, 221}, {246, 153, 122}, {180, 4, 38},
	}),
	"gray": lerpTable([][3]float64{{0, 0, 0}, {255, 255, 255}}),
}

// drawReference is Draw as it stood before the render hot path was
// rebuilt, kept verbatim as the oracle: every pixel of the bounding
// box, every term recomputed per pixel.
func drawReference(fb *Framebuffer, cam Camera, soup *TriangleSoup, cmap referenceColormap, smin, smax float64, light Light) {
	if smax <= smin {
		smax = smin + 1
	}
	mvp := cam.ViewProj(float64(fb.W) / float64(fb.H))
	n := soup.NumTriangles()
	for t := 0; t < n; t++ {
		p := soup.Positions[9*t : 9*t+9]
		sv := soup.Scalars[3*t : 3*t+3]
		v0 := Vec3{X: p[0], Y: p[1], Z: p[2]}
		v1 := Vec3{X: p[3], Y: p[4], Z: p[5]}
		v2 := Vec3{X: p[6], Y: p[7], Z: p[8]}

		nrm := v1.Sub(v0).Cross(v2.Sub(v0)).Normalize()
		intensity := light.Ambient + light.Diffuse*math.Abs(nrm.Dot(light.Dir))
		if intensity > 1 {
			intensity = 1
		}

		x0, y0, z0, w0 := mvp.MulPoint(v0)
		x1, y1, z1, w1 := mvp.MulPoint(v1)
		x2, y2, z2, w2 := mvp.MulPoint(v2)
		if w0 <= 1e-9 || w1 <= 1e-9 || w2 <= 1e-9 {
			continue
		}
		sx0, sy0 := (x0/w0+1)*0.5*float64(fb.W), (1-y0/w0)*0.5*float64(fb.H)
		sx1, sy1 := (x1/w1+1)*0.5*float64(fb.W), (1-y1/w1)*0.5*float64(fb.H)
		sx2, sy2 := (x2/w2+1)*0.5*float64(fb.W), (1-y2/w2)*0.5*float64(fb.H)
		nz0, nz1, nz2 := z0/w0, z1/w1, z2/w2

		area := (sx1-sx0)*(sy2-sy0) - (sx2-sx0)*(sy1-sy0)
		if area == 0 {
			continue
		}
		minX := int(math.Floor(math.Min(sx0, math.Min(sx1, sx2))))
		maxX := int(math.Ceil(math.Max(sx0, math.Max(sx1, sx2))))
		minY := int(math.Floor(math.Min(sy0, math.Min(sy1, sy2))))
		maxY := int(math.Ceil(math.Max(sy0, math.Max(sy1, sy2))))
		if minX < 0 {
			minX = 0
		}
		if minY < 0 {
			minY = 0
		}
		if maxX > fb.W-1 {
			maxX = fb.W - 1
		}
		if maxY > fb.H-1 {
			maxY = fb.H - 1
		}
		iw0, iw1, iw2 := 1/w0, 1/w1, 1/w2
		sw0, sw1, sw2 := sv[0]*iw0, sv[1]*iw1, sv[2]*iw2
		invArea := 1 / area
		for py := minY; py <= maxY; py++ {
			for px := minX; px <= maxX; px++ {
				cx, cy := float64(px)+0.5, float64(py)+0.5
				b0 := ((sx1-cx)*(sy2-cy) - (sx2-cx)*(sy1-cy)) * invArea
				b1 := ((sx2-cx)*(sy0-cy) - (sx0-cx)*(sy2-cy)) * invArea
				b2 := 1 - b0 - b1
				if b0 < 0 || b1 < 0 || b2 < 0 {
					continue
				}
				z := float32(b0*nz0 + b1*nz1 + b2*nz2)
				idx := py*fb.W + px
				if z >= fb.Depth[idx] {
					continue
				}
				fb.Depth[idx] = z
				sw := b0*sw0 + b1*sw1 + b2*sw2
				iw := b0*iw0 + b1*iw1 + b2*iw2
				sVal := sw / iw
				tt := (sVal - smin) / (smax - smin)
				r, g, b := cmap(tt)
				fb.Color[4*idx] = uint8(float64(r) * intensity)
				fb.Color[4*idx+1] = uint8(float64(g) * intensity)
				fb.Color[4*idx+2] = uint8(float64(b) * intensity)
				fb.Color[4*idx+3] = 255
			}
		}
	}
}

// depthBits is the depth buffer as the bytes of its float32 bit
// patterns, so that equality means the same bits (NaN and -0 included).
func depthBits(fb *Framebuffer) []byte {
	out := make([]byte, 0, 4*len(fb.Depth))
	for _, d := range fb.Depth {
		out = binary.LittleEndian.AppendUint32(out, math.Float32bits(d))
	}
	return out
}

// sameAsReference draws the soup with Draw and with the oracle into
// equal framebuffers and compares color and depth bit for bit.
func sameAsReference(t *testing.T, what string, w, h int, cam Camera, soup *TriangleSoup, cmap string, smin, smax float64) {
	t.Helper()
	got, want := NewFramebuffer(w, h), NewFramebuffer(w, h)
	Draw(got, cam, soup, ColormapByName(cmap), smin, smax, DefaultLight())
	drawReference(want, cam, soup, referenceColormaps[cmap], smin, smax, DefaultLight())
	if !bytes.Equal(got.Color, want.Color) {
		t.Errorf("%s: color differs from the reference rasteriser", what)
	}
	if !bytes.Equal(depthBits(got), depthBits(want)) {
		t.Errorf("%s: depth differs from the reference rasteriser", what)
	}
	if want.CoveredPixels() == 0 {
		t.Errorf("%s: the reference drew nothing", what)
	}
}

// randomTriangles is a seeded soup in the view volume of oracleCamera
// and around it, a share of each awkward kind: slivers, zero area,
// behind or through the camera plane, far off screen or straddling
// its edge, vertices on pixel centres and edges along pixel rows, and
// coplanar pairs whose depths tie exactly.
func randomTriangles(rng *rand.Rand, n int) *TriangleSoup {
	soup := &TriangleSoup{}
	pt := func(spread float64) Vec3 {
		return Vec3{X: spread * (2*rng.Float64() - 1), Y: spread * (2*rng.Float64() - 1), Z: 0.6 * (2*rng.Float64() - 1)}
	}
	near := func(p Vec3, r float64) Vec3 {
		return Vec3{X: p.X + r*(2*rng.Float64()-1), Y: p.Y + r*(2*rng.Float64()-1), Z: p.Z + r*(2*rng.Float64()-1)}
	}
	add := func(a, b, c Vec3) {
		soup.Append(a, b, c, rng.Float64(), rng.Float64(), rng.Float64())
	}
	for soup.NumTriangles() < n {
		a := pt(1)
		switch k := rng.Intn(20); {
		case k < 6: // a few pixels across, like contour output
			add(a, near(a, 0.03), near(a, 0.03))
		case k < 9: // tens to hundreds of pixels
			add(a, near(a, 0.5), near(a, 0.5))
		case k == 9: // sliver: the third vertex almost on the first edge
			b := near(a, 0.8)
			f := rng.Float64()
			c := Vec3{X: a.X + f*(b.X-a.X), Y: a.Y + f*(b.Y-a.Y), Z: a.Z + f*(b.Z-a.Z)}
			add(a, b, near(c, math.Pow(10, -2-10*rng.Float64())))
		case k == 10: // zero area: repeated or collinear vertices
			b := near(a, 0.4)
			if rng.Intn(2) == 0 {
				add(a, b, b)
			} else {
				add(a, b, Vec3{X: 2*b.X - a.X, Y: 2*b.Y - a.Y, Z: 2*b.Z - a.Z})
			}
		case k == 11: // behind the camera, or through its plane
			b := near(a, 0.3)
			b.Z = 3 + 2*rng.Float64()
			c := near(a, 0.3)
			if rng.Intn(2) == 0 {
				a.Z, c.Z = 4, 5
			}
			add(a, b, c)
		case k == 12: // far off screen, or straddling an edge of it
			a = pt(6)
			add(a, near(a, 2), near(a, 2))
		case k == 13: // huge: covers the screen from far outside it
			add(pt(40), pt(40), pt(40))
		case k < 17: // vertices on the pixel grid: exact zeros in the edge functions
			add(snap(a, rng), snap(near(a, 0.2), rng), snap(near(a, 0.2), rng))
		case k == 17: // an edge along a pixel row or column
			b, c := near(a, 0.3), near(a, 0.3)
			a, b = snap(a, rng), snap(b, rng)
			if rng.Intn(2) == 0 {
				b.Y = a.Y
			} else {
				b.X = a.X
			}
			add(a, b, c)
		default: // a coplanar pair sharing an edge: depth ties along it and, drawn twice, everywhere
			b, c := near(a, 0.3), near(a, 0.3)
			add(a, b, c)
			if rng.Intn(2) == 0 {
				add(a, b, c)
			} else {
				add(b, a, Vec3{X: a.X + b.X - c.X, Y: a.Y + b.Y - c.Y, Z: a.Z + b.Z - c.Z})
			}
		}
	}
	return soup
}

// oracleCamera looks down -z onto the z = 0 plane, where world x and y
// in [-1, 1] fill a square image, so snap can place vertices on pixel
// centres and corners.
func oracleCamera() Camera {
	return Camera{Eye: Vec3{Z: 2}, LookAt: Vec3{}, Up: Vec3{Y: 1}, FovYDeg: 2 * 180 / math.Pi * math.Atan(0.5), Near: 0.1, Far: 10}
}

// snap moves p onto the z = 0 plane at a multiple of half a pixel of a
// 64-pixel image.
func snap(p Vec3, rng *rand.Rand) Vec3 {
	const half = 1.0 / 64
	return Vec3{X: math.Round(p.X/half) * half, Y: math.Round(p.Y/half) * half}
}

// reversed is the soup with its triangles in the opposite order.
func reversed(s *TriangleSoup) *TriangleSoup {
	out := &TriangleSoup{}
	for t := s.NumTriangles() - 1; t >= 0; t-- {
		out.Positions = append(out.Positions, s.Positions[9*t:9*t+9]...)
		out.Scalars = append(out.Scalars, s.Scalars[3*t:3*t+3]...)
	}
	return out
}

// TestDrawMatchesReferenceRandom: 10⁴ seeded triangles of every
// awkward kind, in both draw orders and at three image shapes, give
// the reference's color and depth bits.
func TestDrawMatchesReferenceRandom(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		soup := randomTriangles(rand.New(rand.NewSource(seed)), 2500)
		for _, size := range [][2]int{{64, 64}, {200, 120}, {33, 97}} {
			for _, cmap := range []string{"viridis", "coolwarm", "gray"} {
				sameAsReference(t, "forward", size[0], size[1], oracleCamera(), soup, cmap, 0.1, 0.9)
				sameAsReference(t, "reversed", size[0], size[1], oracleCamera(), reversed(soup), cmap, 0.1, 0.9)
			}
		}
	}
}

// scene is one image of a benchmark pipeline, ready to draw.
type scene struct {
	name       string
	soup       *TriangleSoup
	cam        Camera
	cmap       string // a ColormapByName name
	smin, smax float64
}

// solverScenes advances the case three steps on one rank and runs the
// two filters of its benchmark pipeline script (benchmark/
// workload_sim.go, workload_live.go) over the VTK grid the in situ
// bridge hands to analyses: the soups, cameras and scalar ranges
// catalyst.Adaptor draws.
func solverScenes(tb testing.TB, c cases.Case) []scene {
	tb.Helper()
	var scenes []scene
	err := mpirt.RunErr(1, func(comm *mpirt.Comm) error {
		sim, err := nekrs.NewSim(comm, nil, c)
		if err != nil {
			return err
		}
		for i := 0; i < 3; i++ {
			sim.Solver.Step()
		}
		da := core.NewNekDataAdaptor(sim.Solver, sim.Acct)
		st, err := sensei.Pull(da, sensei.RequireArrays(core.MeshName, sensei.AssocPoint, "velocity_z", "temperature"), nil)
		if err != nil {
			return err
		}
		g, err := st.Mesh(core.MeshName)
		if err != nil {
			return err
		}
		lo := Vec3{X: math.Inf(1), Y: math.Inf(1), Z: math.Inf(1)}
		hi := Vec3{X: math.Inf(-1), Y: math.Inf(-1), Z: math.Inf(-1)}
		for p := 0; p < g.NumPoints(); p++ {
			lo = Vec3{X: math.Min(lo.X, g.Points[3*p]), Y: math.Min(lo.Y, g.Points[3*p+1]), Z: math.Min(lo.Z, g.Points[3*p+2])}
			hi = Vec3{X: math.Max(hi.X, g.Points[3*p]), Y: math.Max(hi.Y, g.Points[3*p+1]), Z: math.Max(hi.Z, g.Points[3*p+2])}
		}
		w, temp := g.FindPointData("velocity_z").Data, g.FindPointData("temperature").Data
		add := func(name string, soup *TriangleSoup, err error, dir Vec3, cmap string, color []float64) error {
			if err != nil {
				return err
			}
			smin, smax := math.Inf(1), math.Inf(-1)
			for _, v := range color {
				smin, smax = math.Min(smin, v), math.Max(smax, v)
			}
			scenes = append(scenes, scene{name, soup, FitBox(lo, hi, dir), cmap, smin, smax})
			return nil
		}
		if c.Name == "pb146" {
			soup, err := isosurf.SliceCells(g, [3]float64{0, 1, 0}, 0.5, w)
			if err := add("pb146 slice", soup, err, Vec3{Y: -1, Z: 0.3}, "viridis", w); err != nil {
				return err
			}
			soup, err = isosurf.ContourCells(g, temp, temp, 0.001)
			return add("pb146 contour", soup, err, Vec3{X: 1, Y: 1, Z: 0.5}, "coolwarm", temp)
		}
		soup, err := isosurf.SliceCells(g, [3]float64{0, 1, 0}, 1, temp)
		if err := add("rbc slice", soup, err, Vec3{Y: -1, Z: 0.12}, "coolwarm", temp); err != nil {
			return err
		}
		soup, err = isosurf.ContourCells(g, temp, w, 0.5)
		return add("rbc contour", soup, err, Vec3{X: 1, Y: 1, Z: 1}, "viridis", w)
	})
	if err != nil {
		tb.Fatal(err)
	}
	return scenes
}

// TestDrawMatchesReferenceSolver: the soups of the benchmark pipelines
// on the real pb146 and RBC solvers, order 3 and 5, draw to the
// reference's color and depth bits.
func TestDrawMatchesReferenceSolver(t *testing.T) {
	for _, order := range []int{3, 5} {
		if testing.Short() && order == 5 {
			continue
		}
		for _, c := range []cases.Case{cases.PB146(1, order), cases.RBC(1e5, 0.71, 2, 4, 3, order)} {
			for _, sc := range solverScenes(t, c) {
				for _, px := range []int{128, 512} {
					sameAsReference(t, fmt.Sprintf("%s order %d at %d px", sc.name, order, px), px, px, sc.cam, sc.soup, sc.cmap, sc.smin, sc.smax)
				}
			}
		}
	}
}

// TestDrawInPiecesMatchesWhole: the benchmark pipelines' soups drawn
// as consecutive pieces of random length — empty and one-triangle
// pieces included — one Draw per piece, give the color and depth bits
// of one Draw over the whole soup: what catalyst.Adaptor relies on when
// it draws each chunk of cells as soon as it is cut.
func TestDrawInPiecesMatchesWhole(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, order := range []int{3, 5} {
		if testing.Short() && order == 5 {
			continue
		}
		for _, c := range []cases.Case{cases.PB146(1, order), cases.RBC(1e5, 0.71, 2, 4, 3, order)} {
			for _, sc := range solverScenes(t, c) {
				whole, pieces := NewFramebuffer(256, 256), NewFramebuffer(256, 256)
				cmap := ColormapByName(sc.cmap)
				Draw(whole, sc.cam, sc.soup, cmap, sc.smin, sc.smax, DefaultLight())
				n, drawn := sc.soup.NumTriangles(), 0
				for t0 := 0; t0 < n; {
					t1 := min(n, t0+[]int{0, 1, rng.Intn(50), rng.Intn(3000)}[rng.Intn(4)])
					piece := &TriangleSoup{Positions: sc.soup.Positions[9*t0 : 9*t1], Scalars: sc.soup.Scalars[3*t0 : 3*t1]}
					Draw(pieces, sc.cam, piece, cmap, sc.smin, sc.smax, DefaultLight())
					drawn += piece.NumTriangles()
					t0 = t1
				}
				what := fmt.Sprintf("%s order %d", sc.name, order)
				if drawn != n || whole.CoveredPixels() == 0 {
					t.Fatalf("%s: drew %d of %d triangles in pieces, %d pixels whole", what, drawn, n, whole.CoveredPixels())
				}
				if !bytes.Equal(pieces.Color, whole.Color) {
					t.Errorf("%s: color drawn in pieces differs from the whole soup's", what)
				}
				if !bytes.Equal(depthBits(pieces), depthBits(whole)) {
					t.Errorf("%s: depth drawn in pieces differs from the whole soup's", what)
				}
			}
		}
	}
}

// TestPNGSizeOnSolverFrames: the benchmark pipelines' frames of the
// real pb146 and RBC solvers at order 5, 512², decode to their pixels
// and take at most 5 % more bytes than the Up + zlib.BestSpeed encoder
// this package used before writes.
func TestPNGSizeOnSolverFrames(t *testing.T) {
	if testing.Short() {
		t.Skip("solves order-5 cases")
	}
	var enc PNGEncoder
	var ref ZlibPNGEncoder
	fb := NewFramebuffer(512, 512)
	for _, c := range []cases.Case{cases.PB146(1, 5), cases.RBC(1e5, 0.71, 2, 4, 3, 5)} {
		for _, sc := range solverScenes(t, c) {
			fb.Clear([4]uint8{0, 0, 0, 255})
			Draw(fb, sc.cam, sc.soup, ColormapByName(sc.cmap), sc.smin, sc.smax, DefaultLight())
			var file bytes.Buffer
			got, err := enc.Encode(&file, fb)
			if err != nil {
				t.Fatal(err)
			}
			img, err := png.Decode(&file)
			if err != nil {
				t.Fatalf("%s: %v", sc.name, err)
			}
			if rgba, ok := img.(*image.RGBA); !ok || !bytes.Equal(rgba.Pix, fb.Color) {
				t.Errorf("%s: the file does not decode to the frame", sc.name)
			}
			want, err := ref.Encode(io.Discard, fb)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: %d bytes, %d by zlib (%.3f)", sc.name, got, want, float64(got)/float64(want))
			if float64(got) > 1.05*float64(want) {
				t.Errorf("%s: %d bytes, more than 1.05 × zlib's %d", sc.name, got, want)
			}
		}
	}
}

// benchmarkPB146 draws the two images of the pb146-insitu workload
// (order 5, 512²) on one rank.
func benchmarkPB146(b *testing.B, draw func(fb *Framebuffer, sc scene)) {
	scenes := solverScenes(b, cases.PB146(1, 5))
	fb := NewFramebuffer(512, 512)
	var tris int
	for _, sc := range scenes {
		tris += sc.soup.NumTriangles()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sc := range scenes {
			fb.Clear([4]uint8{0, 0, 0, 255})
			draw(fb, sc)
		}
	}
	b.ReportMetric(float64(tris)*float64(b.N)/1e6/b.Elapsed().Seconds(), "Mtri/s")
}

func BenchmarkDrawPB146(b *testing.B) {
	benchmarkPB146(b, func(fb *Framebuffer, sc scene) {
		Draw(fb, sc.cam, sc.soup, ColormapByName(sc.cmap), sc.smin, sc.smax, DefaultLight())
	})
}

// BenchmarkDrawPB146Reference is the oracle on the same images: the
// baseline to read BenchmarkDrawPB146 against on a machine whose speed
// wanders between runs.
func BenchmarkDrawPB146Reference(b *testing.B) {
	benchmarkPB146(b, func(fb *Framebuffer, sc scene) {
		drawReference(fb, sc.cam, sc.soup, referenceColormaps[sc.cmap], sc.smin, sc.smax, DefaultLight())
	})
}
