package render

import (
	"bytes"
	"image/png"
	"math"
	"testing"

	"nekrs-sensei/internal/mpirt"
)

func TestVecOps(t *testing.T) {
	a := Vec3{1, 2, 3}
	b := Vec3{4, 5, 6}
	if got := a.Add(b); got != (Vec3{5, 7, 9}) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != (Vec3{-3, -3, -3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Dot(b); got != 32 {
		t.Errorf("Dot = %v", got)
	}
	ex, ey := Vec3{1, 0, 0}, Vec3{0, 1, 0}
	if got := ex.Cross(ey); got != (Vec3{0, 0, 1}) {
		t.Errorf("Cross = %v", got)
	}
	n := Vec3{3, 0, 4}.Normalize()
	if math.Abs(n.Norm()-1) > 1e-15 {
		t.Errorf("Normalize norm = %v", n.Norm())
	}
	zero := Vec3{}
	if z := zero.Normalize(); z != zero {
		t.Errorf("zero normalize = %v", z)
	}
}

func TestMatMulIdentity(t *testing.T) {
	id := Mat4{1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1}
	m := Perspective(1, 1.5, 0.1, 10)
	got := id.Mul(m)
	if got != m {
		t.Error("identity multiply changed matrix")
	}
}

func TestLookAtMapsCenterToAxis(t *testing.T) {
	cam := Camera{Eye: Vec3{5, 0, 0}, LookAt: Vec3{0, 0, 0}, Up: Vec3{0, 0, 1}, FovYDeg: 60, Near: 0.1, Far: 100}
	mvp := cam.ViewProj(1)
	x, y, _, w := mvp.MulPoint(Vec3{0, 0, 0})
	if math.Abs(x/w) > 1e-12 || math.Abs(y/w) > 1e-12 {
		t.Errorf("look-at target not centered: (%v, %v)", x/w, y/w)
	}
}

func TestDepthOrdering(t *testing.T) {
	cam := Camera{Eye: Vec3{0, 0, 5}, LookAt: Vec3{0, 0, 0}, Up: Vec3{0, 1, 0}, FovYDeg: 60, Near: 0.1, Far: 100}
	mvp := cam.ViewProj(1)
	_, _, zNear, wNear := mvp.MulPoint(Vec3{0, 0, 1})
	_, _, zFar, wFar := mvp.MulPoint(Vec3{0, 0, -1})
	if zNear/wNear >= zFar/wFar {
		t.Errorf("nearer point should have smaller NDC depth: %v vs %v", zNear/wNear, zFar/wFar)
	}
}

// bigTriangle builds a soup with one triangle spanning the view at the
// given z (camera at +5z looking at origin).
func bigTriangle(z, scalar float64) *TriangleSoup {
	s := &TriangleSoup{}
	s.Append(
		Vec3{-10, -10, z}, Vec3{10, -10, z}, Vec3{0, 10, z},
		scalar, scalar, scalar)
	return s
}

func testCamera() Camera {
	return Camera{Eye: Vec3{0, 0, 5}, LookAt: Vec3{0, 0, 0}, Up: Vec3{0, 1, 0}, FovYDeg: 60, Near: 0.1, Far: 100}
}

func TestDrawCoversCenter(t *testing.T) {
	fb := NewFramebuffer(64, 64)
	Draw(fb, testCamera(), bigTriangle(0, 0.5), Grayscale, 0, 1, DefaultLight())
	if fb.CoveredPixels() == 0 {
		t.Fatal("nothing rendered")
	}
	c := fb.At(32, 32)
	if c[3] != 255 || (c[0] == 0 && c[1] == 0 && c[2] == 0) {
		t.Errorf("center pixel not shaded: %v", c)
	}
}

func TestZBufferNearWinsRegardlessOfOrder(t *testing.T) {
	for _, nearFirst := range []bool{true, false} {
		fb := NewFramebuffer(32, 32)
		near := bigTriangle(1, 1.0) // scalar 1 -> white
		far := bigTriangle(-1, 0.0) // scalar 0 -> black
		light := Light{Dir: Vec3{0, 0, -1}, Ambient: 1, Diffuse: 0}
		if nearFirst {
			Draw(fb, testCamera(), near, Grayscale, 0, 1, light)
			Draw(fb, testCamera(), far, Grayscale, 0, 1, light)
		} else {
			Draw(fb, testCamera(), far, Grayscale, 0, 1, light)
			Draw(fb, testCamera(), near, Grayscale, 0, 1, light)
		}
		c := fb.At(16, 16)
		if c[0] < 200 {
			t.Errorf("nearFirst=%v: near (white) triangle lost: %v", nearFirst, c)
		}
	}
}

func TestBehindCameraCulled(t *testing.T) {
	fb := NewFramebuffer(32, 32)
	Draw(fb, testCamera(), bigTriangle(10, 0.5), Viridis, 0, 1, DefaultLight())
	if fb.CoveredPixels() != 0 {
		t.Error("triangle behind the camera was rendered")
	}
}

func TestScalarInterpolationGradient(t *testing.T) {
	// A triangle with scalar 0 on the left vertices and 1 on the right
	// should produce increasing luminance left to right.
	s := &TriangleSoup{}
	s.Append(Vec3{-10, -10, 0}, Vec3{10, 0, 0}, Vec3{-10, 10, 0}, 0, 1, 0)
	fb := NewFramebuffer(64, 64)
	light := Light{Dir: Vec3{0, 0, -1}, Ambient: 1, Diffuse: 0}
	Draw(fb, testCamera(), s, Grayscale, 0, 1, light)
	left := fb.At(10, 32)
	right := fb.At(50, 32)
	if left[0] >= right[0] {
		t.Errorf("no gradient: left %v right %v", left, right)
	}
}

func TestColormapEndpoints(t *testing.T) {
	r, g, b := Viridis.At(0)
	if r != 68 || g != 1 || b != 84 {
		t.Errorf("viridis(0) = %d,%d,%d", r, g, b)
	}
	r, g, b = Viridis.At(1)
	if r != 253 || g != 231 || b != 37 {
		t.Errorf("viridis(1) = %d,%d,%d", r, g, b)
	}
	// Clamping.
	r1, g1, b1 := Viridis.At(-5)
	r2, g2, b2 := Viridis.At(0)
	if r1 != r2 || g1 != g2 || b1 != b2 {
		t.Error("clamp below failed")
	}
	// Names resolve, unknown ones to Viridis.
	if r, g, b := ColormapByName("coolwarm").At(0); r != 59 || g != 76 || b != 192 {
		t.Errorf("coolwarm(0) = %d,%d,%d", r, g, b)
	}
	if r, g, b := ColormapByName("unknown").At(0); r != 68 || g != 1 || b != 84 {
		t.Errorf("unknown name: (0) = %d,%d,%d, want viridis", r, g, b)
	}
}

func TestGrayscaleMonotone(t *testing.T) {
	prev := -1
	for i := 0; i <= 100; i++ {
		r, g, b := Grayscale.At(float64(i) / 100)
		if int(r) < prev {
			t.Fatalf("not monotone at %d", i)
		}
		if r != g || g != b {
			t.Fatalf("not gray at %d: %d,%d,%d", i, r, g, b)
		}
		prev = int(r)
	}
}

func TestFitBoxSeesWholeDomain(t *testing.T) {
	lo, hi := Vec3{0, 0, 0}, Vec3{1, 2, 3}
	cam := FitBox(lo, hi, Vec3{1, 1, 1})
	mvp := cam.ViewProj(1)
	for _, corner := range []Vec3{lo, hi, {0, 2, 3}, {1, 0, 0}} {
		x, y, _, w := mvp.MulPoint(corner)
		if w <= 0 {
			t.Fatalf("corner %v behind camera", corner)
		}
		if math.Abs(x/w) > 1 || math.Abs(y/w) > 1 {
			t.Errorf("corner %v outside frustum: (%v, %v)", corner, x/w, y/w)
		}
	}
}

func TestCompositeToRoot(t *testing.T) {
	const size = 3
	mpirt.Run(size, func(c *mpirt.Comm) {
		fb := NewFramebuffer(16, 16)
		// Each rank draws a full-screen triangle at depth -rank (rank 2
		// nearest to the camera at +5z): rank r uses scalar r/2.
		z := float64(c.Rank()) // larger z = nearer to camera at z=5
		light := Light{Dir: Vec3{0, 0, -1}, Ambient: 1, Diffuse: 0}
		Draw(fb, testCamera(), bigTriangle(z, float64(c.Rank())/2), Grayscale, 0, 1, light)
		out := compositeToRoot(c, fb, 0)
		if c.Rank() == 0 {
			if out == nil {
				t.Error("root got nil image")
				return
			}
			// Rank 2's triangle (scalar 1 -> white) must win.
			px := out.At(8, 8)
			if px[0] < 200 {
				t.Errorf("composite picked wrong layer: %v", px)
			}
		} else if out != nil {
			t.Error("non-root got image")
		}
	})
}

func TestEncodePNGRoundTrip(t *testing.T) {
	fb := NewFramebuffer(20, 10)
	Draw(fb, testCamera(), bigTriangle(0, 0.9), Viridis, 0, 1, DefaultLight())
	var buf bytes.Buffer
	n, err := EncodePNG(&buf, fb)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) || n == 0 {
		t.Errorf("size %d vs buffer %d", n, buf.Len())
	}
	img, err := png.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if img.Bounds().Dx() != 20 || img.Bounds().Dy() != 10 {
		t.Errorf("decoded size %v", img.Bounds())
	}
}

// stripSoup is 500 tall triangles marching across the view, each
// some 25 by 128 pixels of a 256² image.
func stripSoup() *TriangleSoup {
	soup := &TriangleSoup{}
	for i := 0; i < 500; i++ {
		f := float64(i) / 500
		soup.Append(
			Vec3{f*2 - 1, -0.5, f - 0.5}, Vec3{f*2 - 0.8, -0.5, f - 0.5}, Vec3{f*2 - 0.9, 0.5, f - 0.5},
			f, 1-f, f)
	}
	return soup
}

func BenchmarkDraw(b *testing.B) {
	soup := stripSoup()
	fb := NewFramebuffer(256, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fb.Clear([4]uint8{0, 0, 0, 255})
		Draw(fb, testCamera(), soup, Viridis, 0, 1, DefaultLight())
	}
}
