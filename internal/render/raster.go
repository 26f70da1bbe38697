package render

import (
	"encoding/binary"
	"fmt"
	"math"
)

// TriangleSoup is an unindexed triangle list with one scalar value per
// vertex, the exchange format between the contour/slice filters and
// the rasterizer.
type TriangleSoup struct {
	Positions []float64 // 9 per triangle (xyz per vertex)
	Scalars   []float64 // 3 per triangle (one per vertex)
}

// NumTriangles reports the triangle count.
func (s *TriangleSoup) NumTriangles() int { return len(s.Positions) / 9 }

// Append adds one triangle given vertex positions and scalars.
func (s *TriangleSoup) Append(p0, p1, p2 Vec3, s0, s1, s2 float64) {
	s.Positions = append(s.Positions,
		p0.X, p0.Y, p0.Z, p1.X, p1.Y, p1.Z, p2.X, p2.Y, p2.Z)
	s.Scalars = append(s.Scalars, s0, s1, s2)
}

// Reset empties the soup and keeps its storage for the next fill.
func (s *TriangleSoup) Reset() {
	s.Positions, s.Scalars = s.Positions[:0], s.Scalars[:0]
}

// Bytes reports the storage the soup holds, filled or not.
func (s *TriangleSoup) Bytes() int64 {
	return int64(cap(s.Positions)+cap(s.Scalars)) * 8
}

// Light is a directional light with ambient and diffuse coefficients.
type Light struct {
	Dir              Vec3
	Ambient, Diffuse float64
}

// DefaultLight gives pleasant two-sided shading.
func DefaultLight() Light {
	return Light{Dir: Vec3{-0.4, -0.6, -1}.Normalize(), Ambient: 0.35, Diffuse: 0.65}
}

// Framebuffer is an RGBA color buffer with a float depth buffer in NDC
// units (smaller = nearer).
type Framebuffer struct {
	W, H  int
	Color []uint8   // RGBA, 4 per pixel
	Depth []float32 // NDC z, +Inf where empty
}

// NewFramebuffer returns a cleared framebuffer.
func NewFramebuffer(w, h int) *Framebuffer {
	fb := &Framebuffer{W: w, H: h, Color: make([]uint8, 4*w*h), Depth: make([]float32, w*h)}
	fb.Clear([4]uint8{0, 0, 0, 255})
	return fb
}

// Clear resets color and depth.
func (fb *Framebuffer) Clear(c [4]uint8) {
	if len(fb.Depth) == 0 {
		return
	}
	// One pixel, then doubling copies: memmove instead of a store per
	// byte.
	copy(fb.Color, c[:])
	for n := 4; n < len(fb.Color); n *= 2 {
		copy(fb.Color[n:], fb.Color[:n])
	}
	fb.Depth[0] = float32(math.Inf(1))
	for n := 1; n < len(fb.Depth); n *= 2 {
		copy(fb.Depth[n:], fb.Depth[:n])
	}
}

// At returns the RGBA color at pixel (x, y).
func (fb *Framebuffer) At(x, y int) [4]uint8 {
	i := 4 * (y*fb.W + x)
	return [4]uint8{fb.Color[i], fb.Color[i+1], fb.Color[i+2], fb.Color[i+3]}
}

// Bytes reports the framebuffer memory footprint.
func (fb *Framebuffer) Bytes() int64 { return int64(len(fb.Color)) + int64(len(fb.Depth))*4 }

// Draw rasterizes the soup through the camera into fb, coloring by the
// scalar mapped through cmap over [smin, smax] with two-sided
// directional lighting. Triangles with any vertex behind the camera
// are skipped (no near-plane clipping; scene cameras keep geometry in
// front).
//
// A pixel is covered when its centre has three non-negative
// barycentric coordinates, and the coverage test, depth and color of
// every covered pixel are computed by one fixed sequence of IEEE
// operations (the one drawReference in the tests spells out), so what
// Draw is free to choose is only which pixels it does not look at and
// when it computes per-triangle terms: it drops a triangle whose
// bounding box holds no pixel centre on screen before any set-up,
// hoists the row terms of the edge functions, shades a triangle at its
// first visible pixel, and on triangles wide enough to repay it walks
// each row's span instead of the bounding box.
func Draw(fb *Framebuffer, cam Camera, soup *TriangleSoup, cmap Colormap, smin, smax float64, light Light) {
	if smax <= smin {
		smax = smin + 1
	}
	srange := smax - smin
	fw, fh := float64(fb.W), float64(fb.H)
	mvp := cam.ViewProj(fw / fh)
	n := soup.NumTriangles()
	for t := 0; t < n; t++ {
		p := soup.Positions[9*t : 9*t+9]
		v0 := Vec3{p[0], p[1], p[2]}
		v1 := Vec3{p[3], p[4], p[5]}
		v2 := Vec3{p[6], p[7], p[8]}

		x0, y0, z0, w0 := mvp.MulPoint(v0)
		x1, y1, z1, w1 := mvp.MulPoint(v1)
		x2, y2, z2, w2 := mvp.MulPoint(v2)
		if w0 <= 1e-9 || w1 <= 1e-9 || w2 <= 1e-9 {
			continue
		}
		// Screen coordinates.
		sx0, sy0 := (x0/w0+1)*0.5*fw, (1-y0/w0)*0.5*fh
		sx1, sy1 := (x1/w1+1)*0.5*fw, (1-y1/w1)*0.5*fh
		sx2, sy2 := (x2/w2+1)*0.5*fw, (1-y2/w2)*0.5*fh

		area := (sx1-sx0)*(sy2-sy0) - (sx2-sx0)*(sy1-sy0)
		if area == 0 || area != area {
			continue // NaN: some coordinate is, and no pixel is in a box bounded by one
		}
		loX, hiX := minMax3(sx0, sx1, sx2)
		loY, hiY := minMax3(sy0, sy1, sy2)
		minX, maxX := int(math.Floor(loX)), int(math.Ceil(hiX))
		minY, maxY := int(math.Floor(loY)), int(math.Ceil(hiY))
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
		// On a well-conditioned triangle — a bounding box of on-screen
		// size, at most boxedAspect times the triangle's area — rounding
		// moves no edge by 1e-6 pixel (see boxedAspect), so a pixel
		// passes the coverage test only if its centre is within that of
		// the triangle's own extent: the box shrinks from whole pixels
		// to pixel centres, which leaves many small triangles none, and
		// on rows wide enough to repay it, to the span of each row.
		spans := false
		if hiX-loX < boxedExtent && hiY-loY < boxedExtent &&
			math.Abs(area)*boxedAspect >= (hiX-loX+2)*(hiY-loY+2) {
			// Pixel px has its centre at px+0.5.
			minX = max(minX, int(math.Ceil(loX-(0.5+centreSlack))))
			maxX = min(maxX, int(math.Floor(hiX-(0.5-centreSlack))))
			minY = max(minY, int(math.Ceil(loY-(0.5+centreSlack))))
			maxY = min(maxY, int(math.Floor(hiY-(0.5-centreSlack))))
			spans = maxX-minX >= spanMinWidth
		}
		if minX > maxX || minY > maxY {
			continue // off screen, or between pixel centres
		}
		invArea := 1 / area
		nz0, nz1, nz2 := z0/w0, z1/w1, z2/w2 // NDC depth

		// Set at the first visible pixel: face-normal lighting
		// (two-sided) and the perspective-correct scalar, which
		// interpolates s/w and 1/w.
		shaded := false
		var intensity, iw0, iw1, iw2, sw0, sw1, sw2 float64

		for py := minY; py <= maxY; py++ {
			cy := float64(py) + 0.5
			first, last := minX, maxX
			if spans {
				if first, last = rowSpan(cy, sx0, sy0, sx1, sy1, sx2, sy2, minX, maxX); first > last {
					continue
				}
			}
			dy0, dy1, dy2 := sy0-cy, sy1-cy, sy2-cy
			depth := fb.Depth[py*fb.W+first : py*fb.W+last+1]
			cx := float64(first) + 0.5
			for i := range depth {
				b0 := ((sx1-cx)*dy2 - (sx2-cx)*dy1) * invArea
				b1 := ((sx2-cx)*dy0 - (sx0-cx)*dy2) * invArea
				cx++
				b2 := 1 - b0 - b1
				if b0 < 0 || b1 < 0 || b2 < 0 {
					continue
				}
				z := float32(b0*nz0 + b1*nz1 + b2*nz2)
				if z >= depth[i] {
					continue
				}
				depth[i] = z
				if !shaded {
					shaded = true
					nrm := v1.Sub(v0).Cross(v2.Sub(v0)).Normalize()
					intensity = light.Ambient + light.Diffuse*math.Abs(nrm.Dot(light.Dir))
					if intensity > 1 {
						intensity = 1
					}
					sv := soup.Scalars[3*t : 3*t+3]
					iw0, iw1, iw2 = 1/w0, 1/w1, 1/w2
					sw0, sw1, sw2 = sv[0]*iw0, sv[1]*iw1, sv[2]*iw2
				}
				sw := b0*sw0 + b1*sw1 + b2*sw2
				iw := b0*iw0 + b1*iw1 + b2*iw2
				sVal := sw / iw
				r, g, b := lerp8(cmap.segment((sVal - smin) / srange))
				binary.LittleEndian.PutUint32(fb.Color[4*(py*fb.W+first+i):], 255<<24|
					uint32(uint8(float64(r)*intensity))|
					uint32(uint8(float64(g)*intensity))<<8|
					uint32(uint8(float64(b)*intensity))<<16)
			}
		}
	}
}

const (
	// boxedExtent and boxedAspect say which triangles are well
	// conditioned. A barycentric coordinate is an edge function — a
	// difference of two products of offsets no longer than the box —
	// over the area, so rounding perturbs it by about 30·2⁻⁵³ times
	// box/area: under 4e-11 at an aspect of 1e4, which displaces an
	// edge by under 1e-6 pixel on a triangle 1e4 pixels long.
	boxedExtent = 1e4
	boxedAspect = 1e4
	// centreSlack is how far outside the triangle's extent a pixel
	// centre still counts as inside it: a thousand times the bound.
	centreSlack = 1e-3
	// spanMinWidth is the box width, in pixels less one, from which
	// finding a row's span costs less than testing the pixels it
	// skips.
	spanMinWidth = 8
)

// rowSpan returns a range of pixels in [minX, maxX] that contains
// every pixel of the row with centre height cy that the triangle
// covers: the stretch of the row line inside the triangle, padded by at
// least a pixel on each side against rounding, here and in the
// coverage test.
// first > last when the row line misses the triangle.
func rowSpan(cy, sx0, sy0, sx1, sy1, sx2, sy2 float64, minX, maxX int) (first, last int) {
	left, right := math.Inf(1), math.Inf(-1)
	left, right = crossing(cy, sx0, sy0, sx1, sy1, left, right)
	left, right = crossing(cy, sx1, sy1, sx2, sy2, left, right)
	left, right = crossing(cy, sx2, sy2, sx0, sy0, left, right)
	if left > right {
		return 0, -1
	}
	first, last = minX, maxX
	// Pixel px has its centre at px+0.5.
	if l := left - 1.5; l > float64(first) {
		first = int(l)
	}
	if r := right + 1.5; r < float64(last) {
		last = int(r)
	}
	return first, last
}

// crossing widens [left, right] by where the edge a-b meets the
// horizontal line at cy. A horizontal edge adds nothing: its ends are
// also the ends of the other two edges.
func crossing(cy, xa, ya, xb, yb, left, right float64) (float64, float64) {
	if ya == yb || (ya < cy && yb < cy) || (ya > cy && yb > cy) {
		return left, right
	}
	x := xa + (cy-ya)/(yb-ya)*(xb-xa)
	if x < left {
		left = x
	}
	if x > right {
		right = x
	}
	return left, right
}

// minMax3 returns the least and the greatest of three numbers, none a
// NaN.
func minMax3(a, b, c float64) (lo, hi float64) {
	lo, hi = a, a
	if b < lo {
		lo = b
	} else if b > hi {
		hi = b
	}
	if c < lo {
		lo = c
	} else if c > hi {
		hi = c
	}
	return lo, hi
}

// CoveredPixels counts pixels that received any geometry, a cheap
// emptiness check for tests.
func (fb *Framebuffer) CoveredPixels() int {
	n := 0
	inf := float32(math.Inf(1))
	for _, d := range fb.Depth {
		if d < inf {
			n++
		}
	}
	return n
}

// String summarizes the framebuffer.
func (fb *Framebuffer) String() string {
	return fmt.Sprintf("Framebuffer(%dx%d, %d covered)", fb.W, fb.H, fb.CoveredPixels())
}
