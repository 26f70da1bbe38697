package render

// Colormap maps a normalized scalar t in [0,1] (clamped) to RGB by
// linear interpolation through evenly spaced control points. It is a
// table rather than a function so the rasterizer can evaluate it in
// line for every pixel it shades.
type Colormap struct {
	pts [][3]float64
}

// At returns the color at t.
func (c Colormap) At(t float64) (r, g, b uint8) { return lerp8(c.segment(t)) }

// segment locates t between two control points: lo + f·(hi − lo).
// Below 0 and above 1 it is the first point and the last — the last
// as lo + 1·(hi − lo), which is hi exactly because control points are
// whole numbers. It and lerp8 are split so that both inline into the
// rasterizer's pixel loop.
func (c Colormap) segment(t float64) (lo, hi *[3]float64, f float64) {
	k, top := 0, len(c.pts)-1
	if t >= 1 {
		k, f = top-1, 1
	} else if t > 0 {
		x := t * float64(top)
		k = int(x)
		f = x - float64(k)
	}
	return &c.pts[k], &c.pts[k+1], f
}

// lerp8 interpolates the three channels and truncates them to bytes.
func lerp8(lo, hi *[3]float64, f float64) (r, g, b uint8) {
	return uint8(lo[0] + f*(hi[0]-lo[0])), uint8(lo[1] + f*(hi[1]-lo[1])), uint8(lo[2] + f*(hi[2]-lo[2]))
}

// Viridis is the perceptually uniform matplotlib default, the usual
// choice for scalar fields.
var Viridis = Colormap{[][3]float64{
	{68, 1, 84},
	{71, 44, 122},
	{59, 81, 139},
	{44, 113, 142},
	{33, 144, 141},
	{39, 173, 129},
	{92, 200, 99},
	{170, 220, 50},
	{253, 231, 37},
}}

// CoolWarm is the diverging blue-white-red map used for signed fields
// such as vertical velocity in convection renders.
var CoolWarm = Colormap{[][3]float64{
	{59, 76, 192},
	{144, 178, 254},
	{221, 221, 221},
	{246, 153, 122},
	{180, 4, 38},
}}

// Grayscale maps t to luminance.
var Grayscale = Colormap{[][3]float64{{0, 0, 0}, {255, 255, 255}}}

// ColormapByName resolves a colormap from its configuration-file name;
// unknown names fall back to Viridis.
func ColormapByName(name string) Colormap {
	switch name {
	case "coolwarm", "CoolWarm":
		return CoolWarm
	case "gray", "grayscale", "Grayscale":
		return Grayscale
	default:
		return Viridis
	}
}
