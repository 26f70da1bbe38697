package render

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"image"
	"image/png"
	"io"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// stdlibPNG is EncodePNG as it stood before the render hot path was
// rebuilt: image/png's encoder over the framebuffer's colors.
func stdlibPNG(t testing.TB, fb *Framebuffer) []byte {
	var buf bytes.Buffer
	img := &image.NRGBA{Pix: fb.Color, Stride: 4 * fb.W, Rect: image.Rect(0, 0, fb.W, fb.H)}
	if err := png.Encode(&buf, img); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// ZlibPNGEncoder is PNGEncoder as it stood before it wrote its own zlib
// stream, kept as the reference its files are sized and timed against:
// the same header, colour type and Up filter, the rows deflated by a
// compress/zlib writer at BestSpeed that is Reset between images.
type ZlibPNGEncoder struct {
	zw         *zlib.Writer
	idat       bytes.Buffer
	file       []byte
	row, blank []byte
}

func (e *ZlibPNGEncoder) Encode(w io.Writer, fb *Framebuffer) (int64, error) {
	colourType, bpp := byte(pngRGBA), 4
	if opaque(fb.Color) {
		colourType, bpp = pngRGB, 3
	}
	var ihdr [13]byte
	binary.BigEndian.PutUint32(ihdr[0:], uint32(fb.W))
	binary.BigEndian.PutUint32(ihdr[4:], uint32(fb.H))
	ihdr[8], ihdr[9] = 8, colourType
	e.idat.Reset()
	if e.zw == nil {
		zw, err := zlib.NewWriterLevel(&e.idat, zlib.BestSpeed)
		if err != nil {
			return 0, err
		}
		e.zw = zw
	} else {
		e.zw.Reset(&e.idat)
	}
	e.row = slices.Grow(e.row[:0], 1+bpp*fb.W+1)[:1+bpp*fb.W+1]
	e.row[0] = pngFilterUp
	stride := 4 * fb.W
	if len(e.blank) != stride {
		e.blank = make([]byte, stride)
	}
	up := e.blank
	for y := 0; y < fb.H; y++ {
		cur := fb.Color[y*stride : (y+1)*stride]
		for x := 0; x < fb.W; x++ {
			d := subBytes(binary.LittleEndian.Uint32(cur[4*x:]), binary.LittleEndian.Uint32(up[4*x:]))
			binary.LittleEndian.PutUint32(e.row[1+bpp*x:], d)
		}
		if _, err := e.zw.Write(e.row[:1+bpp*fb.W]); err != nil {
			return 0, err
		}
		up = cur
	}
	if err := e.zw.Close(); err != nil {
		return 0, err
	}
	e.file = appendChunk(append(e.file[:0], pngSignature...), "IHDR", ihdr[:])
	e.file = appendChunk(e.file, "IDAT", e.idat.Bytes())
	e.file = appendChunk(e.file, "IEND", nil)
	n, err := w.Write(e.file)
	return int64(n), err
}

// idatPayload returns the payload of a file's first IDAT chunk, nil if
// it has none.
func idatPayload(file []byte) []byte {
	for p := len(pngSignature); p+8 <= len(file); {
		n := int(binary.BigEndian.Uint32(file[p:]))
		if p+12+n > len(file) {
			return nil
		}
		if string(file[p+4:p+8]) == "IDAT" {
			return file[p+8 : p+8+n]
		}
		p += 12 + n
	}
	return nil
}

// TestPNGDecodesLikeStdlib: for random framebuffers of awkward sizes,
// opaque or not, the file decodes to the image — Go type, bounds and
// pixels — that image/png's own encoding of it decodes to, whether the
// encoder is fresh or has written other shapes before.
func TestPNGDecodesLikeStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var reused PNGEncoder
	for _, size := range [][2]int{{1, 1}, {3, 5}, {513, 511}, {64, 1}, {1, 64}, {3, 5}} {
		for _, alpha := range []string{"opaque", "one clear pixel", "random"} {
			fb := NewFramebuffer(size[0], size[1])
			for i := range fb.Color {
				// Runs of equal bytes and noise, so both match and literal paths of
				// the deflater run.
				if (i/97)%2 == 0 {
					fb.Color[i] = uint8(rng.Intn(256))
				} else {
					fb.Color[i] = uint8(i / 97)
				}
				if i%4 == 3 && alpha != "random" {
					fb.Color[i] = 255
				}
			}
			if alpha == "one clear pixel" {
				fb.Color[len(fb.Color)-1] = 254
			}
			want, err := png.Decode(bytes.NewReader(stdlibPNG(t, fb)))
			if err != nil {
				t.Fatal(err)
			}
			for name, enc := range map[string]*PNGEncoder{"fresh": new(PNGEncoder), "reused": &reused} {
				var buf bytes.Buffer
				n, err := enc.Encode(&buf, fb)
				if err != nil || n != int64(buf.Len()) {
					t.Fatalf("%dx%d %s %s: wrote %d of %d bytes, err %v", size[0], size[1], alpha, name, n, buf.Len(), err)
				}
				got, err := png.Decode(&buf)
				if err != nil {
					t.Fatalf("%dx%d %s %s: %v", size[0], size[1], alpha, name, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%dx%d %s %s: decodes to a different %T than the stdlib's %T", size[0], size[1], alpha, name, got, want)
				}
			}
		}
	}
	if _, err := EncodePNG(io.Discard, &Framebuffer{}); err == nil {
		t.Error("empty framebuffer encoded")
	}
}

// FuzzEncodePNG: a framebuffer of any size up to 96 px a side, painted
// with rectangles of any colours, opaque or not, encodes, by a fresh
// encoder and by one that has written another frame before, to a file
// that decodes to the image image/png's encoding of it decodes to, and
// whose IDAT payload compress/zlib inflates to its end, Adler-32
// included. The first byte of paint is the grey of the background, and
// every five bytes from it a rectangle: how far on its corner is from
// the last, its width, its height and the colour's step from row to
// row (none, or up to 15), its colour, and the colour's step from
// column to column; so the rows repeat the ones above, repeat a pixel,
// or change a little or a lot, and the runs between start and stop at
// every alignment.
func FuzzEncodePNG(f *testing.F) {
	f.Add(uint8(3), uint8(5), []byte{1, 2, 3, 255, 0}, false)
	f.Add(uint8(64), uint8(2), []byte{0, 40, 1, 9, 0, 70, 3, 2, 200, 1}, true)
	f.Add(uint8(95), uint8(95), []byte{13, 90, 90, 77, 3, 255, 17, 5, 128, 0}, false)
	var reused PNGEncoder
	f.Fuzz(func(t *testing.T, w, h uint8, paint []byte, solid bool) {
		fb := NewFramebuffer(1+int(w)%96, 1+int(h)%96)
		if len(paint) > 0 {
			fb.Clear([4]uint8{paint[0], paint[0], paint[0], 255})
		}
		at := 0
		for ; len(paint) >= 5; paint = paint[5:] {
			at = (at + int(paint[0])*int(paint[0])) % (fb.W * fb.H)
			x0, y0 := at%fb.W, at/fb.W
			for y := y0; y < min(fb.H, y0+1+int(paint[2])%16); y++ {
				for x := x0; x < min(fb.W, x0+1+int(paint[1])); x++ {
					c := paint[3] + byte(x-x0)*paint[4] + byte(y-y0)*(paint[2]>>4)
					px := fb.Color[4*(y*fb.W+x):]
					px[0], px[1], px[2] = c, c^paint[4], c>>1
					if !solid {
						px[3] = c + paint[2]
					}
				}
			}
		}
		want, err := png.Decode(bytes.NewReader(stdlibPNG(t, fb)))
		if err != nil {
			t.Fatal(err)
		}
		for _, enc := range []*PNGEncoder{new(PNGEncoder), &reused} {
			var buf bytes.Buffer
			if _, err := enc.Encode(&buf, fb); err != nil {
				t.Fatal(err)
			}
			got, err := png.Decode(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("%dx%d: %v", fb.W, fb.H, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%dx%d: decodes to a different %T than the stdlib's %T", fb.W, fb.H, got, want)
			}
			zr, err := zlib.NewReader(bytes.NewReader(idatPayload(buf.Bytes())))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := io.Copy(io.Discard, zr); err != nil {
				t.Fatalf("%dx%d: the IDAT payload does not inflate to its end: %v", fb.W, fb.H, err)
			}
		}
	})
}

// TestLengthSymbol: every match length 3..258 gets the symbol, extra
// bits and extra-bit count of RFC 1951's table (3.2.5).
func TestLengthSymbol(t *testing.T) {
	base := []int{3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258}
	extra := []int{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0}
	for length := 3; length <= 258; length++ {
		c := 28
		for length < base[c] {
			c--
		}
		sym, x, n := lengthSymbol(uint16(1<<8 | (length - 3)))
		if int(sym) != 257+c || int(n) != extra[c] || int(x) != length-base[c] {
			t.Errorf("length %d: symbol %d, extra %d in %d bits; want %d, %d in %d", length, sym, x, n, 257+c, length-base[c], extra[c])
		}
	}
}

// renderedFrame is a 512² frame with geometry, shading and background.
func renderedFrame() *Framebuffer {
	fb := NewFramebuffer(512, 512)
	Draw(fb, testCamera(), stripSoup(), Viridis, 0, 1, DefaultLight())
	return fb
}

// TestEncodePNGSteadyStateAllocs: an encoder that has written a frame
// writes the next without allocating.
func TestEncodePNGSteadyStateAllocs(t *testing.T) {
	fb := renderedFrame()
	var enc PNGEncoder
	if _, err := enc.Encode(io.Discard, fb); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := enc.Encode(io.Discard, fb); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Encode allocates %v times, want 0", allocs)
	}
}

func BenchmarkEncodePNG(b *testing.B) {
	fb := renderedFrame()
	var enc PNGEncoder
	n, err := enc.Encode(io.Discard, fb) // the first call makes the buffers
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, _ = enc.Encode(io.Discard, fb)
	}
	b.ReportMetric(float64(n), "bytes")
}

// BenchmarkEncodePNGZlib is the encoder before it wrote its own zlib
// stream, on the same frame and as kept between frames.
func BenchmarkEncodePNGZlib(b *testing.B) {
	fb := renderedFrame()
	var enc ZlibPNGEncoder
	n, err := enc.Encode(io.Discard, fb)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, _ = enc.Encode(io.Discard, fb)
	}
	b.ReportMetric(float64(n), "bytes")
}

// BenchmarkEncodePNGStdlib is the encoder this package used before, on
// the same frame.
func BenchmarkEncodePNGStdlib(b *testing.B) {
	fb := renderedFrame()
	b.ReportAllocs()
	var n int
	for i := 0; i < b.N; i++ {
		n = len(stdlibPNG(b, fb))
	}
	b.ReportMetric(float64(n), "bytes")
}
