package render

import (
	"bytes"
	"image"
	"image/png"
	"io"
	"math/rand"
	"reflect"
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
