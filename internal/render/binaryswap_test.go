package render

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"nekrs-sensei/internal/mpirt"
)

// compositeToRoot is the serial reference the binary swap is tested
// against: color and depth buffers are gathered to root, which keeps
// the nearest fragment per pixel. Collective; returns the composited
// image on root and nil elsewhere.
func compositeToRoot(comm *mpirt.Comm, fb *Framebuffer, root int) *Framebuffer {
	// Pack color || depth.
	buf := make([]byte, len(fb.Color)+4*len(fb.Depth))
	copy(buf, fb.Color)
	for i, d := range fb.Depth {
		binary.LittleEndian.PutUint32(buf[len(fb.Color)+4*i:], math.Float32bits(d))
	}
	parts := comm.GatherBytes(root, buf)
	if comm.Rank() != root {
		return nil
	}
	out := NewFramebuffer(fb.W, fb.H)
	npix := fb.W * fb.H
	for _, p := range parts {
		if len(p) != len(buf) {
			panic(fmt.Sprintf("render: composite size mismatch: %d vs %d", len(p), len(buf)))
		}
		colors := p[:4*npix]
		for i := 0; i < npix; i++ {
			d := math.Float32frombits(binary.LittleEndian.Uint32(p[4*npix+4*i:]))
			if d < out.Depth[i] {
				out.Depth[i] = d
				copy(out.Color[4*i:4*i+4], colors[4*i:4*i+4])
			}
		}
	}
	return out
}

// randomFB fills a framebuffer with deterministic per-rank content.
func randomFB(w, h int, seed int64) *Framebuffer {
	rng := rand.New(rand.NewSource(seed))
	fb := NewFramebuffer(w, h)
	for i := 0; i < w*h; i++ {
		if rng.Float64() < 0.7 {
			fb.Depth[i] = float32(rng.Float64())
			fb.Color[4*i] = uint8(rng.Intn(256))
			fb.Color[4*i+1] = uint8(rng.Intn(256))
			fb.Color[4*i+2] = uint8(rng.Intn(256))
			fb.Color[4*i+3] = 255
		}
	}
	return fb
}

func framebuffersEqual(a, b *Framebuffer) bool {
	if a.W != b.W || a.H != b.H {
		return false
	}
	for i := range a.Depth {
		if a.Depth[i] != b.Depth[i] {
			return false
		}
	}
	for i := range a.Color {
		if a.Color[i] != b.Color[i] {
			return false
		}
	}
	return true
}

// TestBinarySwapMatchesSerial: binary-swap compositing must produce
// bit-identical output to the serial gather reduction, whichever rank
// is the root.
func TestBinarySwapMatchesSerial(t *testing.T) {
	for _, size := range []int{2, 3, 4, 5, 6, 7, 8} {
		for root := 0; root < size; root++ {
			var swapped, serial *Framebuffer
			mpirt.Run(size, func(c *mpirt.Comm) {
				fb := randomFB(16, 12, int64(c.Rank())+7)
				s1 := new(Compositor).Composite(c, fb, root)
				s2 := compositeToRoot(c, fb, 0)
				if c.Rank() == root {
					swapped = s1
				}
				if c.Rank() == 0 {
					serial = s2
				}
			})
			if swapped == nil || serial == nil {
				t.Fatalf("size %d root %d: missing root image", size, root)
			}
			if !framebuffersEqual(swapped, serial) {
				t.Errorf("size %d root %d: binary swap differs from serial composite to rank 0", size, root)
			}
		}
	}
}

// TestBinarySwapProperty: random sizes and seeds keep the equivalence.
func TestBinarySwapProperty(t *testing.T) {
	f := func(seed int64) bool {
		sizes := []int{2, 3, 4, 5}
		size := sizes[int(uint64(seed)%4)]
		w := 8 + int(uint64(seed)%5)
		h := 6 + int(uint64(seed)%3)
		var ok bool
		mpirt.Run(size, func(c *mpirt.Comm) {
			fb := randomFB(w, h, seed+int64(c.Rank())*31)
			s1 := new(Compositor).Composite(c, fb, 0)
			s2 := compositeToRoot(c, fb, 0)
			if c.Rank() == 0 {
				ok = framebuffersEqual(s1, s2)
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestCompositeDispatch: Composite runs binary swap (with the fold
// pre-stage off powers of two) for every size > 1 and the serial path
// for one rank, with identical results either way.
func TestCompositeDispatch(t *testing.T) {
	for _, size := range []int{1, 3, 4, 6} {
		var got, want *Framebuffer
		mpirt.Run(size, func(c *mpirt.Comm) {
			fb := randomFB(10, 10, int64(c.Rank()))
			g := Composite(c, fb, 0)
			w := compositeToRoot(c, fb, 0)
			if c.Rank() == 0 {
				got, want = g, w
			}
		})
		if got == nil || !framebuffersEqual(got, want) {
			t.Errorf("size %d: dispatch result differs", size)
		}
	}
}

// TestBinarySwapPreservesInput: the caller's framebuffer is not
// mutated by compositing.
func TestBinarySwapPreservesInput(t *testing.T) {
	mpirt.Run(2, func(c *mpirt.Comm) {
		fb := randomFB(8, 8, int64(c.Rank()))
		before := append([]uint8(nil), fb.Color...)
		new(Compositor).Composite(c, fb, 0)
		for i := range before {
			if fb.Color[i] != before[i] {
				t.Errorf("rank %d: input framebuffer mutated", c.Rank())
				return
			}
		}
	})
}

// TestCompositeRepeatCalls: one Compositor composites again and again
// — the same frames, then other frames of another size — and each
// result is the serial composite of that call's inputs, in the image
// the Compositor owns.
func TestCompositeRepeatCalls(t *testing.T) {
	for _, size := range []int{1, 2, 3, 4} {
		mpirt.Run(size, func(c *mpirt.Comm) {
			var comp Compositor
			var first *Framebuffer
			for call, shape := range [][3]int{{16, 12, 7}, {16, 12, 7}, {16, 12, 99}, {9, 5, 3}, {16, 12, 7}} {
				fb := randomFB(shape[0], shape[1], int64(shape[2]*10+c.Rank()))
				got := comp.Composite(c, fb, 0)
				want := compositeToRoot(c, fb, 0)
				if c.Rank() != 0 {
					if got != nil {
						t.Errorf("size %d call %d: rank %d got an image", size, call, c.Rank())
					}
					continue
				}
				if !framebuffersEqual(got, want) {
					t.Errorf("size %d call %d: differs from the serial composite", size, call)
				}
				if call == 0 {
					first = got
				} else if call < 3 && got != first {
					t.Errorf("size %d call %d: same-size composite did not reuse the image", size, call)
				}
			}
		})
	}
}

// TestCompositeSizeMismatch: ranks that disagree on the frame size all
// fail, with one message, whichever rank is the odd one — a folded
// rank included — instead of one indexing out of range and the rest
// waiting for it forever.
func TestCompositeSizeMismatch(t *testing.T) {
	for _, size := range []int{2, 3} {
		for odd := 0; odd < size; odd++ {
			msgs := make([]string, size)
			mpirt.Run(size, func(c *mpirt.Comm) {
				defer func() { msgs[c.Rank()] = fmt.Sprint(recover()) }()
				fb := NewFramebuffer(8, 8)
				if c.Rank() == odd {
					fb = NewFramebuffer(8, 4)
				}
				Composite(c, fb, 0)
			})
			for r, m := range msgs {
				if m != msgs[0] || !strings.Contains(m, "composite size mismatch") || !strings.Contains(m, "8x4") {
					t.Errorf("size %d, rank %d odd: rank %d failed with %q, rank 0 with %q", size, odd, r, m, msgs[0])
				}
			}
		}
	}
}

// TestCompositeSteadyStateAllocs: a Compositor that has composited a
// frame size composites it again without allocating, on any rank
// (AllocsPerRun counts the whole process), through the method and
// through Composite's communicator-cached Compositor alike.
func TestCompositeSteadyStateAllocs(t *testing.T) {
	const runs = 10
	for _, size := range []int{1, 2, 3, 4} {
		mpirt.Run(size, func(c *mpirt.Comm) {
			fb := randomFB(64, 64, int64(c.Rank()))
			var comp Compositor
			call := func() {
				comp.Composite(c, fb, 0)
				Composite(c, fb, 0)
			}
			call()
			c.Barrier()
			if c.Rank() != 0 {
				for i := 0; i < runs+1; i++ { // AllocsPerRun warms up with one extra run
					call()
				}
				return
			}
			if allocs := testing.AllocsPerRun(runs, call); allocs != 0 {
				t.Errorf("size %d: steady-state composite allocates %v times, want 0", size, allocs)
			}
		})
	}
}

// benchmarkComposite times steady-state composites of 512² frames,
// the benchmark workloads' image size.
func benchmarkComposite(b *testing.B, size int) {
	b.ReportAllocs()
	mpirt.Run(size, func(c *mpirt.Comm) {
		fb := randomFB(512, 512, int64(c.Rank()))
		var comp Compositor
		comp.Composite(c, fb, 0)
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			comp.Composite(c, fb, 0)
		}
	})
}

func BenchmarkComposite2(b *testing.B) { benchmarkComposite(b, 2) }
func BenchmarkComposite3(b *testing.B) { benchmarkComposite(b, 3) }
func BenchmarkComposite4(b *testing.B) { benchmarkComposite(b, 4) }
