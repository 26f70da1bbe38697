package render

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"nekrs-sensei/internal/mpirt"
)

// Compositor depth-composites each rank's framebuffer to a root using
// binary swap: log2(P) stages, each halving the region a rank is
// responsible for — the standard sort-last algorithm of parallel
// rendering. Non-power-of-two communicators (an endpoint group of,
// say, 3 ranks) are handled with a fold pre-stage: each rank beyond
// the largest power of two is merged whole by a partner in the
// power-of-two set before the swap stages.
//
// Ranks are goroutines of one process, so nothing is packed or sent:
// they show each other their buffers (mpirt.ShareRefs) and every stage
// reads the partner's pixels where they sit and writes the merged
// region once — the last stage straight into the root's image. A
// Compositor owns that image and the intermediate buffer and reuses
// both, so the steady state allocates nothing; the zero value is
// ready. Each rank keeps its own, and uses it from one goroutine.
type Compositor struct {
	work  *Framebuffer // regions this rank merged before the last stage
	out   *Framebuffer // on the root: the composited image
	mine  window
	peers []interface{} // every rank's *window, by rank
}

// window is what a rank shows its peers for the length of one call.
type window struct {
	in   *Framebuffer // the caller's framebuffer; nobody writes it
	work *Framebuffer
	out  *Framebuffer // nil except on the root
}

// Composite is collective. It returns the composited image on root and
// nil elsewhere, and leaves fb untouched. The image belongs to the
// Compositor: it is valid until the next Composite on it. Every rank
// must pass the same W×H; a disagreement panics on every rank with the
// same message before a pixel moves, since it is a bug of the caller.
//
// Equal depths keep the fragment of the rank that is responsible for
// the region, and a folded rank yields to its partner, as in every
// binary swap since the first version of this package.
func (c *Compositor) Composite(comm *mpirt.Comm, fb *Framebuffer, root int) *Framebuffer {
	rank, size := comm.Rank(), comm.Size()
	// M is the largest power of two <= size; the M ranks below it run
	// the swap stages, the size-M ranks above fold into them first.
	stages := bits.Len(uint(size)) - 1
	M := 1 << stages

	if size > 2 {
		c.work = fitted(c.work, fb.W, fb.H)
	}
	if rank == root {
		c.out = fitted(c.out, fb.W, fb.H)
	}
	if len(c.peers) != size {
		c.peers = make([]interface{}, size)
	}
	c.mine = window{in: fb, work: c.work}
	if rank == root {
		c.mine.out = c.out
	}
	comm.ShareRefs(&c.mine, c.peers)
	peer := func(r int) *window { return c.peers[r].(*window) }
	for r := 1; r < size; r++ {
		if a, b := peer(0).in, peer(r).in; a.W != b.W || a.H != b.H {
			panic(fmt.Sprintf("render: composite size mismatch: rank 0 passed %dx%d, rank %d passed %dx%d",
				a.W, a.H, r, b.W, b.H))
		}
	}
	// current tells where rank r's pixels are when stage 0 begins.
	current := func(r int) *Framebuffer {
		if r+M < size {
			return peer(r).work
		}
		return peer(r).in
	}

	// Between two stages every rank passes a barrier: a stage reads
	// what its partner wrote in the one before. Within a stage a rank
	// writes only the region it keeps and reads only that region of
	// its partner, which the partner has given up — no two ranks touch
	// the same pixel.
	npix := fb.W * fb.H
	if size != M {
		if rank+M < size {
			mergeRegion(c.work, fb, peer(rank+M).in, 0, npix)
		}
		comm.Barrier()
	}
	cur := current(rank)
	lo, hi := 0, npix
	for s := 0; s < stages; s++ {
		if rank < M {
			theirs := peer(rank ^ (1 << s)).work
			if s == 0 {
				theirs = current(rank ^ 1)
			}
			if mid := lo + (hi-lo)/2; rank&(1<<s) == 0 {
				hi = mid
			} else {
				lo = mid
			}
			to := c.work
			if s == stages-1 {
				to = peer(root).out
			}
			mergeRegion(to, cur, theirs, lo, hi)
			cur = to
		}
		if s < stages-1 {
			comm.Barrier()
		}
	}
	if stages == 0 {
		copy(c.out.Color, fb.Color)
		copy(c.out.Depth, fb.Depth)
	}
	// Nobody returns — to redraw fb, or to composite again — while a
	// peer may still be reading its buffers or writing the root's.
	comm.Barrier()
	c.mine = window{}
	clear(c.peers)
	if rank != root {
		return nil
	}
	return c.out
}

// fitted returns fb if it is w×h and a new, uncleared framebuffer
// otherwise (the compositor overwrites every pixel it later reads).
func fitted(fb *Framebuffer, w, h int) *Framebuffer {
	if fb != nil && fb.W == w && fb.H == h {
		return fb
	}
	return &Framebuffer{W: w, H: h, Color: make([]uint8, 4*w*h), Depth: make([]float32, w*h)}
}

// mergeRegion writes to pixels [lo, hi) of dst the nearer of a's and
// b's fragment, a's where the depths are equal. dst may be a.
func mergeRegion(dst, a, b *Framebuffer, lo, hi int) {
	da, db, dd := a.Depth[lo:hi], b.Depth[lo:hi], dst.Depth[lo:hi]
	ca, cb, cd := a.Color[4*lo:4*hi], b.Color[4*lo:4*hi], dst.Color[4*lo:4*hi]
	// Depth travels as its bit pattern and both colors are loaded
	// before the comparison, so the choice compiles to conditional
	// moves: which fragment wins is as good as random where two ranks'
	// surfaces interleave, and a mispredicted branch costs more than
	// the rest of the pixel.
	for i := range dd {
		d, c := math.Float32bits(da[i]), binary.LittleEndian.Uint32(ca[4*i:])
		d2, c2 := math.Float32bits(db[i]), binary.LittleEndian.Uint32(cb[4*i:])
		if db[i] < da[i] {
			d, c = d2, c2
		}
		dd[i] = math.Float32frombits(d)
		binary.LittleEndian.PutUint32(cd[4*i:], c)
	}
}

// compositorKey is the communicator attribute under which Composite
// keeps a rank's Compositor.
type compositorKey struct{}

// Composite depth-composites each rank's framebuffer to root with the
// Compositor cached on the rank's communicator handle, made on first
// use. Collective; returns the image on root, nil elsewhere. The image
// is that Compositor's: the next Composite on the same communicator
// overwrites it. Code that keeps several composites alive at once
// holds one Compositor per image instead.
func Composite(comm *mpirt.Comm, fb *Framebuffer, root int) *Framebuffer {
	c, _ := comm.Attr(compositorKey{}).(*Compositor)
	if c == nil {
		c = new(Compositor)
		comm.SetAttr(compositorKey{}, c)
	}
	return c.Composite(comm, fb, root)
}
