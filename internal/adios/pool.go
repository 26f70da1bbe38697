package adios

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Frame is a reference-counted, pooled wire buffer: the steady-state
// home of a marshaled step. A frame is leased from a FramePool with
// one reference; holders that share it take additional references with
// Retain, and the last Release returns the buffer to the pool for the
// next lease — so a producer publishing at a fixed fan-out reaches a
// steady state where no marshal allocates.
//
// The contract is strictly lease-shaped: Bytes must not be read or
// written after the holder's Release, because the backing array is
// recycled into a future frame. Release is safe to call more than once
// (extra calls are ignored — each Lease wraps the recycled buffer in a
// fresh Frame, so a stale Release can never decrement a later lease),
// but a Retain after the last Release is a use-after-free bug the pool
// cannot detect.
type Frame struct {
	buf  []byte
	refs atomic.Int32
	pool *FramePool
}

// WrapFrame adopts buf as an unpooled frame holding one reference —
// for bytes that arrive already allocated (a frame read back from a
// spill store) and must travel where a leased frame is expected.
func WrapFrame(buf []byte) *Frame {
	f := &Frame{buf: buf}
	f.refs.Store(1)
	return f
}

// Bytes exposes the frame's payload, valid until Release.
func (f *Frame) Bytes() []byte { return f.buf }

// Retain takes an additional reference for a new co-holder.
func (f *Frame) Retain() { f.refs.Add(1) }

// Release drops one reference; the last one returns the buffer to the
// pool. Releasing an already-released frame is a no-op: the refcount
// bottoms out at zero, and because the buffer moves to the pool (and
// into a future lease's fresh Frame) without this Frame ever being
// reused, a stale extra Release cannot recycle a live buffer.
func (f *Frame) Release() {
	for {
		r := f.refs.Load()
		if r <= 0 {
			return
		}
		if f.refs.CompareAndSwap(r, r-1) {
			if r == 1 && f.pool != nil {
				f.pool.put(f.buf)
			}
			return
		}
	}
}

// frameClasses spans buffer capacities up to 2^frameClasses-1 bytes;
// anything larger is allocated directly and never pooled.
const frameClasses = 40

// framesPerClass bounds retained spares per size class so a burst of
// large frames cannot pin its high-water mark forever.
const framesPerClass = 8

// FramePool recycles frame buffers by power-of-two size class. It is
// an explicit free list rather than a sync.Pool so recycling is
// deterministic — a released buffer is immediately available to the
// next same-class lease, which the pool-correctness tests (and the
// steady-state alloc budget) rely on. Only the byte buffers recycle;
// every Lease wraps one in a fresh Frame, so stale references to a
// released Frame are inert. Safe for concurrent use.
type FramePool struct {
	mu      sync.Mutex
	classes [frameClasses][][]byte
}

// NewFramePool returns an empty pool.
func NewFramePool() *FramePool { return &FramePool{} }

// sizeClass maps a requested size to the smallest class that fits it:
// class c holds buffers of capacity 2^c.
func sizeClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// Lease returns a frame with exactly n bytes (recycled capacity when a
// spare of the right class exists) holding one reference.
func (p *FramePool) Lease(n int) *Frame {
	f := &Frame{pool: p}
	c := sizeClass(n)
	if c < frameClasses {
		p.mu.Lock()
		if l := len(p.classes[c]); l > 0 {
			buf := p.classes[c][l-1]
			p.classes[c][l-1] = nil
			p.classes[c] = p.classes[c][:l-1]
			p.mu.Unlock()
			f.buf = buf[:n]
			f.refs.Store(1)
			return f
		}
		p.mu.Unlock()
	}
	capacity := n
	if c < frameClasses {
		capacity = 1 << c
	}
	f.buf = make([]byte, n, capacity)
	f.refs.Store(1)
	return f
}

// put returns a fully released buffer to its size class.
func (p *FramePool) put(buf []byte) {
	c := sizeClass(cap(buf))
	if c >= frameClasses || 1<<c != cap(buf) {
		return // oversized or odd capacity: let the GC have it
	}
	p.mu.Lock()
	if len(p.classes[c]) < framesPerClass {
		p.classes[c] = append(p.classes[c], buf)
	}
	p.mu.Unlock()
}
