package render

import (
	"encoding/binary"
	"fmt"
	"math"

	"nekrs-sensei/internal/mpirt"
)

// CompositeToRoot performs sort-last depth compositing of each rank's
// locally rendered framebuffer: color and depth buffers are gathered to
// root, which keeps the nearest fragment per pixel. Collective; returns
// the composited image on root and nil elsewhere.
//
// This is the standard parallel-rendering step that lets every rank
// rasterize only its own partition of the mesh, as a Catalyst pipeline
// does on each MPI rank before image reduction.
func CompositeToRoot(comm *mpirt.Comm, fb *Framebuffer, root int) *Framebuffer {
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
