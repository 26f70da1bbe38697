// Package render is the reproduction's rasterization and image
// reduction layer — the part of the Catalyst role that turns filtered
// geometry into pixels and merges per-rank pixels into one image.
//
// Each rank rasterizes its own blocks' triangle soup into a local
// Framebuffer (flat-shaded, colormapped, z-buffered); Composite then
// performs the sort-last depth reduction of parallel rendering across
// the communicator — the simulation ranks in situ, or the endpoint
// group's ranks in transit. Power-of-two communicators run the
// classic binary-swap exchange (log2 P stages, each halving the owned
// image region); other sizes first fold the surplus ranks' full
// framebuffers into the largest power-of-two subset. EncodePNG writes
// the final image.
package render
