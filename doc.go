// Package repro is a pure-Go, laptop-scale reproduction of "Scaling
// Computational Fluid Dynamics: In Situ Visualization of NekRS using
// SENSEI" (Mateevitsi et al., SC-W 2023): a spectral-element
// Navier-Stokes solver instrumented with a SENSEI-style in situ
// interface, a Catalyst-style rendering back end, Nek-style
// checkpointing, an ADIOS2/SST-style in transit transport, an
// in-transit staging hub that fans one simulation out to many
// concurrent consumers under selectable backpressure policies, a
// parallel endpoint runtime that shards in-transit analysis across
// cooperating endpoint ranks with binary-swap image compositing, and
// a persistent stream archive that records the exact wire frames and
// replays them post hoc over the same protocol — plus the harness that
// regenerates every figure of the paper's evaluation and checks its
// shape.
//
// Entry points:
//
//   - cmd/nekrs — drive the solver with a par file and a SENSEI XML
//     configuration (the paper's Listing 1)
//   - cmd/sensei-endpoint — the in transit data consumer: one
//     endpoint runtime whose flags choose replicas x ranks (-ranks R
//     cooperating ranks, each dialing its own shard of the streams,
//     direct or with -consumer name:policy:depth staged; -consumers N
//     replicas of a staging consumer)
//   - cmd/archive — record a live run's streams into per-rank
//     archives, inspect them, and replay them at configurable pacing
//     (max / realtime / fixed rate) with index-answered step-range
//     and array-subset queries; `nekrs -record` and
//     `sensei-endpoint -record` record at the source
//   - cmd/figures — regenerate Figures 2/3/5/6 and the storage table
//     and exit non-zero when a figure's shape is not the paper's
//   - benchmark/ — the end-to-end benchmark: four real workloads, each
//     with a per-layer time and allocation table (benchmark/README.md)
//   - examples/ — quickstart (the API), histogram (a SENSEI
//     mini-analysis from XML), pb146 and rbc-intransit (the paper's
//     in situ and in transit use cases); every other topology — staged
//     fan-out, an endpoint group, a relay tree, post hoc replay — is a
//     README recipe over the binaries, run as printed by
//     scripts/recipes.sh
//
// Key packages: internal/sensei (DataAdaptor, the requirements-driven
// Analysis contract — declare-what-you-need Describe, pull-once
// shared Steps, stop signal — and the XML-configurable planner),
// internal/core (the nek_sensei coupling bridge), internal/adios +
// internal/intransit (the SST wire format and reader, the serial
// endpoint, and the parallel endpoint group), internal/staging (the
// hub and the one wire server: ring buffer, reference-counted zero-copy
// payloads, block / drop-oldest / latest-only / spill policies (a
// block:N edge holds N steps, publish to release),
// consumer groups, per-consumer array subsets; XML type "staging" for
// fan-out, "adios" for the paper's one-reader direct stream), internal/archive (the persistent tier: segment store +
// sidecar index, crash recovery, spill stores, indexed replay),
// internal/render (rasterizer and binary-swap compositing), and
// internal/bench (the paper's evaluation: the pb146 and RBC matrices,
// their tables and their shape checks).
//
// README.md is the front door (architecture, quickstarts, figure
// regeneration); the package inventory, the wire-protocol
// specification, and the per-experiment index live in DESIGN.md. The
// root package holds only the figure-level benchmarks
// (bench_test.go).
package repro
