# Build/test entry points. `make race` covers the concurrent
# subsystems (staging hub + spill tier, SST transport, endpoint loop,
# archive recording and replay, MPI runtime, the render path whose rank
# goroutines composite out of each other's framebuffers, and the mains
# under cmd/, whose tests run the endpoint, relay and archive
# in-process) under the race detector, and the payload views of
# internal/lebytes, which -race runs with checkptr on.
# `make bench-kernels` smoke-runs the solver hot-path benchmarks,
# `make bench-render` the in situ render ones and `make bench-codec`
# the mesh payload ones;
# `make bench-e2e` runs the end-to-end benchmark as alternating
# parent/change pairs and compares them, by default on pb146-solve;
# a change to the solver or the render path is measured on every
# workload that runs it and on the ones that must not move:
#   WORKLOADS="pb146-insitu rbc-mesh-live pb146-solve pb146-mesh-replay" make bench-e2e
# and a change to the mesh (staging, relay, wire) against its parent:
#   BASE=<parent> WORKLOADS="pb146-mesh-replay rbc-mesh-live pb146-insitu pb146-solve" make bench-e2e
# `make generate-check` fails when the generated tensor kernels are
# stale; `make loc` prints non-test Go lines per package and checks the
# wire-path packages and the whole tree against scripts/loc.ceiling;
# `make knobs` counts settable values (flags, XML attributes, .par keys,
# option-struct fields) and checks the total against scripts/knobs.ceiling;
# `make docpaths` fails when README.md or DESIGN.md names a path or a
# declaration that no longer exists; `make docflags` when README's process-flag table
# disagrees with a binary's -h; `make recipes` runs README's deployment recipes as printed;
# `make clean` removes example/figure/recipe outputs. The paper's figures are
# `go run ./cmd/figures -fig all`, whose exit code is their shape check.

GO ?= go

.PHONY: build test race vet fmt bench-kernels bench-render bench-codec bench-e2e generate-check loc knobs docpaths docflags telemetry-smoke recipes profile clean all

all: build vet fmt test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/staging/... ./internal/intransit/... \
		./internal/adios/... ./internal/lebytes/... ./internal/archive/... ./internal/mpirt/... \
		./internal/telemetry/... ./internal/metrics/... ./internal/codec/... \
		./internal/relay/... ./internal/faultnet/... ./internal/render/... \
		./internal/isosurf/... ./internal/catalyst/... ./internal/shell/... ./cmd/...

vet:
	$(GO) vet ./...

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# The solver's per-iteration path, a fixed iteration count each:
# generated derivative kernels and the metric contraction (".../avx2"
# next to ".../go" where the CPU has AVX2), fused Laplacian/Helmholtz,
# one CG iteration (one rank on a periodic box, and pb146 order 6 on
# two ranks as pb146-solve runs it), gather-scatter on pb146's two-rank
# numbering. -benchmem shows the zero-allocation steady state.
bench-kernels:
	$(GO) test -run='^$$' -bench='Deriv|Metric|Laplacian|Helmholtz|CGIteration|GSSum' \
		-benchmem -benchtime=100x ./internal/tensor ./internal/fluid ./internal/gs

# The in situ render path, a fixed iteration count each: rasteriser
# (against the reference loop it must match bit for bit), binary-swap
# composite, PNG writer (against image/png and the Up + compress/zlib
# encoder it replaced), the cell filters a 256-cell range at a time
# and one whole Catalyst trigger of the pb146-insitu workload. -benchmem shows
# the steady state: 0 allocs/op but for the image files' os.Create.
bench-render:
	$(GO) test -run '^$$' -bench 'Draw|Composite|EncodePNG|CellRange|CatalystExecute' \
		-benchmem -benchtime=20x ./internal/render ./internal/isosurf ./internal/catalyst

# The mesh payload path, a fixed iteration count each: the three wire
# codecs and the zero-RLE stage on rank 0's arrays of two consecutive
# pb146 steps (solved once per test binary, internal/adios/adiostest),
# each with its MB/s of raw array and its raw/encoded ratio, the BP06
# marshal and unmarshal of one such step, and the histogram's range
# and bin passes over two of its arrays. The codecs and the histogram
# run once per kernel path (".../avx2" next to ".../go" where the CPU
# has AVX2). -benchmem shows the steady state: 0 allocs/op.
bench-codec:
	$(GO) test -run '^$$' -bench 'Quantize|TransposeDelta|TemporalDelta|Zrle|MarshalInto|UnmarshalInto|HistogramPB146' \
		-benchmem -benchtime=200x ./internal/codec ./internal/adios ./internal/sensei

# Ten alternating parent/change pairs of `bash benchmark/run.sh` and
# the benchmark's -compare over them (benchmark/README.md, "Noise").
# BASE (default HEAD~1) names the parent; WORKLOADS, PAIRS and
# RUN_SECONDS override the defaults (pb146-solve, 10, 25).
bench-e2e:
	bash scripts/bench_e2e.sh

# internal/tensor/kernels_gen.go and kernels_amd64.s are generated
# (go generate) and committed; this fails when either no longer
# matches its generator.
generate-check:
	$(GO) generate ./internal/tensor
	git diff --exit-code -- internal/tensor/kernels_gen.go internal/tensor/kernels_amd64.s

# Non-test, non-generated Go lines per package. The sum over adios +
# staging + relay + intransit may only shrink (ROADMAP item 4), and the
# whole tree may not outgrow its own ceiling: lower scripts/loc.ceiling
# in the PR that earns it; a PR that raises the TOTAL line says what
# the lines bought.
loc:
	bash scripts/loc.sh -check

# Settable values, per binary, analysis type, .par file and option
# struct, totalled; the total may not outgrow scripts/knobs.ceiling:
# lower it in the PR that earns it; a PR that raises it says why.
knobs:
	bash scripts/knobs.sh -check

# Every backticked internal/, cmd/, examples/ or scripts/ path in
# README.md and DESIGN.md exists, and so does every backticked
# pkg.Name or Type.Method declaration.
docpaths:
	bash scripts/docpaths.sh

# README.md's process-flag table marks a binary ✓ for exactly the
# flags of that row its -h lists.
docflags:
	bash scripts/docflags.sh

# Curl-smoke the live telemetry plane: real producer + endpoint with
# -telemetry on, asserting /metrics, /statusz and /debug/pprof answer
# on both while the stream runs and meshtop -once joins their traces;
# then the same over a producer -> relay -> endpoint tree.
telemetry-smoke:
	bash scripts/telemetry_smoke.sh

# Run every `sh recipe` block of README.md as printed (fan-out,
# endpoint group, relay tree, post hoc replay), each in a fresh
# directory against binaries built once, each ending in its own check.
recipes:
	bash scripts/recipes.sh

# Capture a 10s CPU profile from a running process's telemetry
# exporter (any of nekrs, relay, sensei-endpoint, archive replay started
# with -telemetry), e.g. a solver run long enough to profile:
#   go run ./cmd/nekrs -case pb146 -order 6 -steps 2000 -telemetry 127.0.0.1:9150 &
# Inspect with `go tool pprof cpu.pprof`.
TELEMETRY_URL ?= 127.0.0.1:9150
profile:
	curl -fsS -o cpu.pprof "http://$(TELEMETRY_URL)/debug/pprof/profile?seconds=10"
	@echo "wrote cpu.pprof (go tool pprof cpu.pprof)"

clean:
	rm -rf ./*-out ./bin
	rm -f ./*.pprof
