package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"

	"nekrs-sensei/internal/adios"
	"nekrs-sensei/internal/archive"
	"nekrs-sensei/internal/cases"
	"nekrs-sensei/internal/core"
	"nekrs-sensei/internal/fluid"
	"nekrs-sensei/internal/intransit"
	"nekrs-sensei/internal/metrics"
	"nekrs-sensei/internal/mpirt"
	"nekrs-sensei/internal/nekrs"
	"nekrs-sensei/internal/relay"
	"nekrs-sensei/internal/sensei"
	"nekrs-sensei/internal/staging"
	"nekrs-sensei/internal/telemetry"
	"nekrs-sensei/internal/vtkdata"
)

// replaySizes are the sizes of pb146-mesh-replay.
type replaySizes struct {
	Refine, Order, Ranks int
	Cycle                int // recorded steps, re-published cyclically
	Warm                 int
	Depth                int
	Bins                 int
}

func (s replaySizes) asMap() map[string]any {
	return map[string]any{"refine": s.Refine, "order": s.Order, "producer_ranks": s.Ranks,
		"recorded_steps": s.Cycle, "warmup_steps": s.Warm, "queue_depth": s.Depth,
		"histogram_bins": s.Bins, "quantize_maxerror": quantizeBound,
		"arrays": strings.Join(solverArrays, ",")}
}

func sizesReplay(smoke bool) replaySizes {
	if smoke {
		return replaySizes{Refine: 1, Order: 3, Ranks: 2, Cycle: 3, Warm: 4, Depth: 2, Bins: 16}
	}
	return replaySizes{Refine: 1, Order: 7, Ranks: 2, Cycle: 24, Warm: 50, Depth: 2, Bins: 32}
}

// quantizeBound is the absolute error the hist-q leaf declares it
// tolerates on pressure; its histograms are checked against it.
const quantizeBound = 1e-6

// recording is what set-up leaves for the timed phase: the recorded
// pb146 steps read back from the per-rank archives, as decoded blocks
// (for the reference analyses) and as ready grids (for the replay
// producers), plus the reference histograms of every recorded step.
type recording struct {
	cycle  int
	blocks [][]*adios.Step               // [step][rank]
	grids  [][]*vtkdata.UnstructuredGrid // [step][rank], arrays attached
	refs   []map[string]histogramResult  // [step][array]
	band   []int64                       // [step]: pressure values within reach of a bin edge
	points int64                         // global point and cell counts
	cells  int64
}

// record runs the real pb146 solver for the cycle's steps with every
// solver array staged into per-rank archives, then reloads them.
func record(cfg *runConfig, sz replaySizes) (*recording, error) {
	dir, err := os.MkdirTemp(cfg.scratch, "record-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	pb := perturbCase(cases.PB146(sz.Refine, sz.Order), cfg.seed)
	xml := fmt.Sprintf(`<sensei>
  <analysis type="staging" frequency="1" arrays="%s"/>
</sensei>`, strings.Join(solverArrays, ","))

	// The cycle's steps are the loop's "warm-up"; it stops after them.
	run := newSimRun(cfg, sz.Ranks, sz.Cycle, 0)
	err = mpirt.RunErr(sz.Ranks, func(comm *mpirt.Comm) error {
		sim, err := nekrs.NewSim(comm, nil, pb)
		if err != nil {
			return err
		}
		ctx := &sensei.Context{Comm: comm, Acct: sim.Acct, Timer: sim.Timer, Storage: sim.Storage, OutputDir: dir}
		bridge, err := core.Initialize(ctx, sim.Solver, []byte(xml))
		if err != nil {
			return err
		}
		arch, err := archive.Open(archive.RankDir(dir, comm.Rank()), archive.Options{})
		if err != nil {
			return err
		}
		finish, err := archive.AttachAnalysis(bridge.Analysis(), arch)
		if err != nil {
			return err
		}
		err = run.loop(comm, sim.Timer, sim.Solver.Step, func(st fluid.StepStats) error {
			_, err := bridge.Update(st.Step, st.Time)
			return err
		})
		if ferr := bridge.Finalize(); err == nil {
			err = ferr
		}
		if ferr := finish(); err == nil {
			err = ferr
		}
		if cerr := arch.Close(); err == nil {
			err = cerr
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("record: %w", err)
	}
	// The recording is set-up work; keep the reference-kernel samples its
	// steps took for setup_s.
	recorded := &pass{}
	run.fill(recorded)
	cfg.setupCalib = recorded.warmCalib
	rec := &recording{cycle: sz.Cycle,
		blocks: make([][]*adios.Step, sz.Cycle), grids: make([][]*vtkdata.UnstructuredGrid, sz.Cycle)}
	for i := range rec.blocks {
		rec.blocks[i] = make([]*adios.Step, sz.Ranks)
		rec.grids[i] = make([]*vtkdata.UnstructuredGrid, sz.Ranks)
	}
	for rank := 0; rank < sz.Ranks; rank++ {
		arch, err := archive.Open(archive.RankDir(dir, rank), archive.Options{ReadOnly: true})
		if err != nil {
			return nil, fmt.Errorf("reload: %w", err)
		}
		src := arch.Source(-1, -1, nil)
		var structure *vtkdata.UnstructuredGrid
		for i := 0; ; i++ {
			s, err := src.BeginStep()
			if errors.Is(err, io.EOF) {
				if i != sz.Cycle {
					err = fmt.Errorf("reload: rank %d archive holds %d steps, recorded %d", rank, i, sz.Cycle)
				} else {
					err = nil
				}
				if cerr := arch.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					return nil, err
				}
				break
			}
			if err != nil {
				return nil, fmt.Errorf("reload: %w", err)
			}
			if i >= sz.Cycle {
				continue
			}
			if i == 0 {
				if structure, err = structureOf(s); err != nil {
					return nil, fmt.Errorf("reload: rank %d: %w", rank, err)
				}
				rec.points += int64(structure.NumPoints())
				rec.cells += int64(structure.NumCells())
			}
			g, err := gridWith(structure, s)
			if err != nil {
				return nil, fmt.Errorf("reload: rank %d: %w", rank, err)
			}
			rec.blocks[i][rank], rec.grids[i][rank] = s, g
		}
	}
	return rec, rec.reduceReferences(sz)
}

// leafXML is a histogram leaf's analysis configuration.
func leafXML(sinkID string, bins int, arrays ...string) string {
	var inner []string
	for _, a := range arrays {
		inner = append(inner, fmt.Sprintf(`  <analysis type="bench-hist" sink="%s" array="%s" bins="%d"/>`, sinkID, a, bins))
	}
	return markedXML(sinkID, strings.Join(inner, "\n"))
}

var histArrays = []string{"temperature", "pressure"}

// reduceReferences reduces the recorded steps' histograms directly —
// both ranks' blocks on one rank, no transport — and counts, per
// step, the pressure values close enough to a bin edge that the
// declared quantization error may move them across it.
func (rec *recording) reduceReferences(sz replaySizes) error {
	sink := newMarkSink(1)
	id, release := registerSink(sink)
	defer release()
	d, err := newDirect(sz.Ranks, leafXML(id, sz.Bins, histArrays...), "")
	if err != nil {
		return err
	}
	for i := 0; i < rec.cycle; i++ {
		if err := d.execute(rec.blocks[i]); err != nil {
			return fmt.Errorf("reference for recorded step %d: %w", i+1, err)
		}
		ref := map[string]histogramResult{}
		for _, a := range histArrays {
			ref[a] = sink.hists[a][i]
		}
		rec.refs = append(rec.refs, ref)

		// A delivered value is within the bound of the true one, and the
		// delivered range within the bound of the true range, so an edge
		// can move by the bound and a value by the bound again.
		h := ref["pressure"]
		width := (h.hi - h.lo) / float64(len(h.counts))
		var band int64
		for _, g := range rec.grids[i] {
			for _, v := range g.FindPointData("pressure").Data {
				pos := (v - h.lo) / width
				if math.Abs(pos-math.Round(pos))*width <= 3*quantizeBound {
					band++
				}
			}
		}
		rec.band = append(rec.band, band)
	}
	return nil
}

// replayAdaptor is the benchmark-side sensei.DataAdaptor of a replay
// producer rank: it exposes the recorded step the cursor points at,
// zero-copy, under a re-stamped ordinal.
type replayAdaptor struct {
	rec  *recording
	rank int
	cur  int // index into the recording
	step int
	time float64
}

func (a *replayAdaptor) NumberOfMeshes() (int, error) { return 1, nil }

func (a *replayAdaptor) MeshMetadata(i int) (*sensei.MeshMetadata, error) {
	if i != 0 {
		return nil, fmt.Errorf("replay: mesh %d out of range", i)
	}
	md := &sensei.MeshMetadata{MeshName: core.MeshName, NumPoints: a.rec.points, NumCells: a.rec.cells,
		NumBlocks: len(a.rec.grids[0])}
	for _, name := range solverArrays {
		md.ArrayNames = append(md.ArrayNames, name)
		md.ArrayAssoc = append(md.ArrayAssoc, sensei.AssocPoint)
	}
	return md, nil
}

func (a *replayAdaptor) Mesh(meshName string, structureOnly bool) (*vtkdata.UnstructuredGrid, error) {
	if meshName != core.MeshName {
		return nil, fmt.Errorf("replay: unknown mesh %q", meshName)
	}
	g := a.rec.grids[a.cur][a.rank]
	return &vtkdata.UnstructuredGrid{Points: g.Points, Connectivity: g.Connectivity,
		Offsets: g.Offsets, CellTypes: g.CellTypes}, nil
}

func (a *replayAdaptor) AddArray(g *vtkdata.UnstructuredGrid, meshName string, assoc sensei.Assoc, name string) error {
	arr := a.rec.grids[a.cur][a.rank].FindPointData(name)
	if arr == nil || assoc != sensei.AssocPoint {
		return fmt.Errorf("replay: unknown array %q", name)
	}
	if g.FindPointData(name) != nil {
		return nil
	}
	return g.AddPointData(name, 1, arr.Data)
}

func (a *replayAdaptor) Time() float64      { return a.time }
func (a *replayAdaptor) TimeStep() int      { return a.step }
func (a *replayAdaptor) ReleaseData() error { return nil }

// runReplay is the pb146-mesh-replay workload: set-up records real
// pb146 steps; the timed phase re-publishes them with no solver
// through the same staging analysis, a 2 -> 1 repartitioning relay,
// and two histogram leaves, one of them behind a quantize codec.
func runReplay(cfg *runConfig) (*measurement, error) {
	sz := sizesReplay(cfg.smoke)
	rec, err := record(cfg, sz)
	if err != nil {
		return nil, err
	}
	// The cycle order is part of the seeded input.
	order := rand.New(rand.NewSource(cfg.seed)).Perm(sz.Cycle)
	return runPasses(cfg, sz.asMap(), func(seconds float64, cap *captured) (*pass, error) {
		if cap != nil { // the probes run on the first two recorded steps
			for rank := range cap.steps {
				cap.steps[rank] = []*adios.Step{rec.blocks[0][rank], rec.blocks[1][rank]}
			}
		}
		return replayPass(cfg, sz, rec, order, seconds, cap != nil)
	})
}

// leaf is one single-rank histogram endpoint below the relay.
type leaf struct {
	name   string
	arrays []string
	codecs []string
	bound  float64 // declared error bound, 0 = lossless
	sink   *markSink
	steps  int
	err    error
}

func (l *leaf) run(addr string, bins int, tel *telemetry.Telemetry, wg *sync.WaitGroup) {
	defer wg.Done()
	id, release := registerSink(l.sink)
	defer release()
	r, err := adios.OpenReaderWith(addr, adios.ReaderOptions{
		Consumer: l.name, Policy: "block", Arrays: l.arrays, Codecs: l.codecs})
	if err != nil {
		l.err = err
		return
	}
	defer r.Close()
	r.SetTelemetry(tel, "consumer", l.name)
	ctx := &sensei.Context{
		Comm: mpirt.NewWorld(1).Comm(0), Acct: metrics.NewAccountant(), Timer: metrics.NewTimer(),
		Storage: metrics.NewStorageCounter(), Telemetry: tel,
	}
	ep, err := intransit.NewEndpoint(ctx, intransit.Sources(r), []byte(leafXML(id, bins, l.arrays...)))
	if err != nil {
		l.err = err
		return
	}
	l.steps, l.err = ep.Run()
}

func replayPass(cfg *runConfig, sz replaySizes, rec *recording, order []int, seconds float64, traced bool) (*pass, error) {
	goroutines := runtime.NumGoroutine()
	tiers := newTierTrace(traced, "sim", "relay", "endpoint")
	leaves := []*leaf{
		{name: "hist", arrays: histArrays, sink: newMarkSink(1)},
		{name: "hist-q", arrays: []string{"pressure"}, bound: quantizeBound,
			codecs: []string{fmt.Sprintf("quantize:%g", quantizeBound)}, sink: newMarkSink(1)},
	}
	if traced {
		leaves[0].sink.every = tiers.onLeafStep
	}

	xml := fmt.Sprintf(`<sensei>
  <analysis type="staging" frequency="1" consumers="relay:block:%d" arrays="%s"/>
</sensei>`, sz.Depth, strings.Join(solverArrays, ","))
	run := newSimRun(cfg, sz.Ranks, sz.Warm, seconds)
	addrs := make([]string, sz.Ranks)
	ready := make(chan error, 1)
	peaks := make([]int64, sz.Ranks)
	var hubs hubTotals

	producersDone := make(chan error, 1)
	go func() {
		producersDone <- mpirt.RunErr(sz.Ranks, func(comm *mpirt.Comm) error {
			rank := comm.Rank()
			ctx := &sensei.Context{Comm: comm, Acct: metrics.NewAccountant(), Timer: metrics.NewTimer(),
				Storage: metrics.NewStorageCounter(), Telemetry: tiers.tel("sim")}
			ca := sensei.NewConfigurableAnalysis(ctx)
			err := ca.InitializeXML([]byte(xml))
			var ad *staging.Adaptor
			if err == nil {
				if ad, err = stagingAdaptor(ca); err == nil {
					addrs[rank] = ad.Server().Addr()
				}
			}
			if !agreeReady(comm, err, ready) {
				ca.Finalize() //nolint:errcheck // already failing
				return err
			}
			da := &replayAdaptor{rec: rec, rank: rank}
			tracer := tiers.tel("sim").Tracer()
			ord := 0
			advance := func() fluid.StepStats {
				ord++
				da.cur, da.step, da.time = order[(ord-1)%rec.cycle], ord, float64(ord)*2e-3
				return fluid.StepStats{Step: ord, Time: da.time}
			}
			err = run.loop(comm, ctx.Timer, advance, func(st fluid.StepStats) error {
				tracer.Stamp(int64(st.Step), telemetry.StageCompute)
				_, err := ca.Execute(da)
				return err
			})
			if ferr := ca.Finalize(); err == nil {
				err = ferr
			}
			peaks[rank] = ctx.Acct.Peak()
			hubs.add(ad.Hub())
			return err
		})
	}()
	if err := <-ready; err != nil {
		return nil, fmt.Errorf("%w: %v", err, <-producersDone)
	}

	// The relay re-blocks the two rank streams into one (the raw
	// SpliceFrames path: the trunk stays uncoded because one leaf is
	// lossless) and serves both leaves from its single output hub.
	var downstream []relay.Downstream
	for _, l := range leaves {
		downstream = append(downstream, relay.Downstream{Spec: staging.ConsumerSpec{
			Name: l.name, Policy: staging.Block, Depth: sz.Depth, Arrays: l.arrays, Codecs: l.codecs}})
	}
	rl, err := relay.New(addrs, relay.Options{Name: "relay", Depth: sz.Depth, OutRanks: 1,
		Telemetry: tiers.tel("relay"), Downstream: downstream})
	if err != nil {
		return nil, fmt.Errorf("relay: %w (producers: %v)", err, <-producersDone)
	}
	relayDone := make(chan error, 1)
	go func() { relayDone <- rl.Run() }()
	var wg sync.WaitGroup
	for _, l := range leaves {
		wg.Add(1)
		go l.run(rl.Addrs()[0], sz.Bins, tiers.tel("endpoint"), &wg)
	}
	wg.Wait()
	prodErr, relayErr := <-producersDone, <-relayDone
	for _, e := range []error{prodErr, relayErr, leaves[0].err, leaves[1].err} {
		if e != nil {
			return nil, e
		}
	}
	status := rl.Status()
	if status.Mode != "splice" {
		return nil, fmt.Errorf("relay ran in %s mode, the workload needs the splice path", status.Mode)
	}

	p := run.newPass()
	n := p.attempted
	p.resultEnd = resultEnds(n, leaves[0].sink, leaves[1].sink)
	p.memPeak = slices.Max(peaks)

	// Correctness: each leaf saw ordinals 1..n once and in order, and
	// every histogram it reduced equals the reference of the recorded
	// step that ordinal replayed — exactly at the raw leaf, within the
	// declared bound at the quantized one.
	bad := map[int64]string{}
	for _, l := range leaves {
		log := l.sink.logs[0]
		for ord, why := range checkOrdinals(log.ord, n) {
			bad[ord] = fmt.Sprintf("leaf %s: %s", l.name, why)
		}
		for _, array := range l.arrays {
			got := l.sink.hists[array]
			for i, ord := range log.ord {
				if ord < 1 || i >= len(got) {
					continue
				}
				src := order[(int(ord)-1)%rec.cycle]
				band := int64(0)
				if l.bound > 0 {
					band = rec.band[src]
				}
				if err := histogramsEqual(got[i], rec.refs[src][array], l.bound, band); err != nil {
					bad[ord] = fmt.Sprintf("leaf %s: %s histogram: %v", l.name, array, err)
				}
			}
		}
	}
	if int(status.Steps) != n || status.Skipped != 0 {
		bad[int64(n)] = fmt.Sprintf("published %d steps, relay forwarded %d (skipped %d)", n, status.Steps, status.Skipped)
	}
	p.failAll(bad)

	meshLayer(p, run, leaves[0].sink.logs[0], &hubs, status, nil)
	if traced {
		for i := run.warm - 1; i+1 < len(run.entry[0]); i++ {
			ord := int64(i + 1)
			p.spans = append(p.spans,
				cfg.span("step", "", ord, 0, run.entry[0][i], run.entry[0][i+1]),
				cfg.span("update", "step", ord, 0, run.entry[0][i], run.exit[0][i]))
		}
		for i, l := range leaves {
			leafSpans(cfg, p, l.sink.logs[0], i, run.exit[0])
		}
		tiers.stageMetrics(int64(p.warm+1), int64(n), p.layer)
	}
	p.leak = leakedGoroutines(goroutines)
	return p, nil
}
