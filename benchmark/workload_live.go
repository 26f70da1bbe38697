package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"nekrs-sensei/internal/adios"
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
)

// liveSizes are the sizes of rbc-mesh-live.
type liveSizes struct {
	Order, Warm, ImagePx int
	SimRanks, EpRanks    int
	Nx, Ny, Nz           int // elements: the wide box of bench.RunInTransit at 2 sim ranks
	Depth                int // block-policy queue depth on every edge
}

func (s liveSizes) asMap() map[string]any {
	return map[string]any{"order": s.Order, "warmup_steps": s.Warm, "image_px": s.ImagePx,
		"sim_ranks": s.SimRanks, "endpoint_ranks": s.EpRanks,
		"elements": fmt.Sprintf("%dx%dx%d", s.Nx, s.Ny, s.Nz), "queue_depth": s.Depth,
		"rayleigh": 1e5, "prandtl": 0.71, "staged_arrays": strings.Join(liveArrays, ",")}
}

func sizesLive(smoke bool) liveSizes {
	s := liveSizes{Order: 7, Warm: 5, ImagePx: 512, SimRanks: 2, EpRanks: 2, Nx: 8, Ny: 4, Nz: 3, Depth: 2}
	if smoke {
		s.Order, s.Warm, s.ImagePx = 3, 2, 64
	}
	return s
}

// liveArrays is what the RBC endpoint script reads, and so what the
// simulation stages.
var liveArrays = []string{"temperature", "velocity_z"}

// rbcScript is the two-image endpoint pipeline of bench.RunInTransit:
// a side-view temperature slice and a temperature isosurface coloured
// by vertical velocity.
func rbcScript(px int, gamma float64) string {
	return fmt.Sprintf(`<catalyst>
  <image width="%d" height="%d" output="rbc_side_%%06d.png" colormap="coolwarm"
         camera="0,-1,0.12" field="temperature">
    <slice normal="0,1,0" offset="%g"/>
  </image>
  <image width="%d" height="%d" output="rbc_w_%%06d.png" colormap="viridis"
         camera="1,1,1" field="velocity_z">
    <contour field="temperature" iso="0.5"/>
  </image>
</catalyst>`, px, px, gamma/2, px, px)
}

var rbcImages = []string{"rbc_side_%06d.png", "rbc_w_%06d.png"}

// runLive is the rbc-mesh-live workload: the real RBC solver stages
// every step over TCP into a mirror relay tier and on to a two-rank
// endpoint group that renders and composites.
func runLive(cfg *runConfig) (*measurement, error) {
	sz := sizesLive(cfg.smoke)
	return runPasses(cfg, sz.asMap(), func(seconds float64, cap *captured) (*pass, error) {
		return livePass(cfg, sz, seconds, cap)
	})
}

// catalystXML wraps a pipeline script in marker analyses.
func catalystXML(sinkID, script string) string {
	return markedXML(sinkID, fmt.Sprintf(
		`  <analysis type="catalyst" pipeline="script" filename="%s" frequency="1"/>`, script))
}

// stagingAdaptor digs the XML-configured staging adaptor (its server
// address, its hub's counters) out of an analysis multiplexer.
func stagingAdaptor(ca *sensei.ConfigurableAnalysis) (*staging.Adaptor, error) {
	ad, ok := ca.FindAdaptor("staging").(*staging.Adaptor)
	if !ok || ad.Server() == nil {
		return nil, fmt.Errorf("no staging server configured")
	}
	return ad, nil
}

// hubTotals sums one consumer's delivery counters over the producer
// ranks' hubs.
type hubTotals struct {
	mu                            sync.Mutex
	delivered, dropped, wireBytes int64
}

func (h *hubTotals) add(hub *staging.Hub) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, c := range hub.Stats() {
		h.delivered += c.Delivered
		h.dropped += c.Dropped
		h.wireBytes += c.WireBytes
	}
}

func livePass(cfg *runConfig, sz liveSizes, seconds float64, cap *captured) (*pass, error) {
	traced := cap != nil
	goroutines := runtime.NumGoroutine()
	const gamma = 2.0
	rbc := cases.RBC(1e5, 0.71, gamma, sz.Ny, sz.Nz, sz.Order)
	rbc.Mesh.Nx, rbc.Mesh.Lx = sz.Nx, 0.5*float64(sz.Nx)
	rbc = perturbCase(rbc, cfg.seed)

	dir, err := os.MkdirTemp(cfg.scratch, "live-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	epDir, refDir := filepath.Join(dir, "endpoint"), filepath.Join(dir, "reference")
	script := filepath.Join(dir, "endpoint.xml")
	if err := os.WriteFile(script, []byte(rbcScript(sz.ImagePx, gamma)), 0o644); err != nil {
		return nil, err
	}

	tiers := newTierTrace(traced, "sim", "relay", "endpoint")
	sink := newMarkSink(sz.EpRanks)
	if traced {
		sink.every = tiers.onLeafStep
	}
	sinkID, release := registerSink(sink)
	defer release()

	simXML := fmt.Sprintf(`<sensei>
  <analysis type="staging" frequency="1" consumers="relay:block:%d" arrays="%s"/>
</sensei>`, sz.Depth, strings.Join(liveArrays, ","))

	run := newSimRun(cfg, sz.SimRanks, sz.Warm, seconds)
	addrs := make([]string, sz.SimRanks)
	ready := make(chan error, 1) // rank 0: the staging servers are listening (or set-up failed)
	peaks := make([]int64, sz.SimRanks)
	output := make([]int64, sz.SimRanks)
	d2h := make([]int64, sz.SimRanks)
	var hubs hubTotals
	var final diagnostics
	ref := newCaptured(sz.SimRanks) // the last published state, for the composite check

	simDone := make(chan error, 1)
	go func() {
		simDone <- mpirt.RunErr(sz.SimRanks, func(comm *mpirt.Comm) error {
			rank := comm.Rank()
			sim, err := nekrs.NewSim(comm, nil, rbc)
			var bridge *core.Bridge
			var ad *staging.Adaptor
			if err == nil {
				ctx := &sensei.Context{
					Comm: comm, Acct: sim.Acct, Timer: sim.Timer,
					Storage: sim.Storage, OutputDir: dir, Telemetry: tiers.tel("sim"),
				}
				bridge, err = core.Initialize(ctx, sim.Solver, []byte(simXML))
			}
			if err == nil {
				if ad, err = stagingAdaptor(bridge.Analysis()); err == nil {
					addrs[rank] = ad.Server().Addr()
				}
			}
			if !agreeReady(comm, err, ready) {
				finalize(bridge) //nolint:errcheck // already failing
				return err
			}
			tracer := tiers.tel("sim").Tracer()
			var d2hStart int64
			err = run.loop(comm, sim.Timer, sim.Solver.Step, func(st fluid.StepStats) error {
				tracer.Stamp(int64(st.Step), telemetry.StageCompute)
				if _, err := bridge.Update(st.Step, st.Time); err != nil {
					return err
				}
				countD2H(st.Step, sz.Warm, sim.Solver.Device(), &d2hStart, &d2h[rank])
				return cap.captureAt(st.Step, sz.Warm, sim, rank)
			})
			// Finalize closes the hub; block-policy consumers drain first.
			if ferr := bridge.Finalize(); err == nil {
				err = ferr
			}
			peaks[rank] = sim.Acct.Peak()
			output[rank] = sim.Storage.Bytes()
			hubs.add(ad.Hub())
			if d := readDiagnostics(sim.Solver); rank == 0 {
				final = d
			}
			if err == nil {
				err = ref.captureState(sim, rank)
			}
			if err == nil {
				err = cap.captureLate(sim, rank)
			}
			return err
		})
	}()
	if err := <-ready; err != nil {
		return nil, fmt.Errorf("%w: %v", err, <-simDone)
	}

	// The relay mirrors the two producer streams (2 -> 2) for one
	// declared consumer, the endpoint group.
	rl, err := relay.New(addrs, relay.Options{
		Name: "relay", Depth: sz.Depth, Telemetry: tiers.tel("relay"),
		Downstream: []relay.Downstream{{Spec: staging.ConsumerSpec{
			Name: "endpoint", Policy: staging.Block, Depth: sz.Depth, Arrays: liveArrays}}},
	})
	if err != nil {
		return nil, fmt.Errorf("relay: %w (simulation: %v)", err, <-simDone)
	}
	relayDone := make(chan error, 1)
	go func() { relayDone <- rl.Run() }()

	relayAddrs := rl.Addrs()
	group, err := intransit.NewGroup(intransit.GroupConfig{
		Ranks: sz.EpRanks, ConfigXML: []byte(catalystXML(sinkID, script)), OutputDir: epDir,
		Presharded: true, Telemetry: tiers.tel("endpoint"),
		Sources: func(rank, ranks int) ([]intransit.StepSource, func(), error) {
			r, err := adios.OpenReaderWith(relayAddrs[rank], adios.ReaderOptions{
				Consumer: "endpoint", Policy: "block", Depth: sz.Depth, Arrays: liveArrays})
			if err != nil {
				return nil, nil, err
			}
			r.SetTelemetry(tiers.tel("endpoint"), "rank", fmt.Sprint(rank))
			return intransit.Sources(r), func() { r.Close() }, nil
		},
	})
	if err != nil {
		return nil, err
	}
	stats, groupErr := group.Run()
	simErr, relayErr := <-simDone, <-relayDone
	for _, e := range []error{simErr, relayErr, groupErr} {
		if e != nil {
			return nil, e
		}
	}
	status := rl.Status()

	p := run.newPass()
	n := p.attempted
	p.resultEnd = resultEnds(n, sink)
	p.memPeak = slices.Max(peaks)
	p.outputBytes = stats.Bytes + sum(output)

	// Correctness: every endpoint rank saw ordinals 1..n once and in
	// order; both images of every step are on disk, decode and show
	// geometry; the solver state is finite; and the last composite
	// equals a single-rank render of the same step's data.
	bad := map[int64]string{}
	for rank, l := range sink.logs {
		for ord, why := range checkOrdinals(l.ord, n) {
			bad[ord] = fmt.Sprintf("endpoint rank %d: %s", rank, why)
		}
	}
	for ord, why := range checkImages(epDir, rbcImages, n) {
		bad[ord] = why
	}
	if !final.finite() {
		bad[int64(n)] = "final diagnostics not finite"
	}
	if stats.Steps != n || int(status.Steps) != n || status.Skipped != 0 {
		bad[int64(n)] = fmt.Sprintf("published %d steps, relay forwarded %d (skipped %d), endpoint group ran %d",
			n, status.Steps, status.Skipped, stats.Steps)
	}
	if why := checkLastComposite(ref, catalystXMLPlain(script), epDir, refDir, rbcImages, n); why != "" && bad[int64(n)] == "" {
		bad[int64(n)] = why
	}
	p.failAll(bad)

	run.fluidLayer(p.layer)
	meshLayer(p, run, sink.logs[0], &hubs, status, d2h)
	p.layer["intransit.straggler_wait_ms"] = ms(stats.Straggler.MaxWait()) / float64(max(stats.Steps, 1))
	if traced {
		run.solveSpans(p, true)
		leafSpans(cfg, p, sink.logs[0], 0, run.exit[0])
		tiers.stageMetrics(int64(p.warm+1), int64(n), p.layer)
	}
	p.leak = leakedGoroutines(goroutines)
	return p, nil
}

// agreeReady ends a producer rank's set-up. The ranks agree whether
// any of them failed — before anyone waits on a peer, so a failed rank
// cannot strand the others in their first collective — and rank 0
// tells the orchestrator, which is waiting to dial the ranks' servers.
// It reports whether to go on. Collective.
func agreeReady(comm *mpirt.Comm, err error, ready chan<- error) bool {
	var failed int64
	if err != nil {
		failed = 1
	}
	ok := comm.AllreduceI64Scalar(failed, mpirt.OpMax) == 0
	if comm.Rank() == 0 {
		if ok {
			ready <- nil
		} else {
			ready <- fmt.Errorf("producer set-up failed")
		}
	}
	return ok
}

// catalystXMLPlain is the endpoint's analysis without markers, for
// the reference render.
func catalystXMLPlain(script string) string {
	return fmt.Sprintf(`<sensei>
  <analysis type="catalyst" pipeline="script" filename="%s" frequency="1"/>
</sensei>`, script)
}

// direct runs an analysis configuration over per-rank blocks on a
// single rank with no transport in between — the reference the
// through-mesh results are compared against. The first blocks it
// executes must carry the grid structure.
type direct struct {
	ca *sensei.ConfigurableAnalysis
	da *intransit.StreamDataAdaptor
}

func newDirect(blocks int, configXML, outDir string) (*direct, error) {
	comm := mpirt.NewWorld(1).Comm(0)
	ctx := &sensei.Context{
		Comm: comm, Acct: metrics.NewAccountant(), Timer: metrics.NewTimer(),
		Storage: metrics.NewStorageCounter(), OutputDir: outDir,
	}
	ca := sensei.NewConfigurableAnalysis(ctx)
	if err := ca.InitializeXML([]byte(configXML)); err != nil {
		return nil, err
	}
	return &direct{ca: ca, da: intransit.NewStreamDataAdaptor(comm, blocks)}, nil
}

// execute analyzes one step given as one block per producer rank.
func (d *direct) execute(blocks []*adios.Step) error {
	for src, s := range blocks {
		if err := d.da.Ingest(src, s); err != nil {
			return err
		}
	}
	if err := d.da.Seal(); err != nil {
		return err
	}
	if _, err := d.ca.Execute(d.da); err != nil {
		return err
	}
	return d.da.ReleaseData()
}

// checkLastComposite renders the last published step directly and
// compares each image with the one that came through the mesh.
func checkLastComposite(ref *captured, configXML, epDir, refDir string, patterns []string, n int) string {
	blocks := make([]*adios.Step, len(ref.steps))
	for rank, s := range ref.steps {
		if len(s) == 0 || s[0].Step != int64(n) {
			return "no reference state captured for the last step"
		}
		blocks[rank] = s[0]
	}
	d, err := newDirect(len(blocks), configXML, refDir)
	if err == nil {
		err = d.execute(blocks)
	}
	if err != nil {
		return "reference render: " + err.Error()
	}
	for _, pat := range patterns {
		name := fmt.Sprintf(pat, n)
		got, _, err := decodePNG(filepath.Join(epDir, name))
		if err != nil {
			return err.Error()
		}
		want, _, err := decodePNG(filepath.Join(refDir, name))
		if err != nil {
			return "reference: " + err.Error()
		}
		if d := imageMismatch(got, want); d > compositeTolerance {
			return fmt.Sprintf("%s differs from the direct render on %.3f%% of pixels (tolerance %.1f%%)",
				name, 100*d, 100*compositeTolerance)
		}
	}
	return ""
}

// meshLayer derives the layer metrics both mesh workloads read from
// accessors and from the first leaf's markers: producer time in the
// update, hub and relay counters, and the leaf's step period.
func meshLayer(p *pass, run *simRun, leaf *consumerLog, hubs *hubTotals, status relay.Status, d2h []int64) {
	var update, period []float64
	for i := p.warm; i < p.warm+p.timed; i++ {
		update = append(update, ms(run.exit[0][i].Sub(run.entry[0][i])))
		if i < len(leaf.post) && i > 0 {
			period = append(period, ms(leaf.post[i].Sub(leaf.post[i-1])))
		}
	}
	steps := float64(max(p.warm+p.timed, 1))
	p.layer["core.update_ms_p50"] = median(update)
	p.layer["sensei.pull_ms_p50"] = run.timerMean("sensei:pull")
	p.layer["intransit.endpoint_step_ms_p50"] = median(period)
	p.layer["staging.delivered"] = float64(hubs.delivered)
	p.layer["staging.dropped"] = float64(hubs.dropped)
	p.layer["staging.wire_bytes_per_step"] = float64(hubs.wireBytes) / steps
	p.layer["relay.steps"] = float64(status.Steps)
	p.layer["relay.skipped"] = float64(status.Skipped)
	p.layer["relay.bytes_in_per_step"] = float64(status.BytesIn) / steps
	p.layer["relay.bytes_out_per_step"] = float64(status.BytesOut) / steps
	p.layer["core.d2h_bytes_per_trigger"] = float64(sum(d2h)) / countWindow
}

// leafSpans emits the leaf-side spans of one consumer rank: deliver
// (producer update return to the leaf's pre marker — latency),
// receive (the leaf's previous post marker to this pre marker — what
// the leaf spends waiting on and ingesting the mesh's delivery) and
// analyze (pre to post marker).
func leafSpans(cfg *runConfig, p *pass, leaf *consumerLog, leafIndex int, updateReturn []time.Time) {
	rank := 1000 + leafIndex
	for i := p.warm; i < p.warm+p.timed && i < len(leaf.post) && i < len(updateReturn); i++ {
		ord := leaf.ord[i]
		p.spans = append(p.spans,
			cfg.span("deliver", "", ord, rank, updateReturn[i], leaf.pre[i]),
			cfg.span("receive", "", ord, rank, leaf.post[i-1], leaf.pre[i]),
			cfg.span("analyze", "", ord, rank, leaf.pre[i], leaf.post[i]))
	}
}
