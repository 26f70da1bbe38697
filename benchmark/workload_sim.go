package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"nekrs-sensei/internal/cases"
	"nekrs-sensei/internal/core"
	"nekrs-sensei/internal/fluid"
	"nekrs-sensei/internal/mpirt"
	"nekrs-sensei/internal/nekrs"
	"nekrs-sensei/internal/sensei"
	"nekrs-sensei/internal/telemetry"

	_ "nekrs-sensei/internal/catalyst" // analysis type "catalyst"
)

// simSizes are the sizes of a solver-driven workload.
type simSizes struct {
	Refine, Order, Ranks int
	Warm                 int // warm-up steps before the timed phase
	ImagePx              int // Catalyst image edge (0 = no rendering)
	GoldenOrdinal        int // step whose diagnostics are pinned
}

func (s simSizes) String() string {
	return fmt.Sprintf("refine=%d order=%d ranks=%d warm=%d px=%d", s.Refine, s.Order, s.Ranks, s.Warm, s.ImagePx)
}

func (s simSizes) asMap() map[string]any {
	return map[string]any{"refine": s.Refine, "order": s.Order, "ranks": s.Ranks,
		"warmup_steps": s.Warm, "image_px": s.ImagePx, "golden_ordinal": s.GoldenOrdinal}
}

func solveSizes(smoke bool) simSizes {
	if smoke {
		return simSizes{Refine: 1, Order: 3, Ranks: 2, Warm: 2, GoldenOrdinal: 3}
	}
	return simSizes{Refine: 1, Order: 6, Ranks: 2, Warm: 3, GoldenOrdinal: 11}
}

func inSituSizes(smoke bool) simSizes {
	if smoke {
		return simSizes{Refine: 1, Order: 3, Ranks: 2, Warm: 2, ImagePx: 64, GoldenOrdinal: 3}
	}
	return simSizes{Refine: 1, Order: 5, Ranks: 2, Warm: 5, ImagePx: 512, GoldenOrdinal: 13}
}

// pb146Script is the two-image Catalyst pipeline of bench.RunInSitu:
// a velocity slice down the bed and a temperature isosurface.
func pb146Script(px int) string {
	return fmt.Sprintf(`<catalyst>
  <image width="%d" height="%d" output="pb146_slice_%%06d.png" colormap="viridis"
         camera="0,-1,0.3" field="velocity_z">
    <slice normal="0,1,0" offset="0.5"/>
  </image>
  <image width="%d" height="%d" output="pb146_temp_%%06d.png" colormap="coolwarm"
         camera="1,1,0.5" field="temperature">
    <contour field="temperature" iso="0.001"/>
  </image>
</catalyst>`, px, px, px, px)
}

var pb146Images = []string{"pb146_slice_%06d.png", "pb146_temp_%06d.png"}

// runSolve is the pb146-solve workload: the paper's "Original", the
// solver with no SENSEI attached and an empty step hook. Nothing
// consumes a step but the next one, so its result is the advanced
// state and time-to-result is the step period.
func runSolve(cfg *runConfig) (*measurement, error) {
	sz := solveSizes(cfg.smoke)
	return runPasses(cfg, sz.asMap(), func(seconds float64, cap *captured) (*pass, error) {
		return simPass(cfg, sz, seconds, cap)
	})
}

// runInSitu is the pb146-insitu workload: core.Initialize with the
// two-image Catalyst script at 512² every step.
func runInSitu(cfg *runConfig) (*measurement, error) {
	sz := inSituSizes(cfg.smoke)
	return runPasses(cfg, sz.asMap(), func(seconds float64, cap *captured) (*pass, error) {
		return simPass(cfg, sz, seconds, cap)
	})
}

// simPass is one build → warm-up → timed → teardown cycle of a pb146
// solver workload, with Catalyst in situ when the sizes ask for
// images.
func simPass(cfg *runConfig, sz simSizes, seconds float64, cap *captured) (*pass, error) {
	traced := cap != nil
	goroutines := runtime.NumGoroutine()
	render := sz.ImagePx > 0
	pb := perturbCase(cases.PB146(sz.Refine, sz.Order), cfg.seed)

	outDir, err := os.MkdirTemp(cfg.scratch, "insitu-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(outDir)
	var sink *markSink
	var senseiXML string
	tiers := newTierTrace(traced && render, "sim")
	if render {
		script := filepath.Join(outDir, "analysis.xml")
		if err := os.WriteFile(script, []byte(pb146Script(sz.ImagePx)), 0o644); err != nil {
			return nil, err
		}
		sink = newMarkSink(sz.Ranks)
		if traced {
			sink.every = tiers.onLeafStep
		}
		id, release := registerSink(sink)
		defer release()
		senseiXML = catalystXML(id, script)
	}

	run := newSimRun(cfg, sz.Ranks, sz.Warm, seconds)
	peaks := make([]int64, sz.Ranks)
	output := make([]int64, sz.Ranks)
	d2h := make([]int64, sz.Ranks)
	var golden, final diagnostics

	err = mpirt.RunErr(sz.Ranks, func(comm *mpirt.Comm) error {
		rank := comm.Rank()
		sim, err := nekrs.NewSim(comm, nil, pb)
		if err != nil {
			return err
		}
		var bridge *core.Bridge
		if render {
			ctx := &sensei.Context{
				Comm: comm, Acct: sim.Acct, Timer: sim.Timer,
				Storage: sim.Storage, OutputDir: outDir, Telemetry: tiers.tel("sim"),
			}
			if bridge, err = core.Initialize(ctx, sim.Solver, []byte(senseiXML)); err != nil {
				return err
			}
		}
		tracer := tiers.tel("sim").Tracer()
		var d2hStart int64
		err = run.loop(comm, sim.Timer, sim.Solver.Step, func(st fluid.StepStats) error {
			if render {
				tracer.Stamp(int64(st.Step), telemetry.StageCompute)
				if _, err := bridge.Update(st.Step, st.Time); err != nil {
					return err
				}
				countD2H(st.Step, sz.Warm, sim.Solver.Device(), &d2hStart, &d2h[rank])
			}
			// Diagnostics are read at the pinned ordinal and at the end only:
			// they are collective reductions, not the workload's.
			if st.Step == sz.GoldenOrdinal {
				if d := readDiagnostics(sim.Solver); rank == 0 {
					golden = d
				}
			}
			return cap.captureAt(st.Step, sz.Warm, sim, rank)
		})
		if ferr := finalize(bridge); err == nil {
			err = ferr
		}
		if d := readDiagnostics(sim.Solver); rank == 0 {
			final = d
		}
		peaks[rank] = sim.Acct.Peak()
		output[rank] = sim.Storage.Bytes()
		if err == nil {
			err = cap.captureLate(sim, rank)
		}
		return err
	})
	if err != nil {
		return nil, err
	}

	p := run.newPass()
	n := p.attempted
	p.resultEnd = make([]time.Time, n)
	for i := range p.resultEnd {
		if render {
			p.resultEnd[i] = run.lastExit(i)
		} else if i > 0 {
			// No consumer: the result of a step is the state it leaves,
			// ready one step period after the previous one.
			p.resultStart[i], p.resultEnd[i] = p.stepStart[i-1], p.stepStart[i]
		}
	}
	p.memPeak = slices.Max(peaks)
	p.outputBytes = sum(output)

	// Correctness: finite diagnostics at the end, the pinned trajectory,
	// and — when rendering — every rank saw every trigger once and in
	// order, and every image is on disk, decodes and shows geometry.
	bad := map[int64]string{}
	if !final.finite() {
		bad[int64(n)] = "final diagnostics not finite"
	}
	if n >= sz.GoldenOrdinal {
		if err := checkGolden(cfg, sz.String(), sz.GoldenOrdinal, golden); err != nil {
			bad[int64(sz.GoldenOrdinal)] = err.Error()
		}
	} else if seconds > 0 {
		bad[int64(n)] = fmt.Sprintf("run ended at step %d, before the pinned ordinal %d", n, sz.GoldenOrdinal)
	}
	if render {
		for rank, l := range sink.logs {
			for ord, why := range checkOrdinals(l.ord, n) {
				bad[ord] = fmt.Sprintf("rank %d: %s", rank, why)
			}
		}
		for ord, why := range checkImages(outDir, pb146Images, n) {
			bad[ord] = why
		}
	}
	p.failAll(bad)

	run.fluidLayer(p.layer)
	if render {
		simRenderLayer(cfg, p, run, sink, d2h, traced)
	}
	if traced {
		run.solveSpans(p, render)
		tiers.stageMetrics(int64(p.warm+1), int64(n), p.layer)
	}
	p.leak = leakedGoroutines(goroutines)
	return p, nil
}

func finalize(b *core.Bridge) error {
	if b == nil {
		return nil
	}
	return b.Finalize()
}

// simRenderLayer derives the in situ layer metrics visible from the
// step hook and the markers of rank 0: the time in Bridge.Update, the
// planner's pull (update entry to the pre marker) and the Catalyst
// execute (pre to post marker).
func simRenderLayer(cfg *runConfig, p *pass, run *simRun, sink *markSink, d2h []int64, traced bool) {
	l := sink.logs[0]
	var update, pull, execute []float64
	for i := p.warm - 1; i < p.warm+p.timed && i < len(l.post); i++ {
		if traced {
			ord := int64(i + 1)
			p.spans = append(p.spans,
				cfg.span("pull", "update", ord, 0, run.entry[0][i], l.pre[i]),
				cfg.span("analyze", "update", ord, 0, l.pre[i], l.post[i]))
		}
		if i < p.warm {
			continue
		}
		update = append(update, ms(run.exit[0][i].Sub(run.entry[0][i])))
		pull = append(pull, ms(l.pre[i].Sub(run.entry[0][i])))
		execute = append(execute, ms(l.post[i].Sub(l.pre[i])))
	}
	p.layer["core.update_ms_p50"] = median(update)
	p.layer["sensei.pull_ms_p50"] = median(pull)
	p.layer["catalyst.execute_ms_p50"] = median(execute)
	p.layer["core.d2h_bytes_per_trigger"] = float64(sum(d2h)) / countWindow
}
