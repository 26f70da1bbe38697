// Command nekrs drives the solver the way the NekRS binary does:
// case + parameter file + optional SENSEI configuration, with the
// simulated MPI ranks running in-process:
//
//	nekrs -case pb146 -ranks 4 -steps 100 -sensei conf.xml -out run/
//	nekrs -case rbc -par rbc.par -ranks 8 -steps 200
//
// The -sensei flag points at a Listing-1-style XML configuration;
// omitting it reproduces the paper's "Original" configuration, and
// -checkpoint-every enables the built-in field dumps ("Checkpointing").
// A run that succeeds writes <-out>/summary.json (see summary).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"nekrs-sensei/internal/adios"
	"nekrs-sensei/internal/archive"
	"nekrs-sensei/internal/cases"
	"nekrs-sensei/internal/checkpoint"
	"nekrs-sensei/internal/core"
	"nekrs-sensei/internal/fluid"
	"nekrs-sensei/internal/metrics"
	"nekrs-sensei/internal/mpirt"
	"nekrs-sensei/internal/nekrs"
	"nekrs-sensei/internal/sensei"
	"nekrs-sensei/internal/shell"
	"nekrs-sensei/internal/telemetry"
	"nekrs-sensei/internal/tensor"

	_ "nekrs-sensei/internal/catalyst" // analysis type "catalyst"
	_ "nekrs-sensei/internal/probe"    // analysis type "probe"
	_ "nekrs-sensei/internal/staging"  // analysis types "staging" and "adios"
)

// options carries the parsed, validated command line.
type options struct {
	caseName, parFile string
	ranks, steps      int
	senseiCfg, record string
	ckEvery           int
	refine, order     int
	out               string
	logEvery          int
	shell.Flags       // -telemetry
}

// parseArgs parses argv (without the program name) into options,
// rejecting impossible run shapes up front instead of letting them fail
// deep inside mesh partitioning or the solver.
func parseArgs(argv []string) (*options, error) {
	fs := flag.NewFlagSet("nekrs", flag.ContinueOnError)
	o := &options{}
	fs.StringVar(&o.caseName, "case", "pb146", "case: pb146, rbc, tgv, cavity")
	fs.StringVar(&o.parFile, "par", "", "NekRS-style .par parameter file")
	fs.IntVar(&o.ranks, "ranks", 4, "simulated MPI ranks")
	fs.IntVar(&o.steps, "steps", 100, "timesteps")
	fs.StringVar(&o.senseiCfg, "sensei", "", "SENSEI XML configuration (enables instrumentation)")
	fs.StringVar(&o.record, "record", "", "record the outgoing stream (the hub of the staging or adios analysis) into per-rank archives under this directory")
	fs.IntVar(&o.ckEvery, "checkpoint-every", 0, "built-in checkpoint cadence in steps (0 = off)")
	fs.IntVar(&o.refine, "refine", 1, "mesh refinement factor")
	fs.IntVar(&o.order, "order", 4, "polynomial order")
	fs.StringVar(&o.out, "out", "nekrs-out", "output directory")
	fs.IntVar(&o.logEvery, "log-every", 10, "print step diagnostics every n steps")
	o.Register(fs, "telemetry")
	if err := fs.Parse(argv); err != nil {
		return nil, err
	}
	switch {
	case len(fs.Args()) > 0:
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	case o.ranks <= 0:
		return nil, fmt.Errorf("-ranks must be positive (got %d)", o.ranks)
	case o.steps <= 0:
		return nil, fmt.Errorf("-steps must be positive (got %d)", o.steps)
	case o.order < 1:
		return nil, fmt.Errorf("-order must be at least 1 (got %d)", o.order)
	case o.record != "" && o.senseiCfg == "":
		return nil, fmt.Errorf("-record needs -sensei with a staging or adios analysis (there is no stream to record)")
	}
	return o, o.Check()
}

func main() {
	o, err := parseArgs(os.Args[1:])
	if err == flag.ErrHelp {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "nekrs:", err)
		os.Exit(2)
	}
	// One telemetry plane for the whole process: the simulated ranks are
	// goroutines sharing a heap, so they share one registry and one
	// trace ring, labeled per rank. nil when disabled — every handle
	// handed out downstream no-ops.
	tel, stopTel, err := shell.Start("nekrs", o.Telemetry, adios.Contact{})
	if err == nil {
		err = run(o, tel)
		stopTel()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "nekrs:", err)
		os.Exit(1)
	}
}

// summary is what a run that succeeded writes to <-out>/summary.json:
// the slowest rank's stepping-loop seconds (set-up and finalize
// excluded), each rank's accountant peak, and the storage written,
// summed over ranks.
type summary struct {
	LoopSeconds  float64 `json:"loop_s"`
	PeakBytes    []int64 `json:"peak_bytes"`
	StorageBytes int64   `json:"storage_bytes"`
	StorageFiles int     `json:"storage_files"`
}

func run(o *options, tel *telemetry.Telemetry) error {
	var par *nekrs.Par
	if o.parFile != "" {
		src, err := os.ReadFile(o.parFile)
		if err != nil {
			return err
		}
		if par, err = nekrs.ParsePar(string(src)); err != nil {
			return err
		}
	}
	c, err := nekrs.CaseByName(o.caseName, o.refine, o.order, par)
	if err != nil {
		return err
	}
	if par != nil {
		if err := nekrs.ApplyPar(&c, par); err != nil {
			return err
		}
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}

	fmt.Printf("nekrs: case %s, order %d, %d rank(s), tensor kernels: %s\n",
		c.Name, o.order, o.ranks, tensor.KernelPath())

	errs := make([]error, o.ranks)
	loops := make([]time.Duration, o.ranks)
	peaks := make([]int64, o.ranks)
	storage := make([]*metrics.StorageCounter, o.ranks)
	var ke float64           // rank 0's copy of the collective
	var pulls *metrics.Table // rank 0's pull table, with -sensei
	// Allocator window over the stepping loop (process-wide: all
	// simulated ranks share one Go heap) — the steady-state alloc/GC
	// pressure the zero-allocation data plane is budgeted against. The
	// window opens at the first step callback so one-time setup (mesh
	// build, solver state, bridge init) does not drown the per-step
	// signal.
	alloc := metrics.NewAllocStats()
	var allocBegin sync.Once
	mpirt.Run(o.ranks, func(comm *mpirt.Comm) {
		rank := comm.Rank()
		sim, err := nekrs.NewSim(comm, nil, c)
		if err != nil {
			errs[rank] = err
			return
		}
		if tel != nil {
			// Per-rank instruments bridge into the shared registry at
			// scrape time; the stepping loop itself is untouched.
			rankKV := []string{"rank", fmt.Sprint(rank)}
			telemetry.RegisterTimer(tel.Registry(), sim.Timer, rankKV...)
			telemetry.RegisterAccountant(tel.Registry(), sim.Acct, rankKV...)
			if rank == 0 {
				telemetry.RegisterStorage(tel.Registry(), sim.Storage)
				// Why this producer is as fast as it is: a host without
				// AVX2 runs the Go kernels, about half the speed.
				solver := map[string]any{
					"kernels": tensor.KernelPath(), "nq": sim.Solver.Mesh().Nq,
					"ranks": o.ranks, "device_workers": sim.Solver.Device().Workers(),
				}
				tel.RegisterStatus("solver", func() any { return solver })
			}
		}
		if o.ckEvery > 0 {
			sim.Checkpoint = &checkpoint.FldWriter{
				Dir: o.out, Prefix: c.Name, Acct: sim.Acct, Storage: sim.Storage,
			}
			sim.CheckpointEvery = o.ckEvery
		}
		var bridge *core.Bridge
		var recFinish func() error
		var recArchive *archive.Archive
		if o.senseiCfg != "" {
			ctx := &sensei.Context{
				Comm: comm, Acct: sim.Acct, Timer: sim.Timer,
				Storage: sim.Storage, OutputDir: o.out,
				Telemetry: tel,
			}
			bridge, err = core.InitializeFile(ctx, sim.Solver, o.senseiCfg)
			if err != nil {
				errs[rank] = err
				return
			}
			if o.record != "" {
				// Each rank's outgoing stream lands in its own archive,
				// mirroring the live topology for cmd/archive -replay.
				recArchive, err = archive.Open(archive.RankDir(o.record, rank), archive.Options{})
				if err == nil {
					recFinish, err = archive.AttachAnalysis(bridge.Analysis(), recArchive)
				}
				if err != nil {
					errs[rank] = err
					return
				}
				if tel != nil {
					recArchive.RegisterTelemetry(tel, fmt.Sprintf("record-rank-%d", rank))
				}
			}
		}
		start := time.Now()
		err = sim.Run(o.steps, func(st fluid.StepStats) error {
			allocBegin.Do(alloc.Begin)
			// Stage 1 of the step trace: solver compute done, in-situ
			// processing about to start. All ranks stamp the shared
			// slot; last write wins, i.e. the slowest rank's finish.
			tel.Tracer().Stamp(int64(st.Step), telemetry.StageCompute)
			if o.logEvery > 0 && st.Step%o.logEvery == 0 {
				// The Nusselt number is a collective, so every rank
				// takes it on the same steps.
				var nu string
				if c.Name == "rbc" {
					nu = fmt.Sprintf("  Nu=%.4f", cases.Nusselt(sim.Solver, c.Kappa))
				}
				if rank == 0 {
					fmt.Printf("step %6d  t=%.4f  CFL=%.3f  iters p=%d v=%v%s\n",
						st.Step, st.Time, st.CFL, st.PressureIters, st.ViscousIters, nu)
				}
			}
			if bridge != nil {
				stop, err := bridge.Update(st.Step, st.Time)
				if err != nil {
					return err
				}
				if stop {
					// An analysis requested a clean stop: the trigger
					// is deterministic, so every rank stops at the
					// same step and the collectives stay matched.
					if rank == 0 {
						fmt.Printf("analysis requested stop at step %d\n", st.Step)
					}
					return nekrs.ErrStop
				}
			}
			return nil
		})
		loops[rank] = time.Since(start)
		if err != nil {
			errs[rank] = err
			return
		}
		if bridge != nil {
			if err := bridge.Finalize(); err != nil {
				errs[rank] = err
				return
			}
		}
		if recFinish != nil {
			// The stream is closed: drain the recorder and seal the
			// archive before reporting.
			if err := recFinish(); err != nil {
				errs[rank] = err
				return
			}
			recorded := recArchive.Len()
			bytes := recArchive.Bytes()
			if err := recArchive.Close(); err != nil {
				errs[rank] = err
				return
			}
			if rank == 0 {
				fmt.Printf("recorded %d step(s), %s into %s\n",
					recorded, metrics.HumanBytes(bytes), o.record)
			}
		}
		// Collective KE call must be matched on every rank.
		energy := sim.Solver.KineticEnergy()
		peaks[rank], storage[rank] = sim.Acct.Peak(), sim.Storage
		if rank == 0 {
			ke = energy
			if bridge != nil {
				pulls = bridge.Analysis().PullTable()
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	sum := summary{LoopSeconds: slices.Max(loops).Seconds(), PeakBytes: peaks}
	for _, s := range storage {
		sum.StorageBytes += s.Bytes()
		sum.StorageFiles += s.Files()
	}
	fmt.Printf("done: %d steps, KE=%.6g, peak mem/rank=%s, storage=%s in %d files\n",
		o.steps, ke, metrics.HumanBytes(slices.Max(peaks)),
		metrics.HumanBytes(sum.StorageBytes), sum.StorageFiles)
	if pulls != nil {
		pulls.Render(os.Stdout)
	}
	alloc.Window(o.steps).Table().Render(os.Stdout)
	js, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.out, "summary.json"), append(js, '\n'), 0o644)
}
