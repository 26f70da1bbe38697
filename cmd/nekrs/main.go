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
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"

	"nekrs-sensei/internal/archive"
	"nekrs-sensei/internal/checkpoint"
	"nekrs-sensei/internal/core"
	"nekrs-sensei/internal/fluid"
	"nekrs-sensei/internal/metrics"
	"nekrs-sensei/internal/mpirt"
	"nekrs-sensei/internal/nekrs"
	"nekrs-sensei/internal/sensei"
	"nekrs-sensei/internal/telemetry"

	_ "nekrs-sensei/internal/catalyst" // analysis type "catalyst"
	_ "nekrs-sensei/internal/probe"    // analysis type "probe"
	_ "nekrs-sensei/internal/staging"  // analysis types "staging" and "adios"
)

func main() {
	caseName := flag.String("case", "pb146", "case: pb146, rbc, tgv, cavity")
	parFile := flag.String("par", "", "NekRS-style .par parameter file")
	ranks := flag.Int("ranks", 4, "simulated MPI ranks")
	steps := flag.Int("steps", 100, "timesteps")
	senseiCfg := flag.String("sensei", "", "SENSEI XML configuration (enables instrumentation)")
	record := flag.String("record", "", "record the outgoing stream (the hub of the staging or adios analysis) into per-rank archives under this directory")
	ckEvery := flag.Int("checkpoint-every", 0, "built-in checkpoint cadence in steps (0 = off)")
	refine := flag.Int("refine", 1, "mesh refinement factor")
	order := flag.Int("order", 4, "polynomial order")
	out := flag.String("out", "nekrs-out", "output directory")
	logEvery := flag.Int("log-every", 10, "print step diagnostics every n steps")
	sessionTTL := flag.Duration("session-ttl", 0, "staging or adios analysis: retain a disconnected consumer's cursor and queue for this long, resumable exactly-once (0 = off)")
	telAddr := flag.String("telemetry", "", "serve /metrics, /statusz and /debug/pprof on this address (e.g. 127.0.0.1:9150; empty = off)")
	flag.Parse()

	if err := validateFlags(*ranks, *steps, *order); err != nil {
		fmt.Fprintln(os.Stderr, "nekrs:", err)
		os.Exit(2)
	}
	if *record != "" && *senseiCfg == "" {
		fmt.Fprintln(os.Stderr, "nekrs: -record needs -sensei with a staging or adios analysis (there is no stream to record)")
		os.Exit(2)
	}
	if *sessionTTL < 0 {
		fmt.Fprintln(os.Stderr, "nekrs: -session-ttl must be non-negative")
		os.Exit(2)
	}
	// The resilience flag becomes an attribute default for the
	// XML-configured analyses: an explicit attribute in the config wins.
	attrDefaults := map[string]string{}
	if *sessionTTL > 0 {
		attrDefaults["session-ttl"] = sessionTTL.String()
	}
	if err := run(*caseName, *parFile, *ranks, *steps, *senseiCfg, *record, *ckEvery, *refine, *order, *out, *logEvery, *telAddr, attrDefaults); err != nil {
		fmt.Fprintln(os.Stderr, "nekrs:", err)
		os.Exit(1)
	}
}

// validateFlags rejects impossible run shapes up front, instead of
// letting them fail deep inside mesh partitioning or the solver.
func validateFlags(ranks, steps, order int) error {
	if ranks <= 0 {
		return fmt.Errorf("-ranks must be positive (got %d)", ranks)
	}
	if steps <= 0 {
		return fmt.Errorf("-steps must be positive (got %d)", steps)
	}
	if order < 1 {
		return fmt.Errorf("-order must be at least 1 (got %d)", order)
	}
	return nil
}

func run(caseName, parFile string, ranks, steps int, senseiCfg, record string, ckEvery, refine, order int, out string, logEvery int, telAddr string, attrDefaults map[string]string) error {
	var par *nekrs.Par
	if parFile != "" {
		src, err := os.ReadFile(parFile)
		if err != nil {
			return err
		}
		if par, err = nekrs.ParsePar(string(src)); err != nil {
			return err
		}
	}
	c, err := nekrs.CaseByName(caseName, refine, order, par)
	if err != nil {
		return err
	}
	if par != nil {
		if err := nekrs.ApplyPar(&c, par); err != nil {
			return err
		}
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}

	// One telemetry plane for the whole process: the simulated ranks are
	// goroutines sharing a heap, so they share one registry and one
	// trace ring, labeled per rank. nil when disabled — every handle
	// handed out downstream no-ops.
	var tel *telemetry.Telemetry
	if telAddr != "" {
		tel = telemetry.New("nekrs")
		telemetry.RegisterRuntime(tel.Registry())
		exp, err := tel.Serve(telAddr)
		if err != nil {
			return err
		}
		defer exp.Close()
		fmt.Printf("telemetry: %s/metrics %s/statusz %s/debug/pprof\n",
			exp.URL(), exp.URL(), exp.URL())
	}

	errs := make([]error, ranks)
	// Allocator window over the stepping loop (process-wide: all
	// simulated ranks share one Go heap) — the steady-state alloc/GC
	// pressure the zero-allocation data plane is budgeted against. The
	// window opens at the first step callback so one-time setup (mesh
	// build, solver state, bridge init) does not drown the per-step
	// signal.
	alloc := metrics.NewAllocStats()
	var allocBegin sync.Once
	mpirt.Run(ranks, func(comm *mpirt.Comm) {
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
			}
		}
		if ckEvery > 0 {
			sim.Checkpoint = &checkpoint.FldWriter{
				Dir: out, Prefix: c.Name, Acct: sim.Acct, Storage: sim.Storage,
			}
			sim.CheckpointEvery = ckEvery
		}
		var bridge *core.Bridge
		var recFinish func() error
		var recArchive *archive.Archive
		if senseiCfg != "" {
			ctx := &sensei.Context{
				Comm: comm, Acct: sim.Acct, Timer: sim.Timer,
				Storage: sim.Storage, OutputDir: out,
				Telemetry: tel, AttrDefaults: attrDefaults,
			}
			bridge, err = core.InitializeFile(ctx, sim.Solver, senseiCfg)
			if err != nil {
				errs[rank] = err
				return
			}
			if record != "" {
				// Each rank's outgoing stream lands in its own archive,
				// mirroring the live topology for cmd/archive -replay.
				recArchive, err = archive.Open(archive.RankDir(record, rank), archive.Options{})
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
		err = sim.Run(steps, func(st fluid.StepStats) error {
			allocBegin.Do(alloc.Begin)
			// Stage 1 of the step trace: solver compute done, in-situ
			// processing about to start. All ranks stamp the shared
			// slot; last write wins, i.e. the slowest rank's finish.
			tel.Tracer().Stamp(int64(st.Step), telemetry.StageCompute)
			if rank == 0 && logEvery > 0 && st.Step%logEvery == 0 {
				fmt.Printf("step %6d  t=%.4f  CFL=%.3f  iters p=%d v=%v\n",
					st.Step, st.Time, st.CFL, st.PressureIters, st.ViscousIters)
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
					recorded, metrics.HumanBytes(bytes), record)
			}
		}
		if rank == 0 {
			ke := sim.Solver.KineticEnergy()
			fmt.Printf("done: %d steps, KE=%.6g, peak mem/rank=%s, storage=%s in %d files\n",
				steps, ke, metrics.HumanBytes(sim.Acct.Peak()),
				metrics.HumanBytes(sim.Storage.Bytes()), sim.Storage.Files())
			if bridge != nil {
				bridge.Analysis().PullTable().Render(os.Stdout)
			}
			alloc.Window(steps).Table().Render(os.Stdout)
		} else {
			// Collective KE call must be matched on every rank.
			sim.Solver.KineticEnergy()
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
