// endpoint-group: the parallel endpoint deployment shape — a pb146
// simulation stages its steps through one hub per solver rank, and a
// group of four cooperating endpoint ranks consumes the stream as ONE
// logical consumer ("render", pre-declared block policy):
//
//   - every endpoint rank dials its own shard of the hubs — here one
//     each — as the plain consumer "render" (intransit.ShardSources),
//     and the ranks agree on every step before analyzing it;
//
//   - analysis work is sharded by block range: the histogram reduces
//     its partial counts across the endpoint ranks, and the render
//     pipeline rasterizes each rank's blocks locally before
//     binary-swap compositing into a single PNG per step;
//
//   - the per-step barrier accounts which rank the others waited for
//     (straggler accounting).
//
//     go run ./examples/endpoint-group
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"nekrs-sensei/internal/adios"
	"nekrs-sensei/internal/cases"
	"nekrs-sensei/internal/core"
	"nekrs-sensei/internal/fluid"
	"nekrs-sensei/internal/intransit"
	"nekrs-sensei/internal/mpirt"
	"nekrs-sensei/internal/nekrs"
	"nekrs-sensei/internal/sensei"
	"nekrs-sensei/internal/staging"

	_ "nekrs-sensei/internal/catalyst" // analysis type "catalyst"
)

const (
	simRanks      = 4
	endpointRanks = 4
	steps         = 12
	interval      = 2
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "endpoint-group:", err)
		os.Exit(1)
	}
}

func run() error {
	out := "endpoint-group-out"
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	contact := filepath.Join(out, "contact.txt")
	os.Remove(contact) //nolint:errcheck // stale rendezvous from a prior run

	renderScript := filepath.Join(out, "render.xml")
	if err := os.WriteFile(renderScript, []byte(`<catalyst>
  <image width="256" height="256" output="pb146_temp_%06d.png" colormap="coolwarm"
         camera="0,-1,0.3" field="temperature">
    <slice normal="0,1,0" offset="0.5"/>
  </image>
</catalyst>`), 0o644); err != nil {
		return err
	}
	endpointXML := fmt.Sprintf(`<sensei>
  <analysis type="catalyst" pipeline="script" filename="%s"/>
  <analysis type="histogram" array="temperature" bins="8"/>
</sensei>`, renderScript)

	fmt.Printf("pb146 (%d ranks) -> staging hubs -> endpoint group of %d ranks (one consumer \"render\")\n",
		simRanks, endpointRanks)
	fmt.Printf("%d steps, staging every %d -> %d rendered steps, one composited PNG each\n\n",
		steps, interval, steps/interval)

	// Endpoint side: once the simulation has published its contact, a
	// Group whose rank r claims the consumer "render" on its own shard
	// of the hubs.
	groupDone := make(chan struct{})
	var group *intransit.Group
	var groupStats intransit.GroupStats
	var groupErr error
	go func() {
		defer close(groupDone)
		var addrs []string
		if addrs, groupErr = (adios.Contact{Name: contact}).Read(30 * time.Second); groupErr != nil {
			return
		}
		group, groupErr = intransit.NewGroup(intransit.GroupConfig{
			Ranks:     endpointRanks,
			ConfigXML: []byte(endpointXML),
			OutputDir: out,
			Sources: intransit.ShardSources(addrs, func(_, _ int) adios.ReaderOptions {
				return adios.ReaderOptions{Consumer: "render"}
			}),
		})
		if groupErr == nil {
			groupStats, groupErr = group.Run()
		}
	}()

	// Simulation side: the staging analysis pre-declares the "render"
	// consumer, so the first published step is never lost while the
	// group attaches.
	senseiXML := fmt.Sprintf(`<sensei>
  <analysis type="staging" frequency="%d" contact="%s"
            consumers="render:block:2" arrays="pressure,temperature"/>
</sensei>`, interval, contact)

	pb := cases.PB146(1, 4)
	simErrs := make([]error, simRanks)
	staged := make([]int, simRanks)
	mpirt.Run(simRanks, func(comm *mpirt.Comm) {
		rank := comm.Rank()
		sim, err := nekrs.NewSim(comm, nil, pb)
		if err != nil {
			simErrs[rank] = err
			return
		}
		ctx := &sensei.Context{
			Comm: comm, Acct: sim.Acct, Timer: sim.Timer,
			Storage: sim.Storage, OutputDir: out,
		}
		bridge, err := core.Initialize(ctx, sim.Solver, []byte(senseiXML))
		if err != nil {
			simErrs[rank] = err
			return
		}
		err = sim.Run(steps, func(st fluid.StepStats) error {
			_, err := bridge.Update(st.Step, st.Time)
			return err
		})
		if err == nil {
			err = bridge.Finalize()
		}
		simErrs[rank] = err
		if ad, ok := bridge.Analysis().FindAdaptor("staging").(*staging.Adaptor); ok {
			staged[rank] = ad.StepsStaged()
		}
	})
	<-groupDone

	for rank, err := range simErrs {
		if err != nil {
			return fmt.Errorf("sim rank %d: %w", rank, err)
		}
	}
	if groupErr != nil {
		return fmt.Errorf("endpoint group: %w", groupErr)
	}

	fmt.Printf("simulation staged %d steps per rank\n", staged[0])
	fmt.Printf("endpoint group processed %d steps (%.2f ms mean time-to-image on rank 0)\n\n",
		groupStats.Steps, float64(groupStats.MeanStepWall().Microseconds())/1000)
	groupStats.Straggler.Render(os.Stdout)
	fmt.Printf("\nstraggler: rank %d (the rank the others waited for)\n", groupStats.Straggler.Straggler())

	// The sharded histogram: each endpoint rank counted only its block
	// range; the allreduce merged them, so every rank holds the global
	// histogram — read it from rank 0.
	if hist, ok := group.Analysis(0).FindAdaptor("histogram").(*sensei.Histogram); ok {
		edges, counts := hist.Last()
		if len(edges) > 0 {
			fmt.Println("\nfinal temperature histogram (sharded across endpoint ranks, allreduce-merged):")
			var max int64
			for _, c := range counts {
				if c > max {
					max = c
				}
			}
			for i, c := range counts {
				bar := ""
				if max > 0 {
					bar = barOf(int(40 * c / max))
				}
				fmt.Printf("  [%6.3f, %6.3f) %8d %s\n", edges[i], edges[i+1], c, bar)
			}
		}
	}
	imgs, _ := filepath.Glob(filepath.Join(out, "*.png"))
	fmt.Printf("\n%d composited image(s) in %s/ — one per rendered step\n", len(imgs), out)
	return nil
}

func barOf(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = '#'
	}
	return string(b)
}
