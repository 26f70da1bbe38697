// fanout: the staging-hub deployment shape — one pb146 simulation
// feeding three concurrent analyses through the in-transit staging
// hub, each under its own backpressure policy:
//
//   - histogram  (block):       a temperature histogram sees every
//     triggered step — the producer waits for it.
//   - probe      (drop-oldest): pressure/velocity time series with a
//     bounded window — old steps are shed if it falls behind.
//   - render     (latest-only): a Catalyst-style image of whatever
//     state is freshest.
//
// The consumers attach over the real SST wire protocol via the
// contact-file rendezvous, exactly as external `sensei-endpoint
// -policy ...` processes would.
//
//	go run ./examples/fanout
//
// With -telemetry the whole pipeline shares one telemetry plane
// (simulation and consumers are goroutines in this process), so
// /statusz shows a complete 8-stage step trace; -hold keeps the
// exporter alive after the run for curl:
//
//	go run ./examples/fanout -telemetry 127.0.0.1:9150 -hold 60s &
//	curl http://127.0.0.1:9150/statusz
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
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
	"nekrs-sensei/internal/sensei"
	"nekrs-sensei/internal/shell"
	"nekrs-sensei/internal/staging"
	"nekrs-sensei/internal/telemetry"

	_ "nekrs-sensei/internal/catalyst" // analysis type "catalyst"
	_ "nekrs-sensei/internal/probe"    // analysis type "probe"
)

const (
	simRanks = 2
	steps    = 20
	interval = 2
)

func main() {
	var sh shell.Flags
	sh.Register(flag.CommandLine, "telemetry")
	hold := flag.Duration("hold", 0, "keep the telemetry exporter alive this long after the run, for curl against /statusz")
	flag.Parse()
	if err := run(sh.Telemetry, *hold); err != nil {
		fmt.Fprintln(os.Stderr, "fanout:", err)
		os.Exit(1)
	}
}

// consumer is one endpoint replica: a named hub subscription running
// its own SENSEI configuration.
type consumer struct {
	name   string
	config string

	steps int
	ca    *sensei.ConfigurableAnalysis
	err   error
}

func (c *consumer) run(contact, out string, tel *telemetry.Telemetry, wg *sync.WaitGroup) {
	defer wg.Done()
	addrs, err := adios.Contact{Name: contact}.Read(30 * time.Second)
	if err != nil {
		c.err = err
		return
	}
	var readers []*adios.Reader
	defer func() {
		for _, r := range readers {
			r.Close()
		}
	}()
	for _, addr := range addrs {
		// The policy is pre-declared on the hub side (the consumers
		// attribute of the staging analysis); attaching by name claims
		// it.
		r, err := adios.OpenReaderWith(addr, adios.ReaderOptions{Consumer: c.name})
		if err != nil {
			c.err = err
			return
		}
		r.SetTelemetry(tel, "consumer", c.name)
		readers = append(readers, r)
	}
	ctx := &sensei.Context{
		Comm: mpirt.NewWorld(1).Comm(0), Acct: metrics.NewAccountant(),
		Timer: metrics.NewTimer(), Storage: metrics.NewStorageCounter(),
		OutputDir: out, Telemetry: tel,
	}
	ep, err := intransit.NewEndpoint(ctx, intransit.Sources(readers...), []byte(c.config))
	if err != nil {
		c.err = err
		return
	}
	c.ca = ep.Analysis()
	c.steps, c.err = ep.Run()
}

func run(telAddr string, hold time.Duration) error {
	out := "fanout-out"
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}

	// One telemetry plane spans the whole pipeline: simulation ranks,
	// hub, wire endpoints and analysis consumers are goroutines in this
	// process, so a single trace ring collects all 8 stages of a step.
	tel, stopTel, err := shell.Start("fanout", telAddr, adios.Contact{})
	if err != nil {
		return err
	}
	defer stopTel()
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

	consumers := []*consumer{
		{name: "histogram", config: `<sensei>
  <analysis type="histogram" array="temperature" bins="8"/>
</sensei>`},
		{name: "probe", config: `<sensei>
  <analysis type="probe" points="0.5,0.5,0.5; 0.5,0.5,1.5" arrays="pressure,velocity_z" output="probes.csv"/>
</sensei>`},
		{name: "render", config: fmt.Sprintf(`<sensei>
  <analysis type="catalyst" pipeline="script" filename="%s"/>
</sensei>`, renderScript)},
	}

	fmt.Printf("pb146 -> staging hub -> %d consumers (histogram:block, probe:drop-oldest, render:latest-only)\n", len(consumers))
	fmt.Printf("%d simulated ranks, %d steps, trigger every %d\n\n", simRanks, steps, interval)

	var wg sync.WaitGroup
	for _, c := range consumers {
		wg.Add(1)
		go c.run(contact, out, tel, &wg)
	}

	// Simulation side: the staging analysis declares the consumers and
	// publishes the contact file; the hub holds the producer until the
	// block consumer attaches (rendezvous), then streams.
	senseiXML := fmt.Sprintf(`<sensei>
  <analysis type="staging" frequency="%d" contact="%s"
            consumers="histogram:block:2,probe:drop-oldest:4,render:latest-only"
            arrays="pressure,velocity_z,temperature"/>
</sensei>`, interval, contact)

	pb := cases.PB146(1, 4)
	simErrs := make([]error, simRanks)
	stats := make([][]staging.ConsumerStats, simRanks)
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
			Storage: sim.Storage, OutputDir: out, Telemetry: tel,
		}
		bridge, err := core.Initialize(ctx, sim.Solver, []byte(senseiXML))
		if err != nil {
			simErrs[rank] = err
			return
		}
		err = sim.Run(steps, func(st fluid.StepStats) error {
			tel.Tracer().Stamp(int64(st.Step), telemetry.StageCompute)
			_, err := bridge.Update(st.Step, st.Time)
			return err
		})
		if err == nil {
			err = bridge.Finalize()
		}
		simErrs[rank] = err
		if ad, ok := bridge.Analysis().FindAdaptor("staging").(*staging.Adaptor); ok {
			stats[rank] = ad.Hub().Stats()
			staged[rank] = ad.StepsStaged()
		}
	})
	wg.Wait()

	for rank, err := range simErrs {
		if err != nil {
			return fmt.Errorf("sim rank %d: %w", rank, err)
		}
	}
	for _, c := range consumers {
		if c.err != nil {
			return fmt.Errorf("consumer %s: %w", c.name, c.err)
		}
	}

	fmt.Printf("simulation staged %d steps per rank\n\n", staged[0])
	table := metrics.NewTable("hub consumers (rank 0)", "consumer", "policy", "depth", "delivered", "dropped", "steps analyzed")
	byName := map[string]*consumer{}
	for _, c := range consumers {
		byName[c.name] = c
	}
	for _, s := range stats[0] {
		analyzed := 0
		if c := byName[s.Name]; c != nil {
			analyzed = c.steps
		}
		table.AddRow(s.Name, s.Policy.String(), s.Depth, s.Delivered, s.Dropped, analyzed)
	}
	table.Render(os.Stdout)

	// The block consumer's histogram of the final temperature field.
	if hist, ok := byName["histogram"].ca.FindAdaptor("histogram").(*sensei.Histogram); ok {
		edges, counts := hist.Last()
		if len(edges) > 0 {
			fmt.Println("\nfinal temperature histogram (block consumer saw every step):")
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
	if imgs, _ := filepath.Glob(filepath.Join(out, "*.png")); len(imgs) > 0 {
		fmt.Printf("\nrender consumer wrote %d image(s) to %s/\n", len(imgs), out)
	}

	if tel != nil {
		if traces := tel.Tracer().Snapshot(); len(traces) > 0 {
			fmt.Println()
			telemetry.TraceTable("step trace (ms offsets from first stamp)", traces).Render(os.Stdout)
		}
		if hold > 0 {
			fmt.Printf("\nholding telemetry endpoint for %v — try: curl http://%s/statusz\n", hold, telAddr)
			time.Sleep(hold)
		}
	}
	return nil
}

func barOf(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = '#'
	}
	return string(b)
}
