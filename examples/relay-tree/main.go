// relay-tree: the distributed staging mesh — one pb146 simulation at
// the top, two relay tiers fanned out below it, analysis leaves at
// the bottom:
//
//	pb146 (2 ranks) ── staging hubs ── entry "sim"
//	     │
//	  tier0 relay  (mirror: 2 streams in, 2 out)      entry "tier0"
//	     │
//	  tier1 relay  (repartition: 2 streams -> 1)      entry "tier1"
//	    ╱ ╲
//	histogram   render        (plus "direct", a ground-truth
//	 (block)   (catalyst)      endpoint attached straight to the sim)
//
// Every process rendezvouses through one contact directory: each hub
// and relay writes its own named entry (`<dir>/<name>.contact`), so a
// whole tree shares a directory instead of threading N file paths.
// The relays attach upstream as ordinary SST consumers and forward
// only the union of what their subtree declared (temperature here —
// pressure never crosses the trunk), and a crashing or finishing tier
// always hands its leaves a clean end-of-stream, never a connection
// error.
//
//	go run ./examples/relay-tree
//
// With -telemetry every stage (sim ranks, relays, leaves — all
// goroutines here) shares one telemetry plane; /statusz lists each
// relay under relay/<name>:
//
//	go run ./examples/relay-tree -telemetry 127.0.0.1:9151 -hold 60s &
//	curl http://127.0.0.1:9151/statusz
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
	"nekrs-sensei/internal/relay"
	"nekrs-sensei/internal/sensei"
	"nekrs-sensei/internal/shell"
	"nekrs-sensei/internal/staging"
	"nekrs-sensei/internal/telemetry"

	_ "nekrs-sensei/internal/catalyst" // analysis type "catalyst"
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
		fmt.Fprintln(os.Stderr, "relay-tree:", err)
		os.Exit(1)
	}
}

// tier dials its upstream contact entry, runs a relay over it, and
// publishes its own entry for the tier below.
type tier struct {
	entry    string // contact entry this tier publishes
	upstream string // contact entry it attaches to
	opts     relay.Options

	r   *relay.Relay
	err error
}

func (t *tier) run(cdir string, tel *telemetry.Telemetry, wg *sync.WaitGroup) {
	defer wg.Done()
	addrs, err := adios.Contact{Dir: cdir, Name: t.upstream}.Read(30 * time.Second)
	if err != nil {
		t.err = fmt.Errorf("rendezvous %q: %w", t.upstream, err)
		return
	}
	t.opts.Telemetry = tel
	t.r, err = relay.New(addrs, t.opts)
	if err != nil {
		t.err = err
		return
	}
	if err := (adios.Contact{Dir: cdir, Name: t.entry}).Write(t.r.Addrs(), ""); err != nil {
		t.err = err
		return
	}
	t.err = t.r.Run()
}

// leaf is one analysis endpoint attached below a contact entry.
type leaf struct {
	name   string
	entry  string
	config string

	steps int
	ca    *sensei.ConfigurableAnalysis
	err   error
}

func (l *leaf) run(cdir, out string, tel *telemetry.Telemetry, wg *sync.WaitGroup) {
	defer wg.Done()
	addrs, err := adios.Contact{Dir: cdir, Name: l.entry}.Read(30 * time.Second)
	if err != nil {
		l.err = fmt.Errorf("rendezvous %q: %w", l.entry, err)
		return
	}
	var readers []*adios.Reader
	defer func() {
		for _, r := range readers {
			r.Close()
		}
	}()
	for _, addr := range addrs {
		r, err := adios.OpenReaderWith(addr, adios.ReaderOptions{Consumer: l.name})
		if err != nil {
			l.err = err
			return
		}
		r.SetTelemetry(tel, "consumer", l.name)
		readers = append(readers, r)
	}
	ctx := &sensei.Context{
		Comm: mpirt.NewWorld(1).Comm(0), Acct: metrics.NewAccountant(),
		Timer: metrics.NewTimer(), Storage: metrics.NewStorageCounter(),
		OutputDir: out, Telemetry: tel,
	}
	ep, err := intransit.NewEndpoint(ctx, intransit.Sources(readers...), []byte(l.config))
	if err != nil {
		l.err = err
		return
	}
	l.ca = ep.Analysis()
	l.steps, l.err = ep.Run()
}

func run(telAddr string, hold time.Duration) error {
	out := "relay-tree-out"
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	cdir := filepath.Join(out, "contacts")
	if err := os.RemoveAll(cdir); err != nil { // stale rendezvous from a prior run
		return err
	}

	tel, stopTel, err := shell.Start("relay-tree", telAddr, adios.Contact{})
	if err != nil {
		return err
	}
	defer stopTel()

	renderScript := filepath.Join(out, "render.xml")
	if err := os.WriteFile(renderScript, []byte(`<catalyst>
  <image width="256" height="256" output="pb146_temp_%06d.png" colormap="coolwarm"
         camera="0,-1,0.3" field="temperature">
    <slice normal="0,1,0" offset="0.5"/>
  </image>
</catalyst>`), 0o644); err != nil {
		return err
	}

	fmt.Printf("pb146 (%d ranks) -> tier0 relay (mirror) -> tier1 relay (2->1 repartition) -> histogram + render\n", simRanks)
	fmt.Printf("contact directory %s, %d steps, trigger every %d\n\n", cdir, steps, interval)

	// The mesh: tier0 mirrors the two producer hubs; tier1 merges the
	// two mirrored block streams into one for the leaves. Each tier
	// declares only what its subtree needs (temperature), and that
	// union is what tier0 requests from the simulation.
	tiers := []*tier{
		{entry: "tier0", upstream: "sim", opts: relay.Options{
			Name: "tier0", Tier: 0,
			Downstream: []relay.Downstream{
				{Spec: staging.ConsumerSpec{Name: "tier1", Policy: staging.Block, Depth: 2, Arrays: []string{"temperature"}}},
			},
		}},
		{entry: "tier1", upstream: "tier0", opts: relay.Options{
			Name: "tier1", Tier: 1, OutRanks: 1,
			Downstream: []relay.Downstream{
				{Spec: staging.ConsumerSpec{Name: "histogram", Policy: staging.Block, Depth: 2, Arrays: []string{"temperature"}}},
				{Spec: staging.ConsumerSpec{Name: "render", Policy: staging.Block, Depth: 2, Arrays: []string{"temperature"}}},
			},
		}},
	}
	leaves := []*leaf{
		{name: "histogram", entry: "tier1", config: `<sensei>
  <analysis type="histogram" array="temperature" bins="8"/>
</sensei>`},
		{name: "render", entry: "tier1", config: fmt.Sprintf(`<sensei>
  <analysis type="catalyst" pipeline="script" filename="%s"/>
</sensei>`, renderScript)},
		// Ground truth: a histogram endpoint attached straight to the
		// simulation's hubs, bypassing the mesh.
		{name: "direct", entry: "sim", config: `<sensei>
  <analysis type="histogram" array="temperature" bins="8"/>
</sensei>`},
	}

	var wg sync.WaitGroup
	for _, t := range tiers {
		wg.Add(1)
		go t.run(cdir, tel, &wg)
	}
	for _, l := range leaves {
		wg.Add(1)
		go l.run(cdir, out, tel, &wg)
	}

	// The simulation: the staging analysis writes the "sim" entry of
	// the contact directory and serves tier0 and the direct endpoint
	// as its only declared consumers.
	senseiXML := fmt.Sprintf(`<sensei>
  <analysis type="staging" frequency="%d" contact="sim" contact-dir="%s"
            consumers="tier0:block:2:temperature,direct:block:2:temperature"
            arrays="pressure,temperature"/>
</sensei>`, interval, cdir)

	pb := cases.PB146(1, 4)
	simErrs := make([]error, simRanks)
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
			_, err := bridge.Update(st.Step, st.Time)
			return err
		})
		if err == nil {
			err = bridge.Finalize()
		}
		simErrs[rank] = err
	})
	wg.Wait()

	for rank, err := range simErrs {
		if err != nil {
			return fmt.Errorf("sim rank %d: %w", rank, err)
		}
	}
	for _, t := range tiers {
		if t.err != nil {
			return fmt.Errorf("relay %s: %w", t.entry, t.err)
		}
	}
	for _, l := range leaves {
		if l.err != nil {
			return fmt.Errorf("leaf %s: %w", l.name, l.err)
		}
	}

	table := metrics.NewTable("mesh tiers", "relay", "tier", "in", "out", "mode", "requires", "steps", "bytes in", "bytes out")
	for _, t := range tiers {
		st := t.r.Status()
		table.AddRow(st.Name, st.Tier, st.Upstream, st.OutRanks, st.Mode, st.Requires,
			st.Steps, metrics.HumanBytes(st.BytesIn), metrics.HumanBytes(st.BytesOut))
	}
	table.Render(os.Stdout)
	fmt.Println()
	for _, l := range leaves {
		fmt.Printf("leaf %-9s (via %-5s) analyzed %d step(s)\n", l.name, l.entry, l.steps)
	}

	// The mesh must be invisible to the analysis: the histogram through
	// two relay tiers matches the endpoint attached straight to the sim.
	var through, direct *sensei.Histogram
	for _, l := range leaves {
		if h, ok := l.ca.FindAdaptor("histogram").(*sensei.Histogram); ok {
			if l.name == "direct" {
				direct = h
			} else if l.name == "histogram" {
				through = h
			}
		}
	}
	if through != nil && direct != nil {
		_, got := through.Last()
		_, want := direct.Last()
		match := fmt.Sprint(got) == fmt.Sprint(want)
		fmt.Printf("\nhistogram through the mesh == direct endpoint: %v %v\n", match, got)
		if !match {
			return fmt.Errorf("mesh histogram %v != direct %v", got, want)
		}
	}
	if imgs, _ := filepath.Glob(filepath.Join(out, "*.png")); len(imgs) > 0 {
		fmt.Printf("render leaf wrote %d image(s) to %s/\n", len(imgs), out)
	}

	if tel != nil && hold > 0 {
		fmt.Printf("\nholding telemetry endpoint for %v — try: curl http://%s/statusz\n", hold, telAddr)
		time.Sleep(hold)
	}
	return nil
}
