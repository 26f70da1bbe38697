// Command archive records, inspects and replays persistent step
// streams — the post hoc side of the data plane. A recording is a
// directory of per-rank archives (rank-0000/, rank-0001/, ...)
// mirroring the live run's topology, holding the exact wire frames
// the producers marshaled.
//
// Record a live run (attach to its contact file like any consumer):
//
//	archive record -contact run/contact.txt -out run-archive
//
// Inspect what was captured:
//
//	archive inspect -dir run-archive
//
// Replay it over the unchanged SST wire protocol — any live consumer
// (sensei-endpoint, with -ranks R too, or the examples' endpoint side)
// attaches to the replay's contact file with zero code changes:
//
//	archive replay -dir run-archive -contact replay/contact.txt -pace realtime
//	sensei-endpoint -contact replay/contact.txt -config endpoint.xml -consumer render:block:2
//
// Replay answers step-range (-from/-to) and array-subset (-arrays)
// queries from the on-disk index: out-of-range records and
// unrequested payload bytes are never read.
//
// Simulations can also record at the source (`nekrs -record`,
// `sensei-endpoint -record`) without this tool in the loop.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"nekrs-sensei/internal/adios"
	"nekrs-sensei/internal/archive"
	"nekrs-sensei/internal/metrics"
	"nekrs-sensei/internal/staging"
	"nekrs-sensei/internal/telemetry"
)

func main() {
	cmd, err := parseArgs(os.Args[1:])
	if err == flag.ErrHelp {
		return
	}
	if err == nil {
		err = cmd.run()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "archive:", err)
		os.Exit(1)
	}
}

// command is one parsed subcommand invocation.
type command struct {
	mode string // "record", "replay", "inspect"

	// record
	contact string
	out     string
	name    string
	policy  string
	depth   int
	timeout time.Duration

	// replay
	dir       string
	pace      archive.Pace
	from, to  int64
	consumers []staging.ConsumerSpec
	wait      int

	// shared
	arrays    []string
	telemetry string // exporter listen address ("" = off)
}

func usage() error {
	return fmt.Errorf("usage: archive record|replay|inspect [flags] (-h per subcommand)")
}

// parseArgs parses a subcommand line; all grammar lives here so the
// surface is unit-testable.
func parseArgs(argv []string) (*command, error) {
	if len(argv) == 0 {
		return nil, usage()
	}
	c := &command{mode: argv[0]}
	fs := flag.NewFlagSet("archive "+c.mode, flag.ContinueOnError)
	var arraysFlag, consumersFlag, paceFlag string
	switch c.mode {
	case "record":
		fs.StringVar(&c.contact, "contact", "contact.txt", "contact file of the live run to record")
		fs.StringVar(&c.out, "out", "run-archive", "recording directory (one rank-NNNN archive per producer)")
		fs.StringVar(&c.name, "name", "archive", "consumer name announced to staging hubs")
		fs.StringVar(&c.policy, "policy", "block", "staging backpressure policy for the recording consumer")
		fs.IntVar(&c.depth, "depth", 8, "staging queue depth for the recording consumer")
		fs.DurationVar(&c.timeout, "timeout", 60*time.Second, "how long to wait for the contact file")
		fs.StringVar(&arraysFlag, "arrays", "", "comma-separated array subset to record (empty = everything)")
		fs.StringVar(&c.telemetry, "telemetry", "", "serve /metrics, /statusz and /debug/pprof on this address (empty = off)")
	case "replay":
		fs.StringVar(&c.dir, "dir", "run-archive", "recording directory to replay")
		fs.StringVar(&c.contact, "contact", "contact.txt", "contact file to publish for attaching consumers")
		fs.StringVar(&paceFlag, "pace", "max", "replay pacing: max, realtime[:Nx], or N/s")
		fs.Int64Var(&c.from, "from", -1, "first sim step to replay (-1 = start)")
		fs.Int64Var(&c.to, "to", -1, "last sim step to replay (-1 = end)")
		fs.StringVar(&arraysFlag, "arrays", "", "comma-separated array subset to replay (empty = everything recorded)")
		fs.StringVar(&consumersFlag, "consumers", "", `pre-declared consumers "name[:policy[:depth[:arrays]]],..." (none = wait for dynamic attachments)`)
		fs.IntVar(&c.wait, "wait", 1, "with no pre-declared consumers, reader attachments to wait for before publishing")
		fs.StringVar(&c.telemetry, "telemetry", "", "serve /metrics, /statusz and /debug/pprof on this address (empty = off)")
	case "inspect":
		fs.StringVar(&c.dir, "dir", "run-archive", "recording directory to inspect")
	default:
		return nil, usage()
	}
	if err := fs.Parse(argv[1:]); err != nil {
		return nil, err
	}
	if len(fs.Args()) > 0 {
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if arraysFlag != "" {
		for _, a := range strings.Split(arraysFlag, ",") {
			if a = strings.TrimSpace(a); a != "" {
				c.arrays = append(c.arrays, a)
			}
		}
	}
	if c.mode == "record" {
		if _, err := staging.ParsePolicy(c.policy); err != nil {
			return nil, err
		}
		if c.depth < 1 {
			return nil, fmt.Errorf("-depth must be positive (got %d)", c.depth)
		}
	}
	if c.mode == "replay" {
		pace, err := archive.ParsePace(paceFlag)
		if err != nil {
			return nil, err
		}
		c.pace = pace
		if consumersFlag != "" {
			specs, err := staging.ParseConsumers(consumersFlag)
			if err != nil {
				return nil, err
			}
			c.consumers = specs
		}
		if c.wait < 1 {
			return nil, fmt.Errorf("-wait must be positive (got %d)", c.wait)
		}
		if c.from >= 0 && c.to >= 0 && c.from > c.to {
			return nil, fmt.Errorf("-from %d > -to %d", c.from, c.to)
		}
	}
	return c, nil
}

func (c *command) run() error {
	switch c.mode {
	case "record":
		return c.record()
	case "replay":
		return c.replay()
	case "inspect":
		return c.inspect()
	}
	return usage()
}

// serveTelemetry starts the metrics/statusz/pprof exporter when
// -telemetry was given; otherwise it returns a nil (disabled) plane
// whose handles all no-op.
func (c *command) serveTelemetry(process string) (*telemetry.Telemetry, func(), error) {
	if c.telemetry == "" {
		return nil, func() {}, nil
	}
	tel := telemetry.New(process)
	telemetry.RegisterRuntime(tel.Registry())
	exp, err := tel.Serve(c.telemetry)
	if err != nil {
		return nil, nil, err
	}
	fmt.Printf("telemetry: %s/metrics %s/statusz %s/debug/pprof\n",
		exp.URL(), exp.URL(), exp.URL())
	return tel, func() { exp.Close() }, nil
}

// record attaches one recording reader per live producer and streams
// every received frame — unchanged wire bytes — into per-rank
// archives until the producers close their streams.
func (c *command) record() error {
	addrs, err := adios.ReadContact(c.contact, c.timeout)
	if err != nil {
		return err
	}
	fmt.Printf("recording %d producer stream(s) into %s (policy %s)\n", len(addrs), c.out, c.policy)
	tel, stopTel, err := c.serveTelemetry("archive-record")
	if err != nil {
		return err
	}
	defer stopTel()
	steps := make([]int64, len(addrs))
	bytes := make([]int64, len(addrs))
	errs := make([]error, len(addrs))
	var wg sync.WaitGroup
	for i, addr := range addrs {
		a, err := archive.Open(archive.RankDir(c.out, i), archive.Options{})
		if err != nil {
			return err
		}
		defer a.Close()
		a.RegisterTelemetry(tel, fmt.Sprintf("rank-%d", i))
		wg.Add(1)
		go func(i int, addr string, a *archive.Archive) {
			defer wg.Done()
			r, err := adios.OpenReaderWith(addr, adios.ReaderOptions{
				Consumer: c.name, Policy: c.policy, Depth: c.depth, Arrays: c.arrays,
			})
			if err != nil {
				errs[i] = err
				return
			}
			defer r.Close()
			r.SetRecord(a)
			r.SetTelemetry(tel, "source", fmt.Sprint(i))
			for {
				s, err := r.BeginStep()
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					errs[i] = err
					return
				}
				r.Recycle(s)
			}
			steps[i] = r.StepsReceived()
			bytes[i] = r.BytesReceived()
		}(i, addr, a)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	var totalSteps, totalBytes int64
	for i := range steps {
		totalSteps += steps[i]
		totalBytes += bytes[i]
	}
	fmt.Printf("recorded %d step(s), %s across %d rank archive(s) in %s\n",
		totalSteps, metrics.HumanBytes(totalBytes), len(addrs), c.out)
	return nil
}

// replay serves every rank archive through its own hub and publishes
// the contact file consumers rendezvous on — the same shape the live
// run advertised.
func (c *command) replay() error {
	dirs, err := archive.RankDirs(c.dir)
	if err != nil {
		return err
	}
	tel, stopTel, err := c.serveTelemetry("archive-replay")
	if err != nil {
		return err
	}
	defer stopTel()
	replays := make([]*archive.Replay, len(dirs))
	addrs := make([]string, len(dirs))
	for i, dir := range dirs {
		// Read-only: replaying only reads, and a writable open would
		// run destructive crash recovery — truncating the tail out from
		// under a recorder that is still appending to this archive.
		a, err := archive.Open(dir, archive.Options{ReadOnly: true})
		if err != nil {
			return err
		}
		defer a.Close()
		rp, err := archive.NewReplay(a, archive.ReplayOptions{
			Pace: c.pace, From: c.from, To: c.to, Arrays: c.arrays,
			Consumers: c.consumers, WaitConsumers: c.wait,
		})
		if err != nil {
			return err
		}
		rp.RegisterTelemetry(tel, fmt.Sprintf("rank-%d", i))
		replays[i] = rp
		addrs[i] = rp.Addr()
	}
	if err := adios.WriteContact(c.contact, addrs, ""); err != nil {
		return err
	}
	fmt.Printf("replaying %d rank archive(s) at pace %s, %d step(s) each max; contact %s\n",
		len(dirs), c.pace, replays[0].Steps(), c.contact)
	errs := make([]error, len(replays))
	var wg sync.WaitGroup
	for i, rp := range replays {
		wg.Add(1)
		go func(i int, rp *archive.Replay) {
			defer wg.Done()
			errs[i] = rp.Run()
		}(i, rp)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	fmt.Printf("replay done: %d step(s) published per rank\n", replays[0].Published())
	return nil
}

// inspect prints each rank archive's index.
func (c *command) inspect() error {
	dirs, err := archive.RankDirs(c.dir)
	if err != nil {
		return err
	}
	for rank, dir := range dirs {
		// Read-only: inspecting must never run write recovery, so a
		// recording in progress can be examined safely.
		a, err := archive.Open(dir, archive.Options{ReadOnly: true})
		if err != nil {
			return err
		}
		steps := a.Steps()
		t := metrics.NewTable(fmt.Sprintf("%s: %d step(s), %s", dir, len(steps), metrics.HumanBytes(a.Bytes())),
			"id", "step", "time", "bytes", "structure", "arrays")
		for i := range steps {
			si := &steps[i]
			structure := ""
			if si.Structure {
				structure = "yes"
			}
			t.AddRow(si.ID, si.Step, fmt.Sprintf("%.4f", si.Time),
				metrics.HumanBytes(si.FrameLen), structure, strings.Join(si.ArrayNames(), ","))
		}
		t.Render(os.Stdout)
		if rank < len(dirs)-1 {
			fmt.Println()
		}
		a.Close()
	}
	return nil
}
