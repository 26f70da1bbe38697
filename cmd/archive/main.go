// Command archive inspects and replays persistent step streams — the
// post hoc side of the data plane. A recording is a directory of
// per-rank archives (rank-0000/, rank-0001/, ...) mirroring the live
// run's topology, holding the exact wire frames the producers
// marshaled. Recordings are made at the source (`nekrs -record`) or by
// any endpoint (`sensei-endpoint -record`; with no -config it is a pure
// recording sink).
//
// Inspect what was captured:
//
//	archive inspect -dir run-archive
//
// Replay it over the unchanged SST wire protocol — any live consumer
// (sensei-endpoint, with -ranks R too) attaches to the replay's
// contact file with zero code changes:
//
//	archive replay -dir run-archive -contact replay/contact.txt -pace realtime
//	sensei-endpoint -contact replay/contact.txt -config endpoint.xml -consumer render:block:2
//
// Replay answers step-range (-from/-to) and array-subset (-arrays)
// queries from the on-disk index: out-of-range records and
// unrequested payload bytes are never read.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"

	"nekrs-sensei/internal/adios"
	"nekrs-sensei/internal/archive"
	"nekrs-sensei/internal/metrics"
	"nekrs-sensei/internal/shell"
	"nekrs-sensei/internal/staging"
)

func main() {
	cmd, err := parseArgs(os.Args[1:])
	if err == flag.ErrHelp {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "archive:", err)
		os.Exit(2)
	}
	if err := cmd.run(); err != nil {
		fmt.Fprintln(os.Stderr, "archive:", err)
		os.Exit(1)
	}
}

// command is one parsed subcommand invocation.
type command struct {
	mode string // "replay", "inspect"

	dir string

	// replay
	contact     string
	pace        archive.Pace
	from, to    int64
	consumers   []staging.ConsumerSpec
	wait        int
	arrays      []string
	shell.Flags // -telemetry
}

func usage() error {
	return fmt.Errorf("usage: archive replay|inspect [flags] (-h per subcommand)")
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
		return nil, fmt.Errorf("archive record is gone; record a live run with `sensei-endpoint -record DIR -consumer archive:block:8` (no -config: a pure sink)")
	case "replay":
		fs.StringVar(&c.dir, "dir", "run-archive", "recording directory to replay")
		fs.StringVar(&c.contact, "contact", "contact.txt", "contact file to publish for attaching consumers")
		fs.StringVar(&paceFlag, "pace", "max", "replay pacing: max, realtime[:Nx], or N/s")
		fs.Int64Var(&c.from, "from", -1, "first sim step to replay (-1 = start)")
		fs.Int64Var(&c.to, "to", -1, "last sim step to replay (-1 = end)")
		fs.StringVar(&arraysFlag, "arrays", "", "comma-separated array subset to replay (empty = everything recorded)")
		fs.StringVar(&consumersFlag, "consumers", "", `pre-declared consumers "name[:policy[:depth[:arrays]]],..." (none = wait for dynamic attachments)`)
		fs.IntVar(&c.wait, "wait", 1, "with no pre-declared consumers, reader attachments to wait for before publishing")
		c.Register(fs, "telemetry")
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
	case "replay":
		return c.replay()
	case "inspect":
		return c.inspect()
	}
	return usage()
}

// replay serves every rank archive through its own hub and publishes
// the contact file consumers rendezvous on — the same shape the live
// run advertised.
func (c *command) replay() error {
	dirs, err := archive.RankDirs(c.dir)
	if err != nil {
		return err
	}
	tel, stopTel, err := shell.Start("archive-replay", c.Telemetry, adios.Contact{})
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
	if err := (adios.Contact{Name: c.contact}).Write(addrs, ""); err != nil {
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
