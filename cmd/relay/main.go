// Command relay is one node of the distributed staging mesh: it
// attaches to an upstream tier's staging hubs (or other relays) as an
// ordinary SST consumer, re-blocks the P upstream rank streams into R
// shard-ranged output streams, and serves them from its own local
// hubs — so hubs compose into fan-out trees and a P-rank simulation
// feeds an R-rank endpoint group without every rank pulling every
// stream:
//
//	relay -contact-dir run/mesh -upstream sim -publish tier1 -out-ranks 2
//
// Downstream, a relay is indistinguishable from a producer hub: the
// same handshake, backpressure policies, consumer groups and wire
// codecs, so sensei-endpoint (or another relay) points -contact at
// the relay's published contact entry and never knows how deep in the
// tree it attached. Declared consumers' array subsets union into the
// upstream request, so a subtree that only reads "pressure" costs
// "pressure" on every trunk above it. The trunk carries plain frames;
// a consumer's wire codecs apply on its own edge below the relay.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"nekrs-sensei/internal/adios"
	"nekrs-sensei/internal/metrics"
	"nekrs-sensei/internal/relay"
	"nekrs-sensei/internal/shell"
	"nekrs-sensei/internal/staging"
	"nekrs-sensei/internal/telemetry"

	_ "nekrs-sensei/internal/archive" // archive-backed spill stores for -spill
)

// options carries the parsed, validated command line.
type options struct {
	upstream string
	publish  string

	trunk     staging.ConsumerSpec // this relay as its upstream's consumer
	outRanks  int
	listen    string
	consumers []relay.Downstream

	spillDir string

	// -contact-dir, -timeout, -retry, -session-ttl, -liveness,
	// -wait-downstream, -telemetry
	shell.Flags
}

// parseArgs parses argv (without the program name) into options; the
// consumer-spec grammar and cross-flag rules are checked here so the
// whole surface is unit-testable.
func parseArgs(argv []string) (*options, error) {
	fs := flag.NewFlagSet("relay", flag.ContinueOnError)
	o := &options{Flags: shell.Flags{Timeout: 60 * time.Second, SessionTTL: 30 * time.Second}}
	fs.StringVar(&o.upstream, "upstream", "contact.txt", "upstream tier's contact file (with -contact-dir: the entry name)")
	fs.StringVar(&o.publish, "publish", "", "contact file to write this relay's output addresses to (with -contact-dir: the entry name; empty = print only)")
	trunkFlag := fs.String("consumer", "relay:block:2", `this relay as its upstream's consumer, "name[:policy[:depth]]" (sensei-endpoint -consumer grammar; distinct relays on one upstream need distinct names)`)
	fs.IntVar(&o.outRanks, "out-ranks", 0, "R, the number of shard-ranged output streams (0 = one per upstream stream, a pure fan-out tier)")
	fs.StringVar(&o.listen, "listen", "127.0.0.1:0", "listen address for the output servers (each output picks its own port)")
	consumersFlag := fs.String("consumers", "", `pre-declared downstream consumers, "name[:policy[:depth[:arrays[:codecs]]]],..." (staging consumer-spec grammar); their array declarations union into the upstream request`)
	fs.StringVar(&o.spillDir, "spill", "", "spill directory for the output hubs (enables spill-policy consumers below this relay)")
	o.Register(fs, "contact-dir", "timeout", "retry", "session-ttl", "liveness", "wait-downstream", "telemetry")
	if err := fs.Parse(argv); err != nil {
		return nil, err
	}
	if len(fs.Args()) > 0 {
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	downstream, err := staging.ParseConsumers(*consumersFlag)
	if err != nil {
		return nil, err
	}
	for _, spec := range downstream {
		o.consumers = append(o.consumers, relay.Downstream{Spec: spec})
	}
	trunk, err := staging.ParseConsumers(*trunkFlag)
	switch {
	case err != nil:
		return nil, err
	case len(trunk) != 1:
		return nil, fmt.Errorf("-consumer wants exactly one spec, got %d", len(trunk))
	case len(trunk[0].Arrays) > 0 || len(trunk[0].Codecs) > 0:
		// The trunk carries the union of the -consumers arrays, in plain
		// frames: neither is this relay's to choose.
		return nil, fmt.Errorf("-consumer %q: the arrays and codecs fields are refused: the trunk request is the union of -consumers, in plain frames", *trunkFlag)
	case o.outRanks < 0:
		return nil, fmt.Errorf("-out-ranks must be non-negative (got %d)", o.outRanks)
	case o.ContactDir != "" && o.upstream == "":
		return nil, fmt.Errorf("-contact-dir needs an -upstream entry name")
	}
	o.trunk = trunk[0]
	return o, o.Check()
}

func run(o *options, tel *telemetry.Telemetry) error {
	from := adios.Contact{Dir: o.ContactDir, Name: o.upstream}
	upstream, err := from.Read(o.Timeout)
	if err != nil {
		return err
	}
	ropts := relay.Options{
		Name: o.trunk.Name, Policy: o.trunk.Policy.String(), Depth: o.trunk.Depth,
		OutRanks: o.outRanks, Listen: o.listen, Downstream: o.consumers,
		Telemetry: tel, SpillDir: o.spillDir,
	}
	o.Relay(&ropts, from)
	r, err := relay.New(upstream, ropts)
	if err != nil {
		return err
	}
	defer r.Close()
	// The entry for the next tier down carries the telemetry exporter
	// address, so the mesh observatory can find this relay.
	if o.publish != "" {
		if err := (adios.Contact{Dir: o.ContactDir, Name: o.publish}).Write(r.Addrs(), tel.ServeAddr()); err != nil {
			return err
		}
	}
	fmt.Printf("relay %q: %d upstream -> %d output stream(s) at %s\n",
		o.trunk.Name, r.Upstreams(), r.OutRanks(), strings.Join(r.Addrs(), " "))
	if err := r.Run(); err != nil {
		return err
	}
	st := r.Status()
	fmt.Printf("relayed %d step(s) (%d skipped in realignment), %s in, %s out\n",
		st.Steps, st.Skipped, metrics.HumanBytes(st.BytesIn), metrics.HumanBytes(st.BytesOut))
	return nil
}

func main() {
	o, err := parseArgs(os.Args[1:])
	if err == flag.ErrHelp {
		return
	}
	if err == nil {
		var tel *telemetry.Telemetry
		var stopTel func()
		// No observer entry: the relay's -publish entry carries the stamp.
		if tel, stopTel, err = shell.Start("relay", o.Telemetry, adios.Contact{Dir: o.ContactDir}); err == nil {
			err = run(o, tel)
			stopTel()
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "relay:", err)
		os.Exit(1)
	}
}
