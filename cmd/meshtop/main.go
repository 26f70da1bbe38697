// Command meshtop is the mesh observatory's terminal view: it crawls
// a staging mesh — every contact-directory entry that advertises a
// telemetry exporter — and renders the assembled picture the way top
// renders a process table:
//
//	meshtop -contact-dir run/mesh
//
// Each refresh shows the topology (one row per process, one per
// hub→consumer edge with policy/lag/spill/codec state), the live
// cross-tier step timeline (per-stage millisecond offsets keyed by
// (process, step ordinal)), the bottleneck verdict, the top-lag
// consumers, and the tail of the merged recovery-event journal.
//
// Alternatively -meshz points at any process already serving /meshz
// (every contact-dir aware producer, relay, and endpoint mounts it):
//
//	meshtop -meshz 127.0.0.1:9150 -once
//
// -once prints a single snapshot and exits — the scriptable mode the
// CI smoke test drives.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"nekrs-sensei/internal/meshobs"
	"nekrs-sensei/internal/metrics"
	"nekrs-sensei/internal/shell"
	"nekrs-sensei/internal/telemetry"
)

// options carries the parsed command line.
type options struct {
	meshz    string
	interval time.Duration
	once     bool
	steps    int
	events   int
	lastK    int

	// -contact-dir: the directory to crawl, every entry advertising
	// #telemetry= being scraped.
	shell.Flags
}

func parseArgs(argv []string) (*options, error) {
	fs := flag.NewFlagSet("meshtop", flag.ContinueOnError)
	o := &options{}
	o.Register(fs, "contact-dir")
	fs.StringVar(&o.meshz, "meshz", "", "telemetry base of a process serving /meshz (remote mode; overrides -contact-dir)")
	fs.DurationVar(&o.interval, "interval", 2*time.Second, "refresh period")
	fs.BoolVar(&o.once, "once", false, "print one snapshot and exit (no screen clearing)")
	fs.IntVar(&o.steps, "steps", 8, "most recent cross-tier steps to show in the timeline")
	fs.IntVar(&o.events, "events", 12, "most recent recovery events to show")
	fs.IntVar(&o.lastK, "last-k", 16, "steps in the latency-attribution window")
	if err := fs.Parse(argv); err != nil {
		return nil, err
	}
	if len(fs.Args()) > 0 {
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if o.ContactDir == "" && o.meshz == "" {
		return nil, fmt.Errorf("give -contact-dir to crawl or -meshz to attach to a served snapshot")
	}
	if o.interval <= 0 {
		return nil, fmt.Errorf("-interval must be positive (got %v)", o.interval)
	}
	return o, nil
}

// snapshot produces one mesh view, by local crawl or remote fetch.
func (o *options) snapshot(ctx context.Context) (*meshobs.Snapshot, error) {
	if o.meshz != "" {
		ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		return meshobs.FetchMeshz(ctx, o.meshz)
	}
	return meshobs.Crawl(ctx, o.ContactDir, meshobs.Options{LastK: o.lastK})
}

// render writes one full meshtop frame. Pure function of the snapshot
// so the layout is unit-testable without a live mesh.
func render(w io.Writer, snap *meshobs.Snapshot, o *options) {
	at := time.Unix(0, snap.CrawledUnixNs).Format("15:04:05.000")
	fmt.Fprintf(w, "meshtop — %d process(es), %d edge(s), crawled %s",
		len(snap.Processes), len(snap.Edges), at)
	if snap.Dir != "" {
		fmt.Fprintf(w, " from %s", snap.Dir)
	}
	fmt.Fprintln(w)

	procs := metrics.NewTable("processes", "entry", "process", "pid", "up", "tier", "hubs", "telemetry", "state")
	for _, p := range snap.Processes {
		entry := p.Entry
		if len(p.Aliases) > 0 {
			entry += " (+" + strings.Join(p.Aliases, ",") + ")"
		}
		tier := "-"
		if p.Relay != nil {
			tier = fmt.Sprintf("relay/%d", p.Relay.Tier)
		} else if len(p.Hubs) > 0 {
			tier = "producer"
		} else if p.Telemetry != "" {
			tier = "observer"
		}
		state := "ok"
		switch {
		case !p.Alive:
			state = "dead"
		case p.Err != "":
			state = "unreachable"
		case p.Telemetry == "":
			state = "dark"
		}
		procs.AddRow(entry, p.Process, p.PID, fmt.Sprintf("%.0fs", p.UptimeSec),
			tier, len(p.Hubs), p.Telemetry, state)
	}
	procs.Render(w)

	if len(snap.Edges) > 0 {
		edges := metrics.NewTable("edges", "from", "hub", "consumer", "to", "policy", "depth", "lag", "resident", "blocked", "spillq", "delivered", "wire", "ratio", "state")
		for _, e := range snap.Edges {
			state := ""
			switch {
			case e.Closed:
				state = "closed"
			case e.Parked && e.Blocking:
				state = "parked,blocking"
			case e.Parked:
				state = "parked"
			case e.Blocking:
				state = "blocking"
			}
			ratio := "-"
			if e.CodecRatio > 0 {
				ratio = fmt.Sprintf("%.2fx", e.CodecRatio)
			}
			edges.AddRow(e.From, e.Hub, e.Consumer, e.To, e.Policy, e.Depth,
				e.Lag, e.Resident, fmt.Sprintf("%.1fms", e.BlockedMs), e.SpillQueue, e.Delivered, metrics.HumanBytes(e.WireBytes), ratio, state)
		}
		edges.Render(w)
	}

	steps := snap.Steps
	if o.steps > 0 && len(steps) > o.steps {
		steps = steps[len(steps)-o.steps:]
	}
	if len(steps) > 0 {
		telemetry.MeshTraceTable("step timeline (ms offsets)", steps).Render(w)
	}
	if snap.Bottleneck != "" {
		fmt.Fprintf(w, "bottleneck: %s\n", snap.Bottleneck)
	}

	if lag := topLag(snap.Edges, 3); len(lag) > 0 {
		parts := make([]string, len(lag))
		for i, e := range lag {
			parts[i] = fmt.Sprintf("%s/%s lag %d", e.From, e.Consumer, e.Lag)
		}
		fmt.Fprintf(w, "top lag: %s\n", strings.Join(parts, ", "))
	}

	events := snap.Events
	if o.events > 0 && len(events) > o.events {
		events = events[len(events)-o.events:]
	}
	if len(events) > 0 {
		evt := metrics.NewTable("recovery events", "time", "process", "kind", "subject", "step", "detail")
		for _, ev := range events {
			ts := time.Unix(0, ev.TimeUnixNs).Format("15:04:05.000")
			evt.AddRow(ts, ev.Process, ev.Kind, ev.Subject, ev.Step, ev.Detail)
		}
		evt.Render(w)
	}
}

// topLag returns the n open edges with the largest backlog, ignoring
// idle ones.
func topLag(edges []meshobs.Edge, n int) []meshobs.Edge {
	var lagged []meshobs.Edge
	for _, e := range edges {
		if e.Lag > 0 && !e.Closed {
			lagged = append(lagged, e)
		}
	}
	sort.SliceStable(lagged, func(i, j int) bool { return lagged[i].Lag > lagged[j].Lag })
	if len(lagged) > n {
		lagged = lagged[:n]
	}
	return lagged
}

func run(o *options) error {
	ctx := context.Background()
	for {
		snap, err := o.snapshot(ctx)
		if err != nil {
			if o.once {
				return err
			}
			fmt.Fprintln(os.Stderr, "meshtop:", err)
		} else {
			if !o.once {
				fmt.Print("\x1b[2J\x1b[H") // clear screen, home cursor
			}
			render(os.Stdout, snap, o)
		}
		if o.once {
			return nil
		}
		time.Sleep(o.interval)
	}
}

func main() {
	o, err := parseArgs(os.Args[1:])
	if err == flag.ErrHelp {
		return
	}
	if err == nil {
		err = run(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "meshtop:", err)
		os.Exit(1)
	}
}
