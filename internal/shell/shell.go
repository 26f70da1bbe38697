// Package shell is what the mains share of being a process in the
// mesh: the rendezvous, resilience and telemetry flags are declared,
// validated and wired here once, and a main states only which it has.
// Not a framework: a flag struct, two mappings out, one bootstrap.
package shell

import (
	"flag"
	"fmt"
	"time"

	"nekrs-sensei/internal/adios"
	"nekrs-sensei/internal/meshobs"
	"nekrs-sensei/internal/relay"
	"nekrs-sensei/internal/telemetry"
)

// Flags holds the process-level flag values. A main presets the
// defaults it wants (say Timeout: 60 * time.Second), registers the
// names it has, parses, and calls Check.
type Flags struct {
	ContactDir     string
	Timeout        time.Duration
	Retry          int
	SessionTTL     time.Duration
	Liveness       time.Duration
	WaitDownstream time.Duration
	Telemetry      string
}

// Register declares the named flags on fs, f's current values being
// their defaults. An unknown name is a bug in the calling main.
func (f *Flags) Register(fs *flag.FlagSet, names ...string) {
	for _, name := range names {
		switch name {
		case "contact-dir":
			fs.StringVar(&f.ContactDir, "contact-dir", f.ContactDir, "contact directory shared by the processes of a mesh: contact names are then entries (<dir>/<name>.contact) instead of file paths")
		case "timeout":
			fs.DurationVar(&f.Timeout, "timeout", f.Timeout, "how long to wait for a contact file to appear")
		case "retry":
			fs.IntVar(&f.Retry, "retry", f.Retry, "reconnect attempts after a dial or mid-stream failure, under exponential backoff with jitter (0 = fail fast)")
		case "session-ttl":
			fs.DurationVar(&f.SessionTTL, "session-ttl", f.SessionTTL, "with -retry: the session grace asked of the hub, how long it keeps this consumer's cursor and queue across a disconnect for an exactly-once resume (0 = the hub's 30s; at most 5m)")
		case "liveness":
			fs.DurationVar(&f.Liveness, "liveness", f.Liveness, "declare a peer dead after this long without frames, credits or keepalives; the hello asks the producer to heartbeat at a third of it (0 = wait forever; else at least 30ms)")
		case "wait-downstream":
			fs.DurationVar(&f.WaitDownstream, "wait-downstream", f.WaitDownstream, "with -retry: wait up to this long for pre-declared consumers to re-attach before announcing a resume position upstream")
		case "telemetry":
			fs.StringVar(&f.Telemetry, "telemetry", f.Telemetry, "serve /metrics, /statusz and /debug/pprof on this address (e.g. 127.0.0.1:9150; empty = off)")
		default:
			panic("shell: no flag " + name)
		}
	}
}

// Check is the one validation: no negative duration or count, a
// liveness no shorter than the producer's heartbeat floor allows, and
// -wait-downstream only means something on a side that redials.
func (f *Flags) Check() error {
	if f.Retry < 0 {
		return fmt.Errorf("-retry must be non-negative (got %d)", f.Retry)
	}
	names := []string{"timeout", "session-ttl", "liveness", "wait-downstream"}
	for i, d := range []time.Duration{f.Timeout, f.SessionTTL, f.Liveness, f.WaitDownstream} {
		if d < 0 {
			return fmt.Errorf("-%s must be non-negative (got %v)", names[i], d)
		}
	}
	if f.Liveness > 0 && f.Liveness < adios.MinLiveness {
		return fmt.Errorf("-liveness must be 0 or at least %v (got %v)", adios.MinLiveness, f.Liveness)
	}
	if f.WaitDownstream > 0 && f.Retry == 0 {
		return fmt.Errorf("-wait-downstream needs -retry")
	}
	return nil
}

// Reader folds a dialling side's resilience into the hello h it sends
// to address src of contact c: the liveness bound always; with -retry
// the attempt count, which also asks the hub for a session it parks
// across the outage for -session-ttl, and a Redial that resolves c
// again (a restarted hub republishes fresh addresses).
func (f *Flags) Reader(h adios.ReaderOptions, c adios.Contact, src int) adios.ReaderOptions {
	h.LivenessTimeout = f.Liveness
	if f.Retry > 0 {
		h.Retry, h.SessionTTL = f.Retry, f.SessionTTL
		h.Redial = func() (string, error) {
			addrs, err := c.Read(f.Timeout)
			if err != nil || src >= len(addrs) {
				return "", err
			}
			return addrs[src], nil
		}
	}
	return h
}

// Relay sets a relay's resilience: the liveness bound on both edges
// always, and with -retry the self-healing upstream edge, which
// resolves the upstream contact again before each reconnect.
func (f *Flags) Relay(o *relay.Options, upstream adios.Contact) {
	o.SessionTTL, o.Liveness = f.SessionTTL, f.Liveness
	if f.Retry > 0 {
		o.Retry = f.Retry
		o.WaitDownstream = f.WaitDownstream
		o.RedialUpstream = func() ([]string, error) { return upstream.Read(f.Timeout) }
	}
}

// Start serves the process's telemetry plane on addr and prints where.
// In a contact directory it also mounts /meshz, and a named observer
// publishes a telemetry-only entry (no data addresses, just the
// exporter) so the mesh observatory can scrape a process that serves no
// stream and resolve hub consumer rows to it. An empty addr is
// telemetry off: a nil handle, whose methods all no-op, and a no-op stop.
func Start(process, addr string, observer adios.Contact) (*telemetry.Telemetry, func(), error) {
	if addr == "" {
		return nil, func() {}, nil
	}
	tel := telemetry.New(process)
	telemetry.RegisterRuntime(tel.Registry())
	exp, err := tel.Serve(addr)
	if err != nil {
		return nil, nil, err
	}
	fmt.Printf("telemetry: %s/metrics %s/statusz %s/debug/pprof\n", exp.URL(), exp.URL(), exp.URL())
	if observer.Dir != "" {
		if observer.Name != "" {
			if err := observer.Write(nil, tel.ServeAddr()); err != nil {
				exp.Close()
				return nil, nil, err
			}
		}
		meshobs.Install(tel, observer.Dir)
	}
	return tel, func() { exp.Close() }, nil
}
