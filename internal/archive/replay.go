package archive

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"nekrs-sensei/internal/adios"
	"nekrs-sensei/internal/staging"
)

// Replay serves a recorded archive over the unchanged SST wire
// protocol: the selected steps are published into a staging.Hub and
// any number of readers attach through staging.Serve exactly as they
// would to a live run — consumer names, backpressure policies and
// per-consumer array subsets all work unmodified, so sensei-endpoint
// (with -ranks R too) runs post hoc with zero code changes.
//
// Step-range and array-subset selection are answered from the
// archive's index: out-of-range records are never read, and with
// Arrays set the replay reads spliced subset frames, skipping
// unrequested payload bytes on disk. The frames are published as bytes
// (staging.Hub.PublishFrame), so a replay decodes nothing unless a
// consumer's codec needs the floats.

// Pace controls replay timing.
type Pace struct {
	// Mode is "max" (as fast as consumers accept — backpressure
	// paces), "realtime" (sleep the recorded sim-time deltas, scaled
	// by Speed), or "fixed" (PerSec steps per second).
	Mode   string
	Speed  float64 // realtime multiplier (2 = twice as fast); default 1
	PerSec float64 // fixed mode rate
}

// ParsePace parses a pacing spec: "max", "realtime", "realtime:2x"
// (scaled), or "5/s" (fixed steps per second). Empty means "max".
func ParsePace(s string) (Pace, error) {
	s = strings.TrimSpace(s)
	switch {
	case s == "" || s == "max":
		return Pace{Mode: "max"}, nil
	case s == "realtime":
		return Pace{Mode: "realtime", Speed: 1}, nil
	case strings.HasPrefix(s, "realtime:"):
		spec := strings.TrimSuffix(strings.TrimPrefix(s, "realtime:"), "x")
		v, err := strconv.ParseFloat(spec, 64)
		if err != nil || v <= 0 {
			return Pace{}, fmt.Errorf("archive: bad realtime speed %q", s)
		}
		return Pace{Mode: "realtime", Speed: v}, nil
	case strings.HasSuffix(s, "/s"):
		v, err := strconv.ParseFloat(strings.TrimSuffix(s, "/s"), 64)
		if err != nil || v <= 0 {
			return Pace{}, fmt.Errorf("archive: bad fixed pace %q", s)
		}
		return Pace{Mode: "fixed", PerSec: v}, nil
	}
	return Pace{}, fmt.Errorf("archive: bad pace %q (want max, realtime[:Nx] or N/s)", s)
}

func (p Pace) String() string {
	switch p.Mode {
	case "realtime":
		if p.Speed != 1 {
			return fmt.Sprintf("realtime:%gx", p.Speed)
		}
		return "realtime"
	case "fixed":
		return fmt.Sprintf("%g/s", p.PerSec)
	}
	return "max"
}

// ReplayOptions configures a replay producer.
type ReplayOptions struct {
	// Addr is the listen address (default 127.0.0.1:0).
	Addr string
	// Pace is the publish timing (default max).
	Pace Pace
	// From/To bound the replayed sim-step range inclusively; zero or
	// negative leaves that end open, so the zero value replays
	// everything (sim steps are positive).
	From, To int64
	// Arrays restricts what is read from disk and published; nil
	// publishes everything recorded. Consumers may narrow further in
	// their hellos (the hub's per-consumer subsets).
	Arrays []string
	// Consumers pre-declares hub consumers (same grammar as the
	// staging XML attribute): pre-declared consumers are subscribed
	// before the first publish, so they lose no steps while their
	// endpoints attach. With none declared, replay waits for
	// WaitConsumers dynamic attachments before publishing.
	Consumers []staging.ConsumerSpec
	// WaitConsumers, with no pre-declared consumers, is how many
	// reader attachments to wait for before the replay starts
	// publishing (default 1) — a replay that raced ahead of its
	// consumers would shed every step.
	WaitConsumers int
}

// Replay is a running replay producer: a hub, its network server,
// and the publish loop in Run.
type Replay struct {
	a      *Archive
	opts   ReplayOptions
	hub    *staging.Hub
	srv    *staging.Server
	binder *staging.Binder
	ids    []int64
	pool   *adios.FramePool // read buffers, recycled when the hub releases a step

	published int
}

// NewReplay builds the replay producer and starts its server; call
// Run to publish the stream, then inspect Published/Hub.
func NewReplay(a *Archive, opts ReplayOptions) (*Replay, error) {
	if opts.Addr == "" {
		opts.Addr = "127.0.0.1:0"
	}
	if opts.Pace.Mode == "" {
		opts.Pace.Mode = "max"
	}
	if opts.WaitConsumers <= 0 {
		opts.WaitConsumers = 1
	}
	if opts.From <= 0 {
		opts.From = -1
	}
	if opts.To <= 0 {
		opts.To = -1
	}
	hub := staging.NewHub(nil)
	// The advertisement is what this replay will actually publish:
	// the recorded arrays, intersected with an Arrays restriction —
	// so a consumer requesting an excluded array is rejected in the
	// handshake (the designed failure) instead of erroring mid-stream
	// on data that never arrives.
	advertise := a.ArrayNames()
	if len(opts.Arrays) > 0 {
		var kept []string
		for _, name := range advertise {
			for _, want := range opts.Arrays {
				if name == want {
					kept = append(kept, name)
					break
				}
			}
		}
		advertise = kept
	}
	hub.SetAdvertised(advertise)
	// The binder gives post hoc attachment the exact semantics of the
	// live staging adaptor: pre-declared consumers are claimed with
	// their no-lost-steps cursors, dynamic readers subscribe fresh.
	binder := staging.NewBinder(hub)
	for _, spec := range opts.Consumers {
		if _, err := binder.Declare(spec); err != nil {
			hub.Close()
			return nil, err
		}
	}
	srv, err := staging.Serve(hub, opts.Addr, binder.Resolve)
	if err != nil {
		hub.Close()
		return nil, err
	}
	return &Replay{a: a, opts: opts, hub: hub, srv: srv, binder: binder, ids: a.Select(opts.From, opts.To), pool: adios.NewFramePool()}, nil
}

// Addr reports the server's contact address for the rendezvous step.
func (r *Replay) Addr() string { return r.srv.Addr() }

// Hub exposes the staging hub (stats, programmatic subscription).
func (r *Replay) Hub() *staging.Hub { return r.hub }

// Steps reports how many records the range query selected.
func (r *Replay) Steps() int { return len(r.ids) }

// Published reports steps published so far.
func (r *Replay) Published() int { return r.published }

// Run publishes the selected steps at the configured pacing, then
// closes the hub (consumers drain and see a clean end-of-stream) and
// the server. Blocks until every attached reader has been served.
func (r *Replay) Run() error {
	defer r.srv.Close()
	defer r.hub.Close()
	if len(r.opts.Consumers) == 0 {
		// Dynamic consumers only: wait for the first attachments so
		// the whole stream reaches them (drop policies would otherwise
		// shed the entire run into the void).
		for r.attached() < r.opts.WaitConsumers {
			if err := r.srv.Err(); err != nil {
				return err
			}
			time.Sleep(5 * time.Millisecond)
		}
	} else {
		// Pre-declared consumers: their cursors are subscribed, so no
		// step can be lost — but a short archive could be published and
		// the server closed before every declared reader has even
		// dialed. A live run's server outlives attachment because the
		// simulation does; the replay waits for full attachment instead.
		for !r.binder.FullyAttached() {
			if err := r.srv.Err(); err != nil {
				return err
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	var prevTime float64
	havePrev := false
	var interval time.Duration
	if r.opts.Pace.Mode == "fixed" {
		interval = time.Duration(float64(time.Second) / r.opts.Pace.PerSec)
	}
	next := time.Now()
	from, to, arrays := r.opts.From, r.opts.To, r.opts.Arrays
	for i, id := range r.ids {
		// Pacing reads the step and time off the index; the frame goes
		// from disk into a leased buffer the hub owns until every
		// consumer has released the step.
		st, err := r.a.Info(id)
		if err != nil {
			return err
		}
		f := r.pool.Lease(int(st.selectedLen(from, to, arrays)))
		if _, err := r.a.readSelected(id, from, to, arrays, f.Bytes()); err != nil {
			f.Release()
			return err
		}
		switch r.opts.Pace.Mode {
		case "realtime":
			if havePrev {
				dt := st.Time - prevTime
				if dt > 0 {
					time.Sleep(time.Duration(dt / r.opts.Pace.Speed * float64(time.Second)))
				}
			}
			// Structure records replay regardless of the range; when one
			// falls outside it, the gap to the first in-range step is
			// skipped history, not a recorded interval — reset the
			// pacing clock instead of sleeping it out.
			if st.inRange(from, to) {
				prevTime, havePrev = st.Time, true
			} else {
				havePrev = false
			}
		case "fixed":
			if i > 0 {
				next = next.Add(interval)
				time.Sleep(time.Until(next))
			}
		}
		if err := r.hub.PublishFrame(f); err != nil {
			return fmt.Errorf("archive: replay record %d: %w", id, err)
		}
		r.published++
	}
	return nil
}

// attached counts live hub consumers. Closed subscriptions (a reader
// that connected and dropped before the replay started) must not
// count, or the replay would publish the whole archive to nobody.
func (r *Replay) attached() int {
	return r.hub.ActiveConsumers()
}
