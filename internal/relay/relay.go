// Package relay implements the distributed staging mesh: relay nodes
// that attach to upstream staging hubs (or other relays) as ordinary
// SST consumers and re-publish the stream into their own local hubs,
// so hubs compose into fan-out trees where consumer count is no
// longer bounded by one process's sockets, memory or egress — the
// prerequisite the ROADMAP names for the "millions of consumers"
// north star, and the M:N shape the paper's SENSEI/ADIOS in-transit
// configuration is built around (P simulation ranks, R analysis
// ranks, P ≠ R).
//
// A relay is two things at once:
//
//   - A fan-out tier: downstream it is indistinguishable from a
//     producer-side staging hub — same SST handshake, same
//     backpressure policies, same sessions, same wire codecs — so a
//     consumer (or another relay) never knows how deep in the tree it
//     attached.
//
//   - An M×N repartitioner: it merges P upstream rank streams at a
//     step agreement and re-blocks them into R <= P shard-ranged
//     output streams (intransit.ShardRange block partition), so an
//     endpoint of R ranks dials exactly one stream per rank.
//
// Requirements flow upstream through the tree: the relay unions its
// declared downstream consumers' array subsets (a consumer that
// declares none needs every array) and requests exactly that union
// from its upstream in the hello — re-advertising it downward — so a
// subtree that only ever reads "pressure" costs "pressure" on every
// trunk above it.
//
// A relay does not know its depth in the tree; the mesh observatory
// derives it from the edges it crawls (meshobs.Assemble).
//
// There is one data path, and it decodes no float: the trunk always
// carries plain frames, received raw (adios.Reader.BeginRawStep),
// re-blocked span-by-span (adios.SpliceFrames over ScanFrame layouts,
// rebasing connectivity and offsets on the once-per-stream structure
// step), and published as bytes (staging.Hub.PublishFrame). The output
// hub ships the spliced frame, or a cut of it along its spans, to
// every raw consumer, and encodes for a coded consumer (a lossy leaf's
// quantizer included) on its own edge.
//
// A retrying relay (Options.Retry) runs the pump as one loop, as an
// ADIOS2 reader brackets a step with BeginStep/EndStep: fetch, publish,
// wait until the step retired from every output (staging.Hub.AwaitDrained),
// then credit it upstream, so a step the subtree has not drained is
// still parked upstream when the relay dies.
package relay

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nekrs-sensei/internal/adios"
	"nekrs-sensei/internal/intransit"
	"nekrs-sensei/internal/staging"
	"nekrs-sensei/internal/telemetry"
)

// Downstream is one pre-declared consumer of a relay's output hubs;
// its array subset flows upstream.
type Downstream struct {
	Spec staging.ConsumerSpec
}

// Options configures a relay node.
type Options struct {
	// Name is the consumer name the relay announces to each upstream
	// hub (default "relay"). Distinct relays attaching to the same
	// upstream need distinct names.
	Name string
	// Policy/Depth shape the relay's upstream subscriptions (default
	// block / 2): the trunk edge has its own backpressure contract,
	// independent of what leaf consumers request below.
	Policy string
	Depth  int
	// OutRanks is R, the number of shard-ranged output streams the
	// relay re-blocks its P upstream streams into. 0 keeps R = P (a
	// pure fan-out tier: output o mirrors upstream o).
	OutRanks int
	// Listen is the listen address for every output server (default
	// "127.0.0.1:0"; each output picks its own ephemeral port).
	Listen string
	// Downstream pre-declares consumers on every output hub (claimed
	// by name like any staging consumer); their array declarations
	// union into the upstream request.
	Downstream []Downstream
	// Telemetry, when non-nil, attaches the relay and its output hubs
	// to the process observability plane (a "relay/<name>" /statusz
	// section plus the usual per-hub series).
	Telemetry *telemetry.Telemetry
	// Retry, when > 0, makes the relay self-healing: upstream dials and
	// mid-stream failures retry up to Retry attempts under backoff, the
	// relay holds resumable sessions upstream (the upstream hub
	// parks its cursor across a disconnect), and — crucially — Run
	// returns a step's upstream credits only once the step has retired
	// from every output hub (Hub.AwaitDrained), so a crashed-and-restarted
	// relay finds every not-yet-delivered step still parked upstream and
	// no lossless consumer below it misses a step.
	Retry int
	// SessionTTL is the park grace the relay requests upstream with
	// Retry (0 = the upstream hub's default). Downstream readers get
	// the sessions and heartbeats their own hellos ask for.
	SessionTTL time.Duration
	// Liveness bounds both the downstream credit wait and the upstream
	// silent-producer wait (0 disables). With Retry, the relay sends
	// every upstream a keepalive each Liveness/3 while a step drains.
	Liveness time.Duration
	// SpillDir, when non-empty, gives every output hub a disk tier so
	// Spill-policy consumers can be declared (or attach dynamically)
	// below this relay; each hub spills under its own subdirectory.
	SpillDir string
	// WaitDownstream, when > 0, bounds a wait for every pre-declared
	// downstream consumer to (re)attach before the relay dials
	// upstream — a restarted mid-tier relay learns its subtree's resume
	// positions first, so the upstream resume suppresses only steps the
	// subtree truly has.
	WaitDownstream time.Duration
	// RedialUpstream, when non-nil, re-resolves the upstream address
	// list before a reconnect attempt (a restarted upstream tier
	// rendezvouses again with fresh ports).
	RedialUpstream func() ([]string, error)
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Name == "" {
		out.Name = "relay"
	}
	if out.Policy == "" {
		out.Policy = "block"
	}
	if out.Depth <= 0 {
		out.Depth = 2
	}
	if out.Listen == "" {
		out.Listen = "127.0.0.1:0"
	}
	return out
}

// Relay is one node of the staging mesh. Build with New, drive with
// Run, tear down with Close (Run tears down on its own when the
// upstream ends).
type Relay struct {
	opts Options

	readers []*adios.Reader
	hubs    []*staging.Hub
	servers []*staging.Server
	binders []*staging.Binder
	pool    *adios.FramePool

	arrays []string // downstream union, the upstream subset request (nil = all)

	// Per-source/per-output stream state, owned by the Run goroutine.
	pendingStruct [][]byte // per source: grid of a skipped structure step
	structSent    []bool   // per output
	frames        [][]byte // per source: splice input scratch

	steps   atomic.Int64
	skipped atomic.Int64
	bytesIn atomic.Int64

	// Deferred credits (Retry mode): frames received whose upstream
	// credit is still held back, and credits returned.
	creditsPending atomic.Int64
	creditsSent    atomic.Int64

	closed    atomic.Bool
	killed    atomic.Bool
	closeOnce sync.Once
	closeErr  error
}

// New dials every upstream address as one SST consumer (requesting
// the unioned downstream requirements), builds R output hubs with
// their servers and pre-declared consumers, and returns the relay
// ready to Run. The upstream addresses are one contact file's worth
// of producer (or upstream-relay) endpoints, in rank order.
func New(upstream []string, opts Options) (*Relay, error) {
	if len(upstream) == 0 {
		return nil, fmt.Errorf("relay: no upstream addresses")
	}
	o := opts.withDefaults()
	r := &Relay{opts: o, pool: adios.NewFramePool()}
	if o.OutRanks == 0 {
		o.OutRanks = len(upstream)
		r.opts.OutRanks = o.OutRanks
	}
	if o.OutRanks < 1 || o.OutRanks > len(upstream) {
		return nil, fmt.Errorf("relay: out-ranks %d outside [1, %d upstreams]", o.OutRanks, len(upstream))
	}

	r.arrays = unionArrays(o.Downstream)

	// Downstream edge first: R hubs, each re-advertising the union and
	// carrying every pre-declared consumer. Building (and listening)
	// before the upstream dial lets a restarted relay re-admit its
	// subtree — and learn its resume positions — before announcing a
	// resume upstream.
	for i := 0; i < o.OutRanks; i++ {
		hub := staging.NewHub(nil)
		r.hubs = append(r.hubs, hub) // teardown closes it on a failure below
		hub.SetAdvertised(r.arrays)
		hub.SetTelemetry(o.Telemetry, fmt.Sprintf("%s-out%d", o.Name, i))
		if o.SpillDir != "" {
			if err := hub.SetSpillDir(filepath.Join(o.SpillDir, fmt.Sprintf("out%d", i))); err != nil {
				r.teardown()
				return nil, fmt.Errorf("relay: spill dir: %w", err)
			}
		}
		// Readers not pre-declared attach with what their hellos ask for.
		binder := staging.NewBinder(hub)
		for _, d := range o.Downstream {
			if _, err := binder.Declare(d.Spec); err != nil {
				r.teardown()
				return nil, fmt.Errorf("relay: declare %q: %w", d.Spec.Name, err)
			}
		}
		srv, err := staging.ServeWith(hub, o.Listen, binder.Resolve, o.Liveness)
		if err != nil {
			r.teardown()
			return nil, fmt.Errorf("relay: listen: %w", err)
		}
		r.binders = append(r.binders, binder)
		r.servers = append(r.servers, srv)
	}
	r.pendingStruct = make([][]byte, len(upstream))
	r.structSent = make([]bool, o.OutRanks)
	r.frames = make([][]byte, len(upstream))

	if o.WaitDownstream > 0 && len(o.Downstream) > 0 {
		deadline := time.Now().Add(o.WaitDownstream)
		for !r.fullyAttached() && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
	}

	// Upstream edge: one reader per source, announcing the subtree's
	// unioned needs. In Retry mode the hello also announces a resumable
	// session, the subtree's minimum resume position, and deferred
	// credits (see Options.Retry).
	resume := int64(0)
	if o.Retry > 0 {
		resume = r.minResume()
	}
	for i, addr := range upstream {
		ropts := adios.ReaderOptions{
			Consumer: o.Name, Policy: o.Policy, Depth: o.Depth,
			Arrays: r.arrays, LivenessTimeout: o.Liveness,
		}
		if o.Retry > 0 {
			ropts.Retry = o.Retry
			ropts.SessionTTL = o.SessionTTL
			ropts.Resume = resume
			ropts.DeferCredit = true
			if o.RedialUpstream != nil {
				src := i
				ropts.Redial = func() (string, error) {
					addrs, err := o.RedialUpstream()
					if err != nil || src >= len(addrs) {
						return "", err
					}
					return addrs[src], nil
				}
			}
		}
		rd, err := adios.OpenReaderWith(addr, ropts)
		if err != nil {
			r.teardown()
			return nil, fmt.Errorf("relay: upstream %d (%s): %w", i, addr, err)
		}
		rd.SetTelemetry(o.Telemetry, "relay", o.Name, "upstream", strconv.Itoa(i))
		r.readers = append(r.readers, rd)
	}

	if resume > 0 {
		// A non-zero resume means a predecessor's subtree position
		// survived into this instance — the restarted-relay path.
		o.Telemetry.Events().Emit(telemetry.EventRelayRebind, o.Name, resume,
			fmt.Sprintf("resumed %d upstream stream(s) at the subtree's position", len(upstream)))
	}

	if o.Telemetry != nil {
		o.Telemetry.RegisterStatus("relay/"+o.Name, func() any { return r.Status() })
	}
	return r, nil
}

// fullyAttached reports whether every output binder's pre-declared
// consumers have been claimed.
func (r *Relay) fullyAttached() bool {
	for _, b := range r.binders {
		if !b.FullyAttached() {
			return false
		}
	}
	return true
}

// minResume folds the output binders' resume positions into the
// ordinal the relay announces upstream: the first step some part of
// the subtree still needs. Deferred credits make 0 (everything) safe
// when nothing has attached yet — the upstream cursor itself only
// ever advances past fully-drained steps.
func (r *Relay) minResume() int64 {
	min := int64(-1)
	for _, b := range r.binders {
		n := b.MinResume()
		if min < 0 || n < min {
			min = n
		}
	}
	if min < 0 {
		return 0
	}
	return min
}

// unionArrays is the subtree's need, which becomes the upstream
// request: the sorted, deduplicated union of the declared consumers'
// array subsets, or nil (every array) when none is declared or one
// declares none.
func unionArrays(ds []Downstream) []string {
	if len(ds) == 0 {
		return nil
	}
	var out []string
	for _, d := range ds {
		if len(d.Spec.Arrays) == 0 {
			return nil
		}
		out = append(out, d.Spec.Arrays...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Addrs lists the relay's output server addresses in shard-rank order
// — the contact file a downstream tier reads. Output o serves shard
// intransit.ShardRange(P, R, o) of the upstream block range.
func (r *Relay) Addrs() []string {
	out := make([]string, len(r.servers))
	for i, s := range r.servers {
		out[i] = s.Addr()
	}
	return out
}

// OutRanks reports R, the number of output streams.
func (r *Relay) OutRanks() int { return len(r.hubs) }

// Upstreams reports P, the number of upstream streams.
func (r *Relay) Upstreams() int { return len(r.readers) }

// Hub returns output o's staging hub (programmatic subscription,
// stats).
func (r *Relay) Hub(o int) *staging.Hub { return r.hubs[o] }

// Status is the relay's /statusz section.
type Status struct {
	Name     string   `json:"name"`
	Upstream int      `json:"upstream_streams"`
	OutRanks int      `json:"out_ranks"`
	Mode     string   `json:"mode"`                   // always "splice": the one data path
	Arrays   []string `json:"trunk_arrays,omitempty"` // empty = all
	Steps    int64    `json:"steps_relayed"`
	Skipped  int64    `json:"steps_skipped"`
	BytesIn  int64    `json:"trunk_bytes_in"`
	BytesOut int64    `json:"bytes_out"`

	// Resilience counters (Retry mode only).
	UpstreamReconnects int64 `json:"upstream_reconnects,omitempty"`
	CreditsSent        int64 `json:"credits_sent,omitempty"`
	CreditsPending     int   `json:"credits_pending,omitempty"`

	// Sessions is the per-output-hub resumable-session table (indexed
	// like the output hubs), so the mesh crawler sees mid-tier session
	// state without scraping /metrics.
	Sessions []staging.SessionStatus `json:"sessions,omitempty"`
}

// Status snapshots the relay's topology and counters (safe from any
// goroutine).
func (r *Relay) Status() Status {
	st := Status{
		Name: r.opts.Name, Upstream: len(r.readers), OutRanks: len(r.hubs),
		Mode: "splice", Arrays: r.arrays,
		Steps: r.steps.Load(), Skipped: r.skipped.Load(),
		BytesIn: r.bytesIn.Load(),
	}
	for _, h := range r.hubs {
		for _, c := range h.Stats() {
			st.BytesOut += c.WireBytes
		}
	}
	for _, rd := range r.readers {
		st.UpstreamReconnects += rd.Reconnects()
	}
	st.CreditsSent = r.creditsSent.Load()
	st.CreditsPending = int(r.creditsPending.Load())
	st.Sessions = make([]staging.SessionStatus, len(r.binders))
	for i, b := range r.binders {
		st.Sessions[i] = b.SessionStatus()
	}
	return st
}

// Run pumps the mesh: receive one step from every upstream source,
// realign skewed streams to the max step (structure from skipped
// steps is never lost), re-block into R output shards, publish, and
// repeat until the upstream ends. On return — clean end-of-stream,
// upstream failure, or Close from another goroutine — the output hubs
// and servers are always torn down cleanly, so downstream consumers
// (and relays) finish with io.EOF, never a raw connection error.
func (r *Relay) Run() (err error) {
	defer func() {
		r.teardown()
		if r.closed.Load() {
			err = nil // deliberate Close mid-run is a clean stop
		}
	}()
	return r.run()
}

// Close tears the relay down: upstream readers, then output hubs
// (downstream pumps drain and send end-of-stream), then servers.
// Safe to call concurrently with Run, which then returns nil.
func (r *Relay) Close() error {
	r.closed.Store(true)
	r.teardown()
	return r.closeErr
}

func (r *Relay) teardown() {
	r.closeOnce.Do(func() {
		// Readers first: unblocks a Run stuck receiving.
		for _, rd := range r.readers {
			rd.Close()
		}
		// Hubs before servers: pumps drain remaining steps and exit
		// through the end-of-stream path.
		for _, h := range r.hubs {
			if err := h.Close(); err != nil && !errors.Is(err, staging.ErrClosed) && r.closeErr == nil {
				r.closeErr = err
			}
		}
		for _, s := range r.servers {
			if err := s.Close(); err != nil && r.closeErr == nil {
				r.closeErr = err
			}
		}
	})
}

// Kill terminates the relay abruptly — the fault-injection model of a
// crashed mid-tier process. Unlike Close, the output servers are
// aborted (connections reset mid-frame, no end-of-stream drain) and
// the upstream connection is dropped without returning outstanding
// credits, so the producer parks this relay's session holding every
// undrained step. A replacement relay with the same session/consumer
// identity then resumes losslessly.
func (r *Relay) Kill() {
	r.opts.Telemetry.Events().Emit(telemetry.EventRelayKill, r.opts.Name, r.steps.Load(),
		"abrupt abort: connections reset, outstanding credits withheld")
	r.killed.Store(true)
	r.closed.Store(true)
	r.closeOnce.Do(func() {
		for _, rd := range r.readers {
			rd.Close()
		}
		for _, s := range r.servers {
			s.Abort()
		}
		// Readers were closed first, so a credit Run attempts once the
		// hubs let go fails to write and stays held back.
		for _, h := range r.hubs {
			h.Close()
		}
	})
}

// shard returns output o's upstream source range.
func (r *Relay) shard(o int) (lo, hi int) {
	return intransit.ShardRange(len(r.readers), len(r.hubs), o)
}

// publish splices one output's shard frames and publishes the result
// as bytes.
func (r *Relay) publish(o int, frames [][]byte) error {
	f, err := adios.SpliceFrames(frames, r.pool)
	if err != nil {
		return fmt.Errorf("relay: splice for output %d: %w", o, err)
	}
	return r.hubs[o].PublishFrame(f)
}

// publishPendingStructure delivers the grid held from skipped
// structure steps to output o, if o has not yet seen one and every
// shard source holds one. Streams without structure (bare array
// streams) never trigger it.
func (r *Relay) publishPendingStructure(o int) error {
	if r.structSent[o] {
		return nil
	}
	lo, hi := r.shard(o)
	for i := lo; i < hi; i++ {
		if r.pendingStruct[i] == nil {
			return nil
		}
	}
	if err := r.publish(o, r.pendingStruct[lo:hi]); err != nil {
		return err
	}
	r.structSent[o] = true
	return nil
}

var errEndedEarly = fmt.Errorf("relay: upstream source ended mid-stream while peers continued")

// part is one upstream source's current step: the raw frame (the
// reader's receive buffer, valid until its next fetch) and its layout.
type part struct {
	raw  []byte
	info adios.FrameInfo
}

// fetch receives source i's next frame into p; eof reports a clean end
// of that stream.
func (r *Relay) fetch(i int, p *part) (eof bool, err error) {
	if r.closed.Load() {
		// A read on the closed reader would reconnect, and its resume
		// hello would settle upstream a step Kill kept from the leaves.
		return false, staging.ErrClosed
	}
	rd := r.readers[i]
	before := rd.BytesReceived()
	if p.raw, err = rd.BeginRawStep(); err == nil {
		p.info, err = adios.ScanFrame(p.raw)
	}
	if errors.Is(err, io.EOF) {
		return true, nil
	}
	if err != nil {
		return false, fmt.Errorf("relay: upstream %d: %w", i, err)
	}
	r.bytesIn.Add(rd.BytesReceived() - before)
	if r.opts.Retry > 0 {
		r.creditsPending.Add(1)
	}
	return false, nil
}

// credit returns source i's held-back credit for step (Retry mode; a
// plain reader credits on receipt). A failed write leaves it held
// back: a broken upstream reconnects on the next fetch, whose resume
// hello settles the step, and a killed relay's upstream session keeps
// the step for the replacement.
func (r *Relay) credit(i int, step int64) {
	if r.opts.Retry == 0 {
		return
	}
	r.creditsPending.Add(-1)
	if r.readers[i].Credit(step) == nil {
		r.creditsSent.Add(1)
	}
}

// awaitRetired waits until the step just published has retired from
// every output hub. With Liveness set it sends each upstream a
// keepalive every Liveness/3 meanwhile, so a liveness-bounded producer
// waiting for the held-back credit never cuts the relay.
func (r *Relay) awaitRetired() error {
	for _, h := range r.hubs {
		for {
			drained, err := h.AwaitDrained(r.opts.Liveness / 3)
			if err != nil {
				return err
			}
			if drained {
				break
			}
			for _, rd := range r.readers {
				rd.Keepalive() //nolint:errcheck // a broken upstream reconnects on the next fetch
			}
		}
	}
	return nil
}

// run is the relay pump: receive one frame from every source, realign
// skewed streams to the max step seen (the grid of a skipped structure
// step is kept), re-block the aligned step into the outputs and, in
// Retry mode, wait for it to retire from them before returning its
// upstream credits. Skipped and structure steps are credited at once:
// the outputs never publish the one, and hold the other for late
// subscribers until Close.
func (r *Relay) run() error {
	P := len(r.readers)
	parts := make([]part, P)
	have := make([]bool, P)
	for {
		eofs := 0
		for i := range parts {
			if have[i] {
				continue
			}
			eof, err := r.fetch(i, &parts[i])
			if err != nil {
				return err
			}
			if eof {
				eofs++
			}
			have[i] = !eof
		}
		if eofs == P {
			return nil
		}
		if eofs > 0 {
			return errEndedEarly
		}
		target := parts[0].info.Step
		for i := 1; i < P; i++ {
			target = max(target, parts[i].info.Step)
		}
		aligned := true
		for i := range parts {
			p := &parts[i]
			for p.info.Step < target {
				if p.info.Structure {
					// Only the grid survives the skip: its arrays belong to
					// a step the outputs never publish.
					f := adios.SubsetFrame(p.raw, &p.info, nil, r.pool)
					r.pendingStruct[i] = append([]byte(nil), f.Bytes()...)
					f.Release()
				}
				r.skipped.Add(1)
				r.credit(i, p.info.Step)
				eof, err := r.fetch(i, p)
				if err != nil {
					return err
				}
				if eof {
					return errEndedEarly
				}
				if p.info.Step > target {
					aligned = false // overshoot: re-agree next round
					break
				}
			}
		}
		if !aligned {
			continue
		}

		if err := r.relayAligned(parts); err != nil {
			return err
		}
		if r.opts.Retry > 0 && !parts[0].info.Structure {
			if err := r.awaitRetired(); err != nil {
				return err
			}
		}
		for i := range parts {
			r.credit(i, target)
		}
		r.steps.Add(1)
		clear(have)
	}
}

// relayAligned re-blocks one aligned step (every source at the same
// step number) into the R outputs: a block-range splice over the
// scanned spans, published as bytes, so every downstream connection
// ships them (or a cut of them) and the relay decodes nothing. A
// structure step — once per stream — splices with its connectivity and
// offsets rebased, and the hub retains it as the bootstrap for late
// subscribers.
func (r *Relay) relayAligned(parts []part) error {
	structured := parts[0].info.Structure
	for i := range parts {
		if parts[i].info.Structure != structured {
			return fmt.Errorf("relay: step %d: source %d structure flag disagrees with source 0", parts[0].info.Step, i)
		}
		r.frames[i] = parts[i].raw
	}
	for o := range r.hubs {
		if !structured {
			if err := r.publishPendingStructure(o); err != nil {
				return err
			}
		}
		lo, hi := r.shard(o)
		if err := r.publish(o, r.frames[lo:hi]); err != nil {
			return err
		}
		if structured {
			r.structSent[o] = true
		}
	}
	if structured {
		clear(r.pendingStruct)
	}
	return nil
}
