package staging

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nekrs-sensei/internal/adios"
	"nekrs-sensei/internal/codec"
	"nekrs-sensei/internal/metrics"
	"nekrs-sensei/internal/telemetry"
)

// ErrClosed is returned by Publish and Subscribe after Close.
var ErrClosed = errors.New("staging: hub closed")

// errConsumerClosed surfaces reads on a detached consumer.
var errConsumerClosed = errors.New("staging: consumer closed")

// errSubscribed sends Publish back to marshal again: a consumer
// subscribed while it marshaled, and may take arrays the frame lacks.
var errSubscribed = errors.New("staging: a consumer subscribed")

// stepEntry is one published timestep in the ring, shared by every
// consumer — fan-out never copies payload data. Every entry is a plain
// frame the hub owns (marshaled by Publish, spliced by the relay and
// handed to PublishFrame, or re-read from a spill tier) and its
// scanned layout: the full form is the frame itself, a subset form is
// cut from the recorded spans without touching a float, and a decoded
// step exists only for the forms somebody asked one of. The layout
// holds the header fields the hub itself needs (step, structure), so
// it never decodes on its own account.
//
// Frames lease from the hub's pool; the entry holds one frame
// reference per form, returned when the last consumer releases the
// entry — so the wire buffers of a steady stream recycle instead of
// accumulating for the GC.
type stepEntry struct {
	seq   int64
	bytes int64
	refs  int // consumers (plus the bootstrap hold) yet to release

	// trace is the hub's step tracer at publish time (nil when
	// telemetry is disabled); immutable after construction, so the
	// codec path can stamp without taking the hub lock.
	trace *telemetry.StepTracer

	full form
	info adios.FrameInfo // the full frame's layout

	subMu sync.Mutex
	subs  map[string]*form // per-subset forms by canonical subset key
	encs  []*encodedForm   // one per codec form key; linear scan (1-3 entries)
}

// form is one shape of an entry — the whole step or one array subset
// of it — as its plain wire frame and as a decoded step owning its
// storage, each built at most once and shared by every consumer of
// that shape.
type form struct {
	mu     sync.Mutex
	step   *adios.Step
	frame  *adios.Frame
	arrays []string // what to cut; subset forms only
}

// frameLocked returns the form's plain wire frame, a subset form's cut
// from the entry's full frame on first use. Caller holds f.mu.
func (f *form) frameLocked(e *stepEntry, pool *adios.FramePool) []byte {
	if f.frame == nil {
		f.frame = adios.SubsetFrame(e.full.frame.Bytes(), &e.info, f.arrays, pool)
	}
	return f.frame.Bytes()
}

// stepFor returns the form's decoded step, decoded from its bytes on
// first use: into fresh storage kept on the form when scratch is nil
// (callers may hold on to what Step returns), or into scratch and not
// kept — the hub's own encoders, which are done with the floats when
// they return and reuse one destination per stream. The scratch decode
// copies nothing: it views the full frame the entry holds leased, a
// subset form's records picked straight out of it rather than out of a
// cut copy. The frame scanned clean when
// the entry was built, and ScanFrame and the decoders are visitors
// over one walk of the frame, so a plain frame that scans clean
// decodes by construction: the panic is a safety check.
func (f *form) stepFor(e *stepEntry, h *Hub, scratch *adios.Step) *adios.Step {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.step != nil {
		return f.step
	}
	dst, err := scratch, error(nil)
	if dst != nil {
		err = adios.ViewInto(e.full.frame.Bytes(), f.arrays, dst)
	} else {
		raw := f.frameLocked(e, h.pool)
		dst = &adios.Step{}
		f.step, err = dst, adios.UnmarshalInto(raw, dst)
	}
	if err != nil {
		panic(fmt.Sprintf("staging: step %d scanned clean but does not decode: %v", e.info.Step, err))
	}
	h.decodedVars.Add(int64(len(dst.Vars)))
	return dst
}

// release returns the form's frame lease. Taking f.mu orders it after
// any in-flight cut; no new one can start because no consumer holds a
// reference anymore.
func (f *form) release() {
	f.mu.Lock()
	if f.frame != nil {
		f.frame.Release()
		f.frame = nil
	}
	f.mu.Unlock()
}

// encodedForm is one (subset, codec spec) pair's shared wire form of
// a step entry: one BPC6 frame, which decodes alone, encoded once and
// shared by every consumer of that form key, exactly like shared
// subset frames. The encode happens under the form's codecStream mutex
// (every consumer sharing the form key shares the stream); the atomic
// ready flag publishes the finished frame to releaseFrames, which runs
// only after the last reference dropped and so never races an
// in-flight encode. A plain field instead of sync.Once keeps the
// steady-state delivery path free of per-step closure allocations.
type encodedForm struct {
	form string // canonical form key this encode belongs to

	ready atomic.Bool
	frame *adios.Frame
}

// codecStream serializes the encodes of one (subset, spec) stream
// across the consumers that share it.
type codecStream struct {
	mu  sync.Mutex
	enc *adios.StreamEncoder
	// scratch is where entries are decoded for enc, as views of the
	// entry's frame: the encoder is done with the floats when it
	// returns, so one destination serves every step of the stream.
	scratch adios.Step
}

// releaseFrames returns the entry's pooled frame leases (every plain
// and encoded form). Called when the entry's last reference drops.
func (e *stepEntry) releaseFrames() {
	e.full.release()
	e.subMu.Lock()
	for _, f := range e.subs {
		f.release()
	}
	for _, f := range e.encs {
		if f.ready.Load() && f.frame != nil {
			f.frame.Release()
			f.frame = nil
		}
	}
	e.subMu.Unlock()
}

// encFormFor returns the shared encoded form of this entry under the
// given canonical form key, creating it on first use.
func (e *stepEntry) encFormFor(key string) *encodedForm {
	e.subMu.Lock()
	defer e.subMu.Unlock()
	for _, f := range e.encs {
		if f.form == key {
			return f
		}
	}
	f := &encodedForm{form: key}
	e.encs = append(e.encs, f)
	return f
}

// subsetKey canonicalizes an array subset (sorted, comma-joined).
// Callers pass sorted subsets (normalizeArrays).
func subsetKey(arrays []string) string { return strings.Join(arrays, ",") }

// normalizeArrays sorts and deduplicates a requested subset; nil and
// empty mean "every array".
func normalizeArrays(arrays []string) []string {
	if len(arrays) == 0 {
		return nil
	}
	out := append([]string(nil), arrays...)
	sort.Strings(out)
	n := 0
	for i, a := range out {
		if i == 0 || a != out[i-1] {
			out[n] = a
			n++
		}
	}
	return out[:n]
}

// formFor resolves the shape a consumer declared (normalized arrays,
// nil = everything). The structure-carrying step is always delivered
// whole so late-subsetting consumers can still reconstruct the grid,
// and a subset that keeps every variable is the full form itself —
// same bytes, no second cut.
func (e *stepEntry) formFor(arrays []string) *form {
	if arrays == nil || e.info.Structure {
		return &e.full
	}
	e.subMu.Lock()
	defer e.subMu.Unlock()
	key := subsetKey(arrays)
	if f := e.subs[key]; f != nil {
		return f
	}
	f, kept := &form{arrays: arrays}, 0
	for i := range e.info.Vars {
		if adios.KeepVar(e.info.Vars[i].Name, arrays) {
			kept++
		}
	}
	if kept == len(e.info.Vars) {
		f = &e.full
	}
	if e.subs == nil {
		e.subs = map[string]*form{}
	}
	e.subs[key] = f
	return f
}

// Hub is the staging core: a producer publishes timesteps into a ring
// buffer; each subscribed consumer walks the ring with its own cursor
// under its own backpressure policy. All methods are safe for
// concurrent use.
type Hub struct {
	mu   sync.Mutex
	cond *sync.Cond // broadcast on publish, cursor advance, close

	acct *metrics.Accountant
	pool *adios.FramePool // marshaled frames lease here, recycle on last release

	layout adios.FrameInfo // the last entry's, whose names the next scan reuses

	ring    []*stepEntry // ring[i] holds seq headSeq+i
	headSeq int64        // seq of ring[0]
	nextSeq int64        // seq the next Publish receives

	consumers  []*Consumer
	subscribed int64 // SubscribeSpec calls, the consumer set's generation

	// advertised, when non-nil, is the array set the producer
	// publishes: subscriptions declaring a subset are validated
	// against it and rejected when they name an unknown array.
	advertised []string

	// codecStreams holds the shared encode stream per canonical
	// (subset, spec) form key; same-spec consumers share one encoder
	// (and thus one encode per step).
	codecStreams map[string]*codecStream

	// spillFactory materializes the disk tier for Spill-policy
	// subscriptions (nil: spill subscriptions are rejected).
	spillFactory func(consumer string) (SpillStore, error)

	// bootstrap is the first structure-carrying step, retained (one
	// extra reference) until Close so consumers attaching mid-stream
	// still receive the grid structure.
	bootstrap *stepEntry

	// unretired counts published data steps some consumer still
	// references (AwaitDrained); structure steps are exempt.
	unretired int

	closed    bool
	published int64
	dropped   int64
	spilled   int64

	// decodedVars counts variables decoded out of entries' frames (see
	// DecodedVars).
	decodedVars atomic.Int64

	// tel holds the hub's telemetry handles; the zero value (all nil)
	// is the disabled plane and every stamp/increment no-ops.
	tel hubTelemetry
}

// hubTelemetry is the hub's slice of the process telemetry plane: a
// step tracer for marshal/publish/deliver stamps, lock-free counters
// mirroring the hub's own totals, and the process recovery journal
// for session/spill/liveness events.
type hubTelemetry struct {
	trace      *telemetry.StepTracer
	published  *telemetry.Counter
	dropped    *telemetry.Counter
	spilled    *telemetry.Counter
	wireBytes  *telemetry.Counter
	suppressed *telemetry.Counter
	events     *telemetry.EventJournal
}

// event journals a recovery event against this hub (no-op without
// telemetry; the journal is its own leaf lock, safe under h.mu).
func (h *Hub) event(kind, subject string, step int64, detail string) {
	h.tel.events.Emit(kind, subject, step, detail)
}

// NewHub creates an empty hub. Staged payload bytes are tracked under
// the accountant's "staging-hub" category (nil disables accounting): a
// step is charged the payload it was published with, as an ADIOS2
// writer buffers the whole step, though Publish keeps only the arrays
// the hub's consumers take.
func NewHub(acct *metrics.Accountant) *Hub {
	h := &Hub{acct: acct, pool: adios.NewFramePool()}
	h.cond = sync.NewCond(&h.mu)
	return h
}

// Consumer is one subscriber's handle: a cursor into the hub's ring
// plus the policy that governs how the producer and this cursor
// interact.
type Consumer struct {
	hub    *Hub
	name   string
	policy Policy
	depth  int
	// arrays is this consumer's declared subset (normalized); nil
	// means every published array. Delivered steps and network frames
	// are filtered to it (the structure step always travels whole).
	arrays []string

	// Wire-compression state. codecs holds the negotiated request
	// entries, spec their parsed form; formKey is the canonical
	// "subset|spec" cache key and stream the shared encode stream for
	// it.
	codecs   []string
	spec     codec.Spec
	hasCodec bool
	formKey  string
	stream   *codecStream

	cursor    int64
	delivered int64
	dropped   int64
	spilled   int64
	wireBytes int64
	closed    bool

	// held counts this consumer's delivered-but-unreleased in-memory
	// steps: on the wire awaiting credit or parked as inflight. blocking
	// counts publishers waiting on this consumer's full window right now,
	// blockedNs the time such waits have taken.
	held      int64
	blocking  int
	blockedNs int64

	// Session state (see session.go). A parked consumer keeps its
	// cursor, window, spill queue, and backpressure claim while its
	// reader is disconnected; inflight is the delivered-but-unacked step
	// handed back by the pump at park time, redelivered first on resume
	// unless the reader's Resume ordinal proves it was consumed.
	// resumeFloor suppresses delivery of sim steps below it (a
	// reattached reader that already consumed them elsewhere); lastSim
	// is the highest sim-step ordinal the pump shipped AND got credit
	// for (-1 before any), so nextNeeded() names the first step still
	// owed to the reader.
	parked      bool
	inflight    *StepRef
	resumeFloor int64
	lastSim     int64
	suppressed  int64

	// Spill-policy state: steps evicted from the ring window queue
	// here (oldest first) and a background spiller demotes them to
	// spillStore; delivery always drains spillQ before the ring, so
	// order is preserved. spillWork is the spiller's own FIFO of
	// not-yet-persisted entries (popped from the front, O(1) per
	// demotion regardless of how deep spillQ has grown — entries
	// delivered from memory before the spiller reaches them are
	// skipped by their delivered flag). spillErr records a failed
	// demotion — the affected entry stays deliverable from memory,
	// but the window is effectively unbounded from then on.
	spillQ      []*spillEntry
	spillWork   []*spillEntry
	spillStore  SpillStore
	spillErr    error
	spillerDone chan struct{}
	closedCh    chan struct{} // closed on detach (spill consumers only)

	// pendingBootstrap is delivered before ring steps when the
	// consumer subscribed after the structure step was published.
	pendingBootstrap *stepEntry

	// prev is the ref held by BeginStep between calls; owned by the
	// consumer's single reader goroutine.
	prev *StepRef
}

// StepRef is a reference-counted view of one published step. The
// underlying step is shared with other consumers: treat it as
// read-only. Release returns the reference; the payload's accounting
// is freed once every consumer has released it.
type StepRef struct {
	hub      *Hub
	e        *stepEntry
	released bool

	// arrays is the owning consumer's declared subset: Step and Frame
	// deliver the filtered shared view (structure steps excepted).
	arrays []string

	// cons is the owning consumer; Frame consults its negotiated
	// codec spec.
	cons *Consumer

	// sp is set for views re-read from a consumer's spill tier: e is
	// then a private entry built by Next from the bytes read back (nil
	// until loaded), not a ring entry, and Release has nothing to
	// return to the hub but its pooled subset cuts.
	sp *spillRead
}

// Spill entry states: evicted steps start in memory (holding the
// queue's hub reference), a background spiller demotes them to disk,
// and delivery drains whatever state the head is in.
const (
	spillMem     = iota // in memory, awaiting the spiller
	spillWriting        // the spiller is persisting it
	spillDisk           // on disk; e released, id valid
)

// spillEntry is one step evicted from a Spill consumer's ring window.
// Guarded by the hub's mutex.
type spillEntry struct {
	e         *stepEntry // non-nil until demoted to disk
	state     int
	id        int64 // spill-store record, valid in state spillDisk
	sim       int64 // the step's sim ordinal, known without a disk read
	delivered bool  // popped by delivery; the spiller must not requeue it
}

// spillRead names one spilled step to re-read on catch-up.
type spillRead struct {
	store SpillStore
	id    int64
}

// loadSpilled reads a spill-tier view's frame back and wraps it in a
// private entry, so it is served like any ring step: whole or span-cut
// for the pump, decoded only for an in-process reader. Called outside
// the hub lock by the delivering consumer's goroutine (catch-up I/O
// never stalls the producer). Idempotent, so a step redelivered after
// a park/resume cycle is not re-read.
func (r *StepRef) loadSpilled() error {
	if r.sp == nil || r.e != nil {
		return nil
	}
	buf, err := r.sp.store.ReadFrameInto(r.sp.id, nil)
	if err != nil {
		return fmt.Errorf("staging: reading spilled step: %w", err)
	}
	if r.e, err = frameEntry(adios.WrapFrame(buf), nil); err != nil {
		return fmt.Errorf("staging: decoding spilled step: %w", err)
	}
	return nil
}

// Step returns the shared, read-only step payload, filtered to the
// consumer's declared array subset.
func (r *StepRef) Step() *adios.Step {
	return r.e.formFor(r.arrays).stepFor(r.e, r.hub, nil)
}

// Release returns this consumer's reference. Safe to call twice.
func (r *StepRef) Release() {
	r.hub.mu.Lock()
	defer r.hub.mu.Unlock()
	r.releaseLocked()
}

// releaseLocked is Release with h.mu held.
func (r *StepRef) releaseLocked() {
	if r.released {
		return
	}
	r.released = true
	if r.sp != nil {
		if r.e != nil {
			r.e.releaseFrames()
		}
		return
	}
	r.cons.held--
	r.hub.releaseRef(r.e)
	if r.cons.policy == Block {
		r.hub.cond.Broadcast() // the producer may be waiting on this window
	}
}

// releaseRef drops one reference; the last one frees the accounting
// and returns the entry's pooled frames. Caller holds h.mu.
func (h *Hub) releaseRef(e *stepEntry) {
	e.refs--
	if e.refs == 0 {
		h.acct.Free("staging-hub", e.bytes)
		e.releaseFrames()
		if !e.info.Structure {
			h.unretired--
			if h.unretired == 0 {
				h.cond.Broadcast() // AwaitDrained; releases wake only Block producers
			}
		}
	}
}

// AwaitDrained waits until no published data step is still
// referenced: every consumer delivered and released it, dropped it, or
// spilled it. Structure steps are exempt, since the bootstrap hold
// keeps them by design. It returns false once d has passed with a step
// still held (d <= 0 waits without bound), and ErrClosed when the hub
// closes first. A retrying relay waits here before it returns a step's
// upstream credit.
func (h *Hub) AwaitDrained(d time.Duration) (bool, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.unretired > 0 && d > 0 {
		wake := time.AfterFunc(d, func() {
			h.mu.Lock()
			h.cond.Broadcast()
			h.mu.Unlock()
		})
		defer wake.Stop()
	}
	deadline := time.Now().Add(d)
	for h.unretired > 0 {
		if h.closed {
			return false, ErrClosed
		}
		if d > 0 && !time.Now().Before(deadline) {
			return false, nil
		}
		h.cond.Wait()
	}
	return true, nil
}

// SetSpillFactory installs the factory materializing a disk tier per
// Spill-policy consumer. Must be set before the first Spill
// subscription; stores implementing io.Closer are closed once their
// consumer has detached and its spiller drained.
func (h *Hub) SetSpillFactory(f func(consumer string) (SpillStore, error)) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.spillFactory = f
}

// SetSpillDir is SetSpillFactory through the registered
// directory-based opener (import internal/archive to register the
// archive-backed one): each Spill consumer gets its own store under
// dir.
func (h *Hub) SetSpillDir(dir string) error {
	if spillOpener == nil {
		return fmt.Errorf("staging: no spill opener registered (import internal/archive)")
	}
	h.SetSpillFactory(func(consumer string) (SpillStore, error) {
		return spillOpener(dir, consumer)
	})
	return nil
}

// parseCodecs parses a codec request: an unknown codec name or a
// malformed entry is refused.
func parseCodecs(codecs []string) (codec.Spec, error) {
	spec, err := codec.ParseSpec(codecs)
	if err != nil {
		return codec.Spec{}, fmt.Errorf("staging: %w", err)
	}
	return spec, nil
}

// setConsumerCodecsLocked installs a validated codec spec on a
// consumer, binding it to the shared encode stream for its
// (subset, spec) form. Caller holds h.mu.
func (h *Hub) setConsumerCodecsLocked(c *Consumer, spec codec.Spec) {
	if spec.IsIdentity() {
		c.codecs, c.hasCodec, c.stream, c.formKey = nil, false, nil, ""
		return
	}
	c.codecs = spec.Entries()
	c.spec = spec
	c.hasCodec = true
	c.formKey = subsetKey(c.arrays) + "|" + spec.Key()
	if h.codecStreams == nil {
		h.codecStreams = map[string]*codecStream{}
	}
	st := h.codecStreams[c.formKey]
	if st == nil {
		st = &codecStream{enc: adios.NewStreamEncoder(spec)}
		h.codecStreams[c.formKey] = st
	}
	c.stream = st
}

// setConsumerCodecs validates and installs a codec request on an
// existing subscription — the path that lets a reader claim a
// pre-declared consumer with its own compression request at attach
// time (after any array narrowing, so the form key is final).
func (h *Hub) setConsumerCodecs(c *Consumer, codecs []string) error {
	spec, err := parseCodecs(codecs)
	if err != nil {
		return err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.setConsumerCodecsLocked(c, spec)
	return nil
}

// SetAdvertised declares the array set this hub's producer publishes.
// Once set, subscriptions declaring a subset are validated against it:
// naming an unknown array fails the Subscribe (and, through the
// network server, rejects the reader's handshake). Nil clears the
// advertisement (any subset accepted).
func (h *Hub) SetAdvertised(arrays []string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.advertised = normalizeArrays(arrays)
}

// narrowConsumer replaces an existing subscription's subset with a
// narrower one — the path that lets a reader narrow a pre-declared
// consumer at attach time without losing its cursor. An array outside
// the advertisement or the declared subset is refused: the steps
// queued for the consumer carry only what it declared (Publish).
func (h *Hub) narrowConsumer(c *Consumer, arrays []string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	allowed := c.arrays
	if allowed == nil {
		allowed = h.advertised
	}
	if err := adios.CheckAdvertised(arrays, allowed); err != nil {
		return fmt.Errorf("staging: consumer %q: %w", c.name, err)
	}
	c.arrays = normalizeArrays(arrays)
	return nil
}

// Subscribe attaches a named consumer receiving every published array
// as plain frames: the positional veneer of SubscribeSpec.
func (h *Hub) Subscribe(name string, policy Policy, depth int) (*Consumer, error) {
	return h.SubscribeSpec(ConsumerSpec{Name: name, Policy: policy, Depth: depth})
}

// SubscribeSpec attaches the consumer spec describes. Depth <= 0
// selects the default window of 2 (the SST default queue depth).
// Consumers attached after the first publish receive the retained
// structure step first. With Arrays the consumer receives (and, over
// the network, is shipped) only the named arrays, except the
// structure step which always travels whole; when the producer
// advertised its array set, a subset naming an unknown array is
// rejected. With Codecs its network frames are encoded under the
// given entries (codec.ParseSpec grammar), same-spec consumers
// sharing one encode per step; an unknown codec is rejected. Codecs
// affect only the wire form (StepRef.Frame); in-process consumers read
// the plain step.
func (h *Hub) SubscribeSpec(spec ConsumerSpec) (*Consumer, error) {
	name, policy, depth := spec.Name, spec.Policy, spec.Depth
	if depth <= 0 {
		depth = 2
	}
	arrays := normalizeArrays(spec.Arrays)
	cspec, err := parseCodecs(spec.Codecs)
	if err != nil {
		return nil, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, ErrClosed
	}
	if err := adios.CheckAdvertised(arrays, h.advertised); err != nil {
		return nil, fmt.Errorf("staging: %w", err)
	}
	c := &Consumer{hub: h, name: name, policy: policy, depth: depth, arrays: arrays, cursor: h.nextSeq, lastSim: -1}
	h.setConsumerCodecsLocked(c, cspec)
	if policy == Spill {
		if h.spillFactory == nil {
			return nil, fmt.Errorf("staging: consumer %q wants spill policy but the hub has no spill store (SetSpillFactory/SetSpillDir, or the adaptor's spill attribute)", name)
		}
		store, err := h.spillFactory(name)
		if err != nil {
			return nil, fmt.Errorf("staging: opening spill store for %q: %w", name, err)
		}
		c.spillStore = store
		c.spillerDone = make(chan struct{})
		c.closedCh = make(chan struct{})
		go h.spiller(c)
		if closer, ok := store.(io.Closer); ok {
			go func() { // janitor: close the store once spiller and consumer are done with it
				<-c.spillerDone
				<-c.closedCh
				closer.Close() //nolint:errcheck // nothing to report to
			}()
		}
	}
	if h.bootstrap != nil && h.nextSeq > h.bootstrap.seq {
		c.pendingBootstrap = h.bootstrap
		h.bootstrap.refs++
	}
	h.consumers = append(h.consumers, c)
	h.subscribed++
	return c, nil
}

// lag is the number of published-but-undelivered ring steps for c.
// Caller holds h.mu.
func (h *Hub) lag(c *Consumer) int64 { return h.nextSeq - c.cursor }

// resident is the number of c's steps the hub holds: queued in the
// ring or the spill queue, or delivered and not yet released (held).
// It is the count a Block consumer's depth bounds. Caller holds h.mu.
func (h *Hub) resident(c *Consumer) int64 { return h.lag(c) + int64(len(c.spillQ)) + c.held }

// Publish stages one timestep for every subscribed consumer: s is
// marshaled into a frame of the hub's pool before anything else, so
// the caller may overwrite s's arrays as soon as Publish returns, and
// the frame is published as PublishFrame would. The frame carries only
// the arrays the open consumers take (keptLocked); a consumer
// subscribing meanwhile sends Publish back to marshal again. It blocks
// while any Block-policy consumer has a full window — depth of its
// steps resident in the hub, whether queued, being shipped or parked
// (producer-side backpressure); DropOldest consumers instead lose
// their oldest undelivered steps. Publishing with no consumers
// subscribed discards the step (but still retains the first structure
// step for late subscribers).
func (h *Hub) Publish(s *adios.Step) error {
	for {
		h.mu.Lock()
		kept, subscribed, trace := h.keptLocked(s), h.subscribed, h.tel.trace
		h.mu.Unlock()
		f := adios.MarshalFrame(kept, h.pool)
		trace.Stamp(s.Step, telemetry.StageMarshal)
		if err := h.publish(f, subscribed, s.Bytes()); err != errSubscribed {
			return err
		}
	}
}

// keptLocked is s cut to the variables some open consumer receives:
// the non-array ones, and each array a consumer takes. A structure step
// stays whole, since it bootstraps late subscribers whatever they take.
// Payloads are s's own. Caller holds h.mu.
func (h *Hub) keptLocked(s *adios.Step) *adios.Step {
	if s.Attrs["structure"] == "1" {
		return s
	}
	var union []string
	for _, c := range h.consumers {
		switch {
		case c.closed:
		case c.arrays == nil:
			return s
		default:
			union = append(union, c.arrays...)
		}
	}
	out := &adios.Step{Step: s.Step, Time: s.Time, Attrs: s.Attrs}
	for i := range s.Vars {
		if adios.KeepVar(s.Vars[i].Name, union) {
			out.Vars = append(out.Vars, s.Vars[i])
		}
	}
	return out
}

// PublishFrame is Publish for producers that hold the step as a plain
// (BP06) marshaled frame — the relay, whose M×N splice assembles
// output frames byte-for-byte from upstream spans. The hub scans the
// frame's layout and serves the entry from its bytes: full-form
// consumers ship the frame itself, subset consumers a cut along the
// scanned spans, and nothing is decoded unless a consumer needs the
// floats — a codec consumer's encoder (its arrays only, into the
// stream's reused scratch) or an in-process Step. The hub takes
// ownership of one reference of f in all cases, including errors.
func (h *Hub) PublishFrame(f *adios.Frame) error { return h.publish(f, -1, -1) }

// frameEntry builds the ring entry around f, scanning its layout after
// prev (nil for none). It is the one constructor of an entry.
func frameEntry(f *adios.Frame, prev *adios.FrameInfo) (*stepEntry, error) {
	fi, err := adios.ScanFrameAfter(f.Bytes(), prev)
	if err == nil && fi.Encoded {
		err = fmt.Errorf("staging: coded (BPC6) frame cannot be published")
	}
	if err != nil {
		return nil, err
	}
	e := &stepEntry{info: fi}
	e.full.frame = f
	for i := range fi.Vars {
		e.bytes += fi.Vars[i].PayloadLen
	}
	return e, nil
}

// DecodedVars reports how many variables the hub has decoded out of
// its frames — for a codec consumer's encoder or an in-process Step:
// zero while every consumer is served from bytes.
func (h *Hub) DecodedVars() int64 { return h.decodedVars.Load() }

// publish appends f's entry to the ring, its layout scanned after the
// last entry's. Publish passes the consumer set's generation it
// marshaled f for (a consumer subscribing since fails the call with
// errSubscribed) and the payload bytes to charge (NewHub); -1 stands
// for neither. The hub owns f from here, errors included.
func (h *Hub) publish(f *adios.Frame, subscribed, staged int64) (err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	defer func() {
		if err != nil {
			f.Release()
		}
	}()
	e, err := frameEntry(f, &h.layout)
	if err != nil {
		return err
	}
	h.layout = e.info
	if staged >= 0 {
		e.bytes = staged
	}
	for {
		if h.closed {
			return ErrClosed
		}
		var full *Consumer
		for _, c := range h.consumers {
			if !c.closed && c.policy == Block && h.resident(c) >= int64(c.depth) {
				full = c
				break
			}
		}
		if full == nil {
			break
		}
		t0 := time.Now()
		full.blocking++
		h.cond.Wait()
		full.blocking--
		full.blockedNs += int64(time.Since(t0))
	}
	if subscribed >= 0 && subscribed != h.subscribed {
		return errSubscribed
	}

	e.seq, e.trace = h.nextSeq, h.tel.trace
	h.nextSeq++
	h.published++
	h.tel.published.Inc()
	h.tel.trace.Stamp(e.info.Step, telemetry.StagePublish)
	h.ring = append(h.ring, e)
	h.acct.Alloc("staging-hub", e.bytes)
	if h.bootstrap == nil && e.info.Structure {
		h.bootstrap = e
		e.refs++ // held until Close for late subscribers
	}
	for _, c := range h.consumers {
		if c.closed {
			continue
		}
		e.refs++
		switch c.policy {
		case DropOldest:
			for h.lag(c) > int64(c.depth) {
				h.dropOldest(c)
			}
		case Spill:
			for h.lag(c) > int64(c.depth) {
				h.spillOldest(c)
			}
		}
	}
	if e.refs == 0 {
		h.acct.Free("staging-hub", e.bytes)
		e.releaseFrames() // no consumer will ever read it
	} else if !e.info.Structure {
		h.unretired++
	}
	h.trim()
	h.cond.Broadcast()
	return nil
}

// dropOldest advances c past its oldest undelivered step. The
// structure-carrying bootstrap step is never lost: a drop policy
// defers it into the consumer's bootstrap slot instead, so endpoints
// can always reconstruct the grid. Caller holds h.mu.
func (h *Hub) dropOldest(c *Consumer) {
	e := h.ring[c.cursor-h.headSeq]
	c.cursor++
	if e == h.bootstrap && c.pendingBootstrap == nil {
		c.pendingBootstrap = e // transfer the reference, deliver first
		return
	}
	c.dropped++
	h.dropped++
	h.tel.dropped.Inc()
	h.releaseRef(e)
}

// spillOldest demotes c's oldest undelivered ring step to its spill
// queue: the entry's reference transfers from the ring claim to the
// queue (payload stays alive in memory until the background spiller
// persists it), the cursor advances, and the producer moves on — an
// O(1) hand-off with no I/O under the hub lock. The structure step is
// never spilled: like dropOldest, it defers into the bootstrap slot.
// Caller holds h.mu.
func (h *Hub) spillOldest(c *Consumer) {
	e := h.ring[c.cursor-h.headSeq]
	c.cursor++
	if e == h.bootstrap && c.pendingBootstrap == nil {
		c.pendingBootstrap = e // transfer the reference, deliver first
		return
	}
	c.spilled++
	h.spilled++
	h.tel.spilled.Inc()
	se := &spillEntry{e: e, state: spillMem, sim: e.info.Step}
	c.spillQ = append(c.spillQ, se)
	c.spillWork = append(c.spillWork, se)
	h.event(telemetry.EventSpillDemote, c.name, e.info.Step,
		fmt.Sprintf("spill queue depth %d", len(c.spillQ)))
}

// spiller is a Spill consumer's background demotion loop: it appends
// queued entries' frames to the store (outside the hub lock) and
// releases their hub references once on disk. Exits when the consumer
// detaches, or when the hub is closed and nothing is left to persist.
// On an append error the entry stays deliverable from memory, the
// error is recorded in spillErr, and demotion stops.
func (h *Hub) spiller(c *Consumer) {
	defer close(c.spillerDone)
	h.mu.Lock()
	for {
		if c.closed {
			h.mu.Unlock()
			return
		}
		var se *spillEntry
		for len(c.spillWork) > 0 {
			cand := c.spillWork[0]
			c.spillWork[0] = nil
			c.spillWork = c.spillWork[1:]
			if cand.delivered {
				continue // consumed from memory before we got to it
			}
			se = cand
			break
		}
		if se == nil {
			if h.closed {
				h.mu.Unlock()
				return
			}
			h.cond.Wait()
			continue
		}
		se.state = spillWriting
		e := se.e
		h.mu.Unlock()

		id, err := c.spillStore.AppendFrame(e.full.frame.Bytes())

		h.mu.Lock()
		if err != nil {
			c.spillErr = err
			if se.delivered {
				h.releaseRef(e) // delivery took its own reference
			} else {
				se.state = spillMem // still deliverable from memory
			}
			h.cond.Broadcast()
			h.mu.Unlock()
			return
		}
		se.id = id
		se.state = spillDisk
		se.e = nil
		h.releaseRef(e)
	}
}

// trim discards ring entries every open consumer has passed. Caller
// holds h.mu.
func (h *Hub) trim() {
	min := h.nextSeq
	for _, c := range h.consumers {
		if !c.closed && c.cursor < min {
			min = c.cursor
		}
	}
	n := int(min - h.headSeq)
	if n <= 0 {
		return
	}
	// Compact toward the front instead of reslicing forward: the
	// backing array is reused by the next Publish, so a steady
	// publish/consume loop appends into recycled capacity instead of
	// allocating a fresh ring segment per step.
	m := copy(h.ring, h.ring[n:])
	for i := m; i < len(h.ring); i++ {
		h.ring[i] = nil
	}
	h.ring = h.ring[:m]
	h.headSeq = min
}

// Close ends the stream: blocked producers fail with ErrClosed,
// consumers drain their remaining steps and then see io.EOF.
func (h *Hub) Close() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil
	}
	h.closed = true
	if h.bootstrap != nil {
		h.releaseRef(h.bootstrap)
		h.bootstrap = nil
	}
	h.cond.Broadcast()
	return nil
}

// Closed reports whether Close has been called.
func (h *Hub) Closed() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.closed
}

// Published reports steps accepted by Publish.
func (h *Hub) Published() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.published
}

// Dropped reports steps dropped across all consumers.
func (h *Hub) Dropped() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.dropped
}

// Spilled reports steps demoted to disk tiers across all consumers.
func (h *Hub) Spilled() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.spilled
}

// ActiveConsumers counts subscriptions that have not been closed —
// the ones a publish still delivers to. Short-lived producers (the
// archive replay) gate on this rather than Stats, which keeps closed
// consumers for reporting.
func (h *Hub) ActiveConsumers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, c := range h.consumers {
		if !c.closed {
			n++
		}
	}
	return n
}

// ConsumerStats is one consumer's delivery record and live position.
type ConsumerStats struct {
	Name      string   `json:"name"`
	Policy    Policy   `json:"policy"`
	Depth     int      `json:"depth"`
	Arrays    []string `json:"arrays,omitempty"` // declared subset, nil = all
	Codecs    []string `json:"codecs,omitempty"` // negotiated wire codecs, nil = identity
	Delivered int64    `json:"delivered"`
	Dropped   int64    `json:"dropped"`
	Spilled   int64    `json:"spilled"`    // steps demoted to the consumer's disk tier
	WireBytes int64    `json:"wire_bytes"` // marshaled bytes shipped by the network pump
	Cursor    int64    `json:"cursor"`     // next ring sequence this consumer will read
	// Lag counts published-but-undelivered steps: the ring distance
	// behind the producer plus anything parked in the spill queue and
	// a pending bootstrap step. Closed consumers report 0.
	Lag        int64 `json:"lag"`
	SpillQueue int   `json:"spill_queue"` // evicted steps queued for (or on) the disk tier
	// Resident counts the consumer's steps the hub holds — undelivered
	// ones plus those delivered and not yet released (on the wire or
	// parked): the number a block consumer's depth bounds. Blocking
	// reports the producer waiting in Publish on this consumer's full
	// window right now, BlockedNs the time such waits have taken so far
	// (the first full consumer is charged when several are).
	Resident  int64 `json:"resident"`
	Blocking  bool  `json:"blocking,omitempty"`
	BlockedNs int64 `json:"blocked_ns"`
	Closed    bool  `json:"closed"` // detached consumers stay listed for reporting
	// Parked marks a session consumer whose reader is disconnected but
	// whose cursor and window are retained for resume; Suppressed
	// counts steps withheld below the consumer's resume floor (already
	// consumed by the reattached reader in a previous connection).
	Parked     bool  `json:"parked,omitempty"`
	Suppressed int64 `json:"suppressed,omitempty"`
	// SpillErr is a failed demotion ("" while the spill tier is
	// healthy). After a failure no step is lost — evicted steps stay
	// deliverable from memory — but the consumer's window is no longer
	// bounded by its depth.
	SpillErr string `json:"spill_err,omitempty"`
}

// statsLocked builds one consumer's snapshot. Caller holds h.mu.
func (h *Hub) statsLocked(c *Consumer) ConsumerStats {
	resident := h.resident(c)
	lag := resident - c.held
	if c.pendingBootstrap != nil {
		lag++
	}
	if c.closed {
		lag, resident = 0, 0
	}
	st := ConsumerStats{
		Name: c.name, Policy: c.policy, Depth: c.depth, Arrays: c.arrays,
		Codecs:    c.codecs,
		Delivered: c.delivered, Dropped: c.dropped, Spilled: c.spilled,
		WireBytes: c.wireBytes,
		Cursor:    c.cursor, Lag: lag, SpillQueue: len(c.spillQ), Closed: c.closed,
		Resident: resident, Blocking: c.blocking > 0, BlockedNs: c.blockedNs,
		Parked: c.parked, Suppressed: c.suppressed,
	}
	if c.spillErr != nil {
		st.SpillErr = c.spillErr.Error()
	}
	return st
}

// Stats snapshots every consumer's counters in subscription order.
func (h *Hub) Stats() []ConsumerStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]ConsumerStats, len(h.consumers))
	for i, c := range h.consumers {
		out[i] = h.statsLocked(c)
	}
	return out
}

// Name reports the consumer's subscription name.
func (c *Consumer) Name() string { return c.name }

// Stats snapshots this consumer's counters: the row Hub.Stats lists
// for it.
func (c *Consumer) Stats() ConsumerStats {
	c.hub.mu.Lock()
	defer c.hub.mu.Unlock()
	return c.hub.statsLocked(c)
}

// Arrays reports the consumer's declared array subset (nil = all).
func (c *Consumer) Arrays() []string {
	c.hub.mu.Lock()
	defer c.hub.mu.Unlock()
	return c.arrays
}

// Codecs reports the consumer's negotiated wire-codec entries in
// canonical form (nil = identity, plain BP06 frames).
func (c *Consumer) Codecs() []string {
	c.hub.mu.Lock()
	defer c.hub.mu.Unlock()
	return c.codecs
}

// addWireBytes accumulates shipped frame bytes (network pump).
func (c *Consumer) addWireBytes(n int64) {
	c.hub.mu.Lock()
	defer c.hub.mu.Unlock()
	c.wireBytes += n
	c.hub.tel.wireBytes.Add(n)
}

// IsClosed reports whether the consumer has been detached.
func (c *Consumer) IsClosed() bool {
	c.hub.mu.Lock()
	defer c.hub.mu.Unlock()
	return c.closed
}

// Next blocks for this consumer's next step, returning a shared,
// reference-counted view. io.EOF signals a drained, closed hub. A
// step re-read from the spill tier is read back here, outside the hub
// lock, so catch-up I/O never stalls the producer or other consumers.
func (c *Consumer) Next() (*StepRef, error) { return c.NextTimeout(0) }

// loaded finishes a delivery outside the hub lock: a spill-tier view
// is read back, and released again if that fails.
func loaded(ref *StepRef, err error) (*StepRef, error) {
	if err != nil {
		return nil, err
	}
	if err := ref.loadSpilled(); err != nil {
		ref.Release()
		return nil, err
	}
	return ref, nil
}

// refLocked hands c a counted reference to an in-memory entry. Caller
// holds h.mu and owns one of e's refs on c's behalf.
func (c *Consumer) refLocked(e *stepEntry) *StepRef {
	c.held++
	return &StepRef{hub: c.hub, e: e, arrays: c.arrays, cons: c}
}

// tryNextLocked is the non-blocking core of Next: it returns the next
// deliverable step if one is available, (nil, nil) if the caller
// should wait, io.EOF when the hub is closed and drained, or
// errConsumerClosed. Caller holds h.mu.
func (c *Consumer) tryNextLocked() (*StepRef, error) {
	h := c.hub
	if c.closed {
		return nil, errConsumerClosed
	}
	if c.pendingBootstrap != nil {
		// The structure bootstrap precedes everything — including a
		// redelivered in-flight step: an adopted session's new process
		// has never seen the grid, and data before structure is a hard
		// error one tier down.
		e := c.pendingBootstrap
		c.pendingBootstrap = nil
		c.delivered++
		return c.refLocked(e), nil
	}
	if c.inflight != nil {
		// Redeliver the step that was in flight when the previous
		// connection died (already counted in delivered).
		ref := c.inflight
		c.inflight = nil
		return ref, nil
	}
	for len(c.spillQ) > 0 {
		// Spilled steps are older than everything at the ring cursor:
		// drain them first, from wherever they currently live.
		se := c.spillQ[0]
		c.spillQ[0] = nil
		c.spillQ = c.spillQ[1:]
		se.delivered = true
		if c.resumeFloor > 0 && se.sim < c.resumeFloor {
			// Below the resume floor: the reattached reader already
			// consumed this step in a previous life. In-memory entries
			// return the queue's reference; a mid-write entry's reference
			// is released by the spiller, and on-disk entries hold none.
			c.suppressed++
			h.tel.suppressed.Inc()
			if se.state == spillMem {
				h.releaseRef(se.e)
			}
			continue
		}
		c.delivered++
		switch se.state {
		case spillMem:
			// Not yet persisted: deliver from memory, inheriting the
			// queue's hub reference (the spiller no longer sees it).
			return c.refLocked(se.e), nil
		case spillWriting:
			// The spiller owns the queue's reference mid-write; take
			// our own for the delivery.
			se.e.refs++
			return c.refLocked(se.e), nil
		default: // spillDisk
			return &StepRef{hub: h, sp: &spillRead{store: c.spillStore, id: se.id}, arrays: c.arrays, cons: c}, nil
		}
	}
	for c.cursor < h.nextSeq {
		e := h.ring[c.cursor-h.headSeq]
		c.cursor++
		if c.resumeFloor > 0 && e.info.Step < c.resumeFloor && !e.info.Structure {
			// Below the resume floor (structure steps excepted — the
			// reattached receiver needs the grid either way): suppress.
			c.suppressed++
			h.tel.suppressed.Inc()
			h.releaseRef(e)
			h.trim()
			h.cond.Broadcast()
			continue
		}
		c.delivered++
		h.tel.trace.Stamp(e.info.Step, telemetry.StageDeliver)
		h.trim()
		return c.refLocked(e), nil
	}
	if h.closed {
		return nil, io.EOF
	}
	return nil, nil
}

// BeginStep adapts the consumer to the intransit.StepSource shape:
// each call releases the previous step's reference and blocks for the
// next. Call from a single goroutine.
func (c *Consumer) BeginStep() (*adios.Step, error) {
	if c.prev != nil {
		c.prev.Release()
		c.prev = nil
	}
	ref, err := c.Next()
	if err != nil {
		return nil, err
	}
	c.prev = ref
	return ref.Step(), nil
}

// Close detaches the consumer: its undelivered references are
// returned and the producer stops waiting on it.
func (c *Consumer) Close() {
	c.hub.mu.Lock()
	defer c.hub.mu.Unlock()
	c.closeLocked()
}

// closeLocked is Close with h.mu held.
func (c *Consumer) closeLocked() {
	h := c.hub
	if c.closed {
		return
	}
	c.closed = true
	c.parked = false
	if c.inflight != nil {
		c.inflight.releaseLocked()
		c.inflight = nil
	}
	if c.pendingBootstrap != nil {
		h.releaseRef(c.pendingBootstrap)
		c.pendingBootstrap = nil
	}
	for _, se := range c.spillQ {
		// Undelivered in-memory entries return their queue reference;
		// a mid-write entry's reference is released by the spiller, and
		// on-disk entries hold none.
		if se.state == spillMem {
			h.releaseRef(se.e)
		}
		se.delivered = true
	}
	c.spillQ = nil
	c.spillWork = nil
	if c.closedCh != nil {
		close(c.closedCh)
	}
	for seq := c.cursor; seq < h.nextSeq; seq++ {
		h.releaseRef(h.ring[seq-h.headSeq])
	}
	c.cursor = h.nextSeq
	h.trim()
	h.cond.Broadcast()
}

// Frame exposes the shared marshaled form of a delivered step (the
// network pump's zero-copy path), filtered to the consumer's declared
// subset: consumers sharing a subset share one frame (the published
// one, or one cut of it), and consumers sharing a (subset, codec spec)
// form share one encode. The returned bytes lease from the hub's frame
// pool through this reference — do not touch them after Release.
func (r *StepRef) Frame() []byte {
	// Structure steps and spill catch-ups travel plain.
	if r.cons.hasCodec && !r.e.info.Structure && r.sp == nil {
		return r.encodedFrame()
	}
	f := r.e.formFor(r.arrays)
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.frameLocked(r.e, r.hub.pool)
}

// encodedFrame returns the coded wire form for a codec consumer: the
// entry's frame under the consumer's (subset, spec) key, encoded by
// whichever of the consumers sharing that key ships it first.
func (r *StepRef) encodedFrame() []byte {
	c := r.cons
	form := r.e.encFormFor(c.formKey)
	if !form.ready.Load() {
		c.stream.mu.Lock()
		if !form.ready.Load() {
			st := r.e.formFor(r.arrays).stepFor(r.e, r.hub, &c.stream.scratch)
			form.frame = c.stream.enc.EncodeFrame(st, r.hub.pool)
			r.e.trace.Stamp(r.e.info.Step, telemetry.StageMarshal)
			form.ready.Store(true)
		}
		c.stream.mu.Unlock()
	}
	return form.frame.Bytes()
}

// String describes the hub for logs.
func (h *Hub) String() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return fmt.Sprintf("staging.Hub{published: %d, consumers: %d, ring: %d}",
		h.published, len(h.consumers), len(h.ring))
}
