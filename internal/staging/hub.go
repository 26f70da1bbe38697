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

// stepEntry is one published timestep in the ring, shared by every
// consumer — fan-out never copies payload data. It comes in two
// shapes. A Publish-ed entry starts from the decoded step and marshals
// its wire frame on first use. A frame-published entry (PublishFrame:
// the relay's spliced output, and steps re-read from a spill tier)
// starts from the frame and its scanned layout: the full form is the
// frame itself, a subset form is cut from the recorded spans without
// touching a float, and a decoded step exists only for the forms
// somebody asked one of. sim and structure are the header fields the
// hub itself needs, so it never decodes on its own account.
//
// Frames lease from the hub's pool; the entry holds one frame
// reference per form, returned when the last consumer releases the
// entry — so the wire buffers of a steady stream recycle instead of
// accumulating for the GC.
type stepEntry struct {
	seq       int64
	sim       int64
	structure bool
	bytes     int64
	refs      int // consumers (plus the bootstrap hold) yet to release

	// trace is the hub's step tracer at publish time (nil when
	// telemetry is disabled); immutable after construction, so the
	// marshal path can stamp without taking the hub lock.
	trace *telemetry.StepTracer

	full form
	info *adios.FrameInfo // the full frame's layout; frame-published entries only

	subMu sync.Mutex
	subs  map[string]*form // per-subset forms by canonical subset key
	encs  []*encodedForm   // one per codec form key; linear scan (1-3 entries)
}

// form is one shape of an entry — the whole step or one array subset
// of it — as a decoded step and as its plain wire frame, each built at
// most once and shared by every consumer of that shape. A Publish-ed
// entry's subset steps share the full step's payload slices, so they
// cost headers, not data copies.
type form struct {
	mu     sync.Mutex
	step   *adios.Step
	frame  *adios.Frame
	arrays []string // what to cut; subset forms of frame-published entries only
}

// frameLocked returns the form's plain wire frame: marshaled from the
// step, or cut from the entry's full frame. Caller holds f.mu.
func (f *form) frameLocked(e *stepEntry, pool *adios.FramePool) []byte {
	if f.frame == nil {
		if f.step == nil {
			f.frame = adios.SubsetFrame(e.full.frame.Bytes(), e.info, f.arrays, pool)
		} else {
			f.frame = adios.MarshalFrame(f.step, pool)
			if f == &e.full {
				e.trace.Stamp(e.sim, telemetry.StageMarshal)
			}
		}
	}
	return f.frame.Bytes()
}

// frameBytes is frameLocked for callers outside the form.
func (f *form) frameBytes(e *stepEntry, pool *adios.FramePool) []byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.frameLocked(e, pool)
}

// stepFor returns the form's decoded step. A frame-published form is
// decoded from its bytes on first use: into fresh storage kept on the
// form when scratch is nil (callers may hold on to what Step returns),
// or into scratch and not kept — the hub's own encoders, which are
// done with the floats when they return and reuse one destination per
// stream. The frame scanned clean when the entry was built, and
// ScanFrame and UnmarshalInto are visitors over one walk of the frame,
// so a plain frame that scans clean decodes by construction: the panic
// is a safety check.
func (f *form) stepFor(e *stepEntry, h *Hub, scratch *adios.Step) *adios.Step {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.step != nil {
		return f.step
	}
	raw, dst := f.frameLocked(e, h.pool), scratch
	if dst == nil {
		dst = &adios.Step{}
		f.step = dst
	}
	if err := adios.UnmarshalInto(raw, dst); err != nil {
		panic(fmt.Sprintf("staging: step %d scanned clean but does not decode: %v", e.sim, err))
	}
	h.decodedVars.Add(int64(len(dst.Vars)))
	return dst
}

// release returns the form's frame lease. Taking f.mu orders it after
// any in-flight marshal; no new one can start because no consumer
// holds a reference anymore.
func (f *form) release() {
	f.mu.Lock()
	if f.frame != nil {
		f.frame.Release()
		f.frame = nil
	}
	f.mu.Unlock()
}

// encodedForm is one (subset, codec spec) pair's shared wire form of
// a step entry: the chain frame — encoded as part of the stream's
// temporal chain, recording which step its deltas difference against
// — and, built only when some consumer missed that base, a
// self-contained keyframe. Same-spec consumers share both encodes,
// exactly like shared subset frames.
// Encodes happen under the form's codecStream mutex (every consumer
// sharing the form key shares the stream); the atomic ready flags
// publish the finished frames to releaseFrames, which runs only after
// the last reference dropped and so never races an in-flight encode.
// Plain fields instead of sync.Once keep the steady-state delivery
// path free of per-step closure allocations.
type encodedForm struct {
	form string // canonical form key this encode belongs to

	chainReady atomic.Bool
	chain      *adios.Frame
	base       int64 // temporal base step, -1 = self-contained

	keyReady atomic.Bool
	key      *adios.Frame
}

// codecStream serializes the shared temporal chain of one
// (subset, spec) encode stream across the consumers that share it.
type codecStream struct {
	mu  sync.Mutex
	enc *adios.StreamEncoder
	// scratch is where frame-published entries are decoded for enc: the
	// encoder is done with the floats when it returns, so one
	// destination serves every step of the stream.
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
		if f.chainReady.Load() && f.chain != nil {
			f.chain.Release()
			f.chain = nil
		}
		if f.keyReady.Load() && f.key != nil {
			f.key.Release()
			f.key = nil
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

// filterStep builds a subset view of s containing only the named
// arrays (plus every non-array variable, e.g. the structure). Var
// payloads are shared, not copied.
func filterStep(s *adios.Step, arrays []string) *adios.Step {
	out := &adios.Step{Step: s.Step, Time: s.Time, Attrs: s.Attrs}
	for i := range s.Vars {
		if adios.KeepVar(s.Vars[i].Name, arrays) {
			out.Vars = append(out.Vars, s.Vars[i])
		}
	}
	return out
}

// formFor resolves the shape a consumer declared (normalized arrays,
// nil = everything). The structure-carrying step is always delivered
// whole so late-subsetting consumers can still reconstruct the grid,
// and a subset that keeps every variable is the full form itself —
// same bytes, no second marshal or cut.
func (e *stepEntry) formFor(arrays []string) *form {
	if arrays == nil || e.structure {
		return &e.full
	}
	e.subMu.Lock()
	defer e.subMu.Unlock()
	key := subsetKey(arrays)
	if f := e.subs[key]; f != nil {
		return f
	}
	f := &form{arrays: arrays}
	kept, all := 0, 0
	if e.info == nil {
		f.step = filterStep(e.full.step, arrays)
		kept, all = len(f.step.Vars), len(e.full.step.Vars)
	} else {
		all = len(e.info.Vars)
		for i := range e.info.Vars {
			if adios.KeepVar(e.info.Vars[i].Name, arrays) {
				kept++
			}
		}
	}
	if kept == all {
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

	ring    []*stepEntry // ring[i] holds seq headSeq+i
	headSeq int64        // seq of ring[0]
	nextSeq int64        // seq the next Publish receives

	consumers []*Consumer

	// advertised, when non-nil, is the array set the producer
	// publishes: subscriptions declaring a subset are validated
	// against it and rejected when they name an unknown array.
	advertised []string

	// codecAdvertised, when non-nil, restricts which wire codecs
	// subscriptions may request; nil accepts every codec the build
	// implements. Unknown codec names are always rejected.
	codecAdvertised []string

	// codecStreams holds the shared encode chain per canonical
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

	// Retire notification (SetRetireNotify): data steps whose last
	// reference dropped are queued here for the owner's crediting loop.
	retiredQ []int64
	retireCh chan<- struct{}

	closed    bool
	published int64
	dropped   int64
	spilled   int64

	// decodedVars counts variables decoded out of frame-published
	// entries (see DecodedVars).
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
// the accountant's "staging-hub" category (nil disables accounting).
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
	// "subset|spec" cache key and stream the shared encode chain for
	// it. wirePrev is the step number of the last coded frame shipped
	// on this consumer's connection (-1 after anything that resets the
	// receiver's temporal state: attach, structure step, spill
	// catch-up) — owned by the consumer's pump goroutine, like prev.
	codecs   []string
	spec     codec.Spec
	hasCodec bool
	formKey  string
	stream   *codecStream
	wirePrev int64

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
	// codec spec and per-connection temporal-chain position.
	cons *Consumer

	// sp is set for views re-read from a consumer's spill tier: e is
	// then a private frame-published entry built by Next from the bytes
	// read back (nil until loaded), not a ring entry, and Release has
	// nothing to return to the hub but its pooled subset cuts.
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
// private entry, so it is served like any frame-published step: whole
// or span-cut for the pump, decoded only for an in-process reader.
// Called outside the hub lock by the delivering consumer's goroutine
// (catch-up I/O never stalls the producer). Idempotent, so a step
// redelivered after a park/resume cycle is not re-read.
func (r *StepRef) loadSpilled() error {
	if r.sp == nil || r.e != nil {
		return nil
	}
	buf, err := r.sp.store.ReadFrameInto(r.sp.id, nil)
	if err != nil {
		return fmt.Errorf("staging: reading spilled step: %w", err)
	}
	if r.e, err = frameEntry(adios.WrapFrame(buf)); err != nil {
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
		h.noteRetiredLocked(e)
	}
}

// noteRetiredLocked queues a fully-released data step's sim ordinal
// for the retire-notify subscriber (no-op otherwise). Structure steps
// are exempt: the bootstrap hold keeps them referenced by design.
// Caller holds h.mu.
func (h *Hub) noteRetiredLocked(e *stepEntry) {
	if h.retireCh == nil || e.structure {
		return
	}
	h.retiredQ = append(h.retiredQ, e.sim)
	select {
	case h.retireCh <- struct{}{}:
	default: // a signal is already pending; DrainRetired batches
	}
}

// SetRetireNotify installs a retire signal channel: whenever a
// published data step's last reference drops — every consumer
// consumed, dropped, or persisted it — the step's sim ordinal is
// queued and ch receives a non-blocking signal. Collect the queue
// with DrainRetired. A relay uses this to defer its upstream step
// credits until each step has fully drained its downstream hubs,
// making the upstream hold the end-to-end recovery copy.
func (h *Hub) SetRetireNotify(ch chan<- struct{}) {
	h.mu.Lock()
	h.retireCh = ch
	h.mu.Unlock()
}

// DrainRetired returns the retired sim ordinals queued since the last
// drain (in retirement order).
func (h *Hub) DrainRetired() []int64 {
	h.mu.Lock()
	q := h.retiredQ
	h.retiredQ = nil
	h.mu.Unlock()
	return q
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

// SetCodecAdvertised restricts the wire codecs this hub's producer is
// willing to apply: subscriptions requesting a codec outside the list
// are rejected (and, through the network server, reject the reader's
// handshake), mirroring SetAdvertised for arrays. Nil clears the
// restriction — any implemented codec is accepted; unknown codec
// names are rejected either way.
func (h *Hub) SetCodecAdvertised(codecs []string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.codecAdvertised = codecs
}

// validateCodecsLocked parses and validates a codec request against
// the advertisement. Caller holds h.mu.
func (h *Hub) validateCodecsLocked(codecs []string) (codec.Spec, error) {
	spec, err := codec.CheckAdvertised(codecs, h.codecAdvertised)
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
	c.wirePrev = -1
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
	h.mu.Lock()
	defer h.mu.Unlock()
	spec, err := h.validateCodecsLocked(codecs)
	if err != nil {
		return err
	}
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

// validateSubsetLocked rejects subsets naming arrays outside the
// advertisement (no-op while no advertisement is set), using the wire
// protocol's shared rejection rule. Caller holds h.mu.
func (h *Hub) validateSubsetLocked(arrays []string) error {
	if err := adios.CheckAdvertised(arrays, h.advertised); err != nil {
		return fmt.Errorf("staging: %w", err)
	}
	return nil
}

// validateSubset is validateSubsetLocked for external callers.
func (h *Hub) validateSubset(arrays []string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.validateSubsetLocked(normalizeArrays(arrays))
}

// setConsumerArrays replaces an existing subscription's declared
// subset — the path that lets a reader narrow a pre-declared consumer
// at attach time without losing its cursor.
func (h *Hub) setConsumerArrays(c *Consumer, arrays []string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	c.arrays = normalizeArrays(arrays)
}

// Subscribe attaches a named consumer receiving every published array
// as plain frames: the positional veneer of SubscribeSpec.
func (h *Hub) Subscribe(name string, policy Policy, depth int) (*Consumer, error) {
	return h.SubscribeSpec(ConsumerSpec{Name: name, Policy: policy, Depth: depth})
}

// SubscribeSpec attaches the consumer spec describes. Depth <= 0
// selects the default window of 2 (the SST default queue depth);
// LatestOnly forces a window of one. Consumers attached after the first
// publish receive the retained structure step first. With Arrays the
// consumer receives (and, over the network, is shipped) only the named
// arrays, except the structure step which always travels whole; when
// the producer advertised its array set, a subset naming an unknown
// array is rejected. With Codecs its network frames are encoded under
// the given entries (codec.ParseSpec grammar), same-spec consumers
// sharing one encode per step; an unknown codec, or one outside the
// hub's codec advertisement, is rejected. Codecs affect only the wire
// form (StepRef.Frame); in-process consumers read the shared step as is.
func (h *Hub) SubscribeSpec(spec ConsumerSpec) (*Consumer, error) {
	name, policy, depth := spec.Name, spec.Policy, spec.Depth
	if depth <= 0 {
		depth = 2
	}
	if policy == LatestOnly {
		depth = 1
	}
	arrays := normalizeArrays(spec.Arrays)
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, ErrClosed
	}
	if err := h.validateSubsetLocked(arrays); err != nil {
		return nil, err
	}
	cspec, err := h.validateCodecsLocked(spec.Codecs)
	if err != nil {
		return nil, err
	}
	c := &Consumer{hub: h, name: name, policy: policy, depth: depth, arrays: arrays, cursor: h.nextSeq, wirePrev: -1, lastSim: -1}
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
	return c, nil
}

// lag is the number of published-but-undelivered ring steps for c.
// Caller holds h.mu.
func (h *Hub) lag(c *Consumer) int64 { return h.nextSeq - c.cursor }

// resident is the number of c's steps the hub holds: queued in the
// ring or the spill queue, or delivered and not yet released (held).
// It is the count a Block consumer's depth bounds. Caller holds h.mu.
func (h *Hub) resident(c *Consumer) int64 { return h.lag(c) + int64(len(c.spillQ)) + c.held }

// Publish stages one timestep for every subscribed consumer. It
// blocks while any Block-policy consumer has a full window — depth of
// its steps resident in the hub, whether queued, being shipped or
// parked (producer-side backpressure);
// DropOldest/LatestOnly consumers instead lose their oldest
// undelivered steps. Publishing with no consumers subscribed discards
// the step (but still retains the first structure step for late
// subscribers).
func (h *Hub) Publish(s *adios.Step) error {
	e := &stepEntry{sim: s.Step, structure: s.Attrs["structure"] == "1", bytes: s.Bytes()}
	e.full.step = s
	return h.publish(e)
}

// PublishFrame is Publish for producers that hold the step as a plain
// (BP05) marshaled frame — the relay, whose M×N splice assembles
// output frames byte-for-byte from upstream spans. The hub scans the
// frame's layout and serves the entry from its bytes: full-form
// consumers ship the frame itself, subset consumers a cut along the
// scanned spans, and nothing is decoded unless a consumer needs the
// floats — a codec consumer's encoder (its arrays only, into the
// stream's reused scratch) or an in-process Step. The hub takes
// ownership of one reference of f in all cases, including errors.
func (h *Hub) PublishFrame(f *adios.Frame) error {
	e, err := frameEntry(f)
	if err == nil {
		err = h.publish(e)
	}
	if err != nil {
		f.Release()
	}
	return err
}

// frameEntry builds a frame-published entry around f.
func frameEntry(f *adios.Frame) (*stepEntry, error) {
	fi, err := adios.ScanFrame(f.Bytes())
	if err == nil && fi.Encoded {
		err = fmt.Errorf("staging: coded (BPC5) frame cannot be published")
	}
	if err != nil {
		return nil, err
	}
	e := &stepEntry{sim: fi.Step, structure: fi.Structure, info: &fi}
	e.full.frame = f
	for i := range fi.Vars {
		e.bytes += fi.Vars[i].PayloadLen
	}
	return e, nil
}

// DecodedVars reports how many variables have been decoded out of
// frame-published entries: zero while every consumer is served from
// bytes.
func (h *Hub) DecodedVars() int64 { return h.decodedVars.Load() }

func (h *Hub) publish(e *stepEntry) error {
	h.mu.Lock()
	defer h.mu.Unlock()
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

	e.seq, e.trace = h.nextSeq, h.tel.trace
	h.nextSeq++
	h.published++
	h.tel.published.Inc()
	h.tel.trace.Stamp(e.sim, telemetry.StagePublish)
	h.ring = append(h.ring, e)
	h.acct.Alloc("staging-hub", e.bytes)
	if h.bootstrap == nil && e.structure {
		h.bootstrap = e
		e.refs++ // held until Close for late subscribers
	}
	for _, c := range h.consumers {
		if c.closed {
			continue
		}
		e.refs++
		switch c.policy {
		case DropOldest, LatestOnly:
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
		e.releaseFrames() // no consumer will ever marshal or read it
		h.noteRetiredLocked(e)
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
	se := &spillEntry{e: e, state: spillMem, sim: e.sim}
	c.spillQ = append(c.spillQ, se)
	c.spillWork = append(c.spillWork, se)
	h.event(telemetry.EventSpillDemote, c.name, e.sim,
		fmt.Sprintf("spill queue depth %d", len(c.spillQ)))
}

// spiller is a Spill consumer's background demotion loop: it marshals
// and appends queued entries to the store (outside the hub lock) and
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

		id, err := c.spillStore.AppendFrame(e.full.frameBytes(e, h.pool))

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
// canonical form (nil = identity, plain BP05 frames).
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
func (c *Consumer) Next() (*StepRef, error) {
	h := c.hub
	h.mu.Lock()
	var ref *StepRef
	var err error
	for {
		ref, err = c.tryNextLocked()
		if ref != nil || err != nil {
			break
		}
		h.cond.Wait()
	}
	h.mu.Unlock()
	return loaded(ref, err)
}

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
		// connection died (already counted in delivered). A codec
		// consumer's wirePrev was reset at resume, so the re-shipped
		// wire form is a self-contained keyframe.
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
		if c.resumeFloor > 0 && e.sim < c.resumeFloor && !e.structure {
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
		h.tel.trace.Stamp(e.sim, telemetry.StageDeliver)
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
// subset: consumers sharing a subset share one marshal (or one cut of
// a published frame), and consumers sharing a (subset, codec spec)
// form share one encode. The returned bytes lease from the hub's frame
// pool through this reference — do not touch them after Release.
func (r *StepRef) Frame() []byte {
	if c := r.cons; c.hasCodec {
		if !r.e.structure && r.sp == nil {
			return r.encodedFrame()
		}
		// Structure steps and spill catch-ups travel plain; the
		// receiver's decoder drops its temporal state on a plain frame,
		// so the next coded delivery must not difference against a step
		// the decoder no longer holds.
		c.wirePrev = -1
	}
	return r.e.formFor(r.arrays).frameBytes(r.e, r.hub.pool)
}

// encodedFrame resolves the coded wire form for a codec consumer:
// the shared chain frame when this consumer's receiver holds the
// frame's temporal base, the shared self-contained keyframe
// otherwise (first delivery, or a gap after drop/spill/structure).
func (r *StepRef) encodedFrame() []byte {
	c := r.cons
	form := r.e.encFormFor(c.formKey)
	src := r.e.formFor(r.arrays)
	if !form.chainReady.Load() {
		c.stream.mu.Lock()
		if !form.chainReady.Load() {
			st := src.stepFor(r.e, r.hub, &c.stream.scratch)
			form.chain, form.base = c.stream.enc.EncodeFrame(st, r.hub.pool)
			r.e.trace.Stamp(r.e.sim, telemetry.StageMarshal)
			form.chainReady.Store(true)
		}
		c.stream.mu.Unlock()
	}
	var out []byte
	if form.base >= 0 && form.base != c.wirePrev {
		if !form.keyReady.Load() {
			c.stream.mu.Lock()
			if !form.keyReady.Load() {
				st := src.stepFor(r.e, r.hub, &c.stream.scratch)
				form.key = c.stream.enc.EncodeKeyFrame(st, r.hub.pool)
				form.keyReady.Store(true)
			}
			c.stream.mu.Unlock()
		}
		out = form.key.Bytes()
	} else {
		out = form.chain.Bytes()
	}
	c.wirePrev = r.e.sim
	return out
}

// String describes the hub for logs.
func (h *Hub) String() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return fmt.Sprintf("staging.Hub{published: %d, consumers: %d, ring: %d}",
		h.published, len(h.consumers), len(h.ring))
}
