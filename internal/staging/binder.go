package staging

import (
	"cmp"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nekrs-sensei/internal/adios"
	"nekrs-sensei/internal/telemetry"
)

// Binder resolves network reader handshakes against a set of
// pre-declared consumers: declared names are claimed (one live
// connection at a time; a reconnect after a disconnect gets a fresh
// subscription under the declared policy), unknown names get fresh
// subscriptions with the policy, depth and arrays the reader's hello
// announced (block and the hub's default window of 2 when it names
// none).
//
// The binder also owns resumable-session lifecycle, and grants every
// reader the session it asks for: a resume token, and a consumer that
// parks (cursor, window, spill queue, and backpressure claim intact)
// instead of closing when the connection dies. A reconnect presenting
// the token — or, for a reader that lost its token across a restart,
// re-announcing the same name with a session request — resumes exactly
// where the acked position left off. A parked session expires after
// its grace TTL and falls back to the classic close path.
//
// The XML staging adaptor, the relay, the archive replay producer and
// a Serve given no SubscribeFunc all resolve handshakes through a
// Binder's Resolve, so live and post hoc attachment semantics are
// identical.
type Binder struct {
	hub *Hub

	mu         sync.Mutex
	specs      map[string]ConsumerSpec // pre-declared consumer shapes
	registered map[string]*Consumer    // current subscription per declared name
	claimed    map[string]bool
	dynSeq     int
	// sole marks a closed consumer set — a direct stream, analysis type
	// "adios": the one Block consumer declared, soleName, is the only one
	// there will ever be. Every reader resolves to it whatever name its
	// hello announces, so the first claims it, a second concurrent one
	// is rejected "already attached", and nothing attaches dynamically.
	sole bool

	// Resumable-session state. sessTTL caps a granted park grace
	// (maxSessionTTL).
	sessTTL      time.Duration
	sessions     map[string]*boundSession // by token
	parkedByName map[string]*boundSession // parked sessions per logical name
	sessIssued   int64
	sessResumed  int64
	sessAdopted  int64
	sessExpired  int64
}

// boundSession is one resumable consumer binding. gen increments on
// every resume so a stale pump's late park (its connection died after
// the reader already reattached) is recognized and ignored.
type boundSession struct {
	token  string
	name   string // logical consumer name ("" = dynamic, not adoptable)
	cons   *Consumer
	ttl    time.Duration
	timer  *time.Timer // armed while parked
	parked bool
	gen    int
}

// soleName is what a closed set's one consumer is called in stats and
// session adoption; readers never need to know it.
const soleName = "direct"

// defaultSessionMax bounds concurrently tracked sessions so a token
// churn cannot grow binder state without bound.
const defaultSessionMax = 256

// A session's park grace is what its reader asked for, or
// defaultSessionTTL, clamped to maxSessionTTL: a reader may ask for a
// shorter park, never for a longer hold on the producer.
const (
	defaultSessionTTL = 30 * time.Second
	maxSessionTTL     = 5 * time.Minute
)

// NewBinder builds a binder over hub.
func NewBinder(hub *Hub) *Binder {
	return &Binder{
		hub:          hub,
		specs:        map[string]ConsumerSpec{},
		registered:   map[string]*Consumer{},
		claimed:      map[string]bool{},
		sessTTL:      maxSessionTTL,
		sessions:     map[string]*boundSession{},
		parkedByName: map[string]*boundSession{},
	}
}

// Declare pre-subscribes one consumer so no step is missed while its
// reader attaches; the subscription is claimed by the first reader
// announcing the name. A zero Depth takes the hub's default window.
func (b *Binder) Declare(spec ConsumerSpec) (*Consumer, error) {
	cons, err := b.hub.SubscribeSpec(spec)
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	b.specs[spec.Name] = spec
	b.registered[spec.Name] = cons
	b.mu.Unlock()
	return cons, nil
}

// soleArrays reports the array subset the sole consumer's reader
// declared: nil on an open set, while unclaimed, or when the reader
// wants everything. The producer pulls only these (Adaptor.Describe).
func (b *Binder) soleArrays() []string {
	if !b.sole { // fixed before serving: the open set's triggers take no lock
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.claimed[soleName] {
		return nil
	}
	return b.registered[soleName].Arrays()
}

// awaitSole is the closed set's shutdown grace: it waits up to d for
// the sole consumer to be claimed, so a producer that finished before
// its reader dialed still delivers every staged step and end-of-stream;
// past the bound the consumer is closed, releasing what it staged.
// No-op on an open set.
func (b *Binder) awaitSole(d time.Duration) {
	if !b.sole {
		return
	}
	for deadline := time.Now().Add(d); !b.FullyAttached() && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.claimed[soleName] {
		b.claimed[soleName] = true
		b.registered[soleName].Close()
	}
}

// FullyAttached reports whether every pre-declared consumer has been
// claimed by a reader. A short-lived producer (the archive replay)
// waits on this before publishing, so its server cannot finish and
// close while declared consumers are still dialing.
func (b *Binder) FullyAttached() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	for name := range b.specs {
		if !b.claimed[name] {
			return false
		}
	}
	return true
}

// Resolve resolves one reader's handshake — the staging.Serve
// SubscribeFunc. Session semantics, in precedence order:
//
//  1. a presented token resumes its parked session (a token the
//     binder no longer holds is rejected as unknown, telling the
//     reader to downgrade to a fresh subscription with its Resume
//     ordinal; a token whose connection the server has not yet
//     declared dead is rejected as still attached, telling the reader
//     to back off and retry);
//  2. a session request without a token adopts the parked session of
//     the same logical name, if one exists — the restarted-relay
//     case, where the token died with the process but the name and
//     resume position survive;
//  3. otherwise the classic bind runs, a resume floor installs when
//     the reader announced one, and a fresh token is issued when the
//     reader asked for one.
func (b *Binder) Resolve(req SubscribeRequest) (*Subscription, error) {
	if b.sole {
		req.Name = soleName
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if req.Session != "" {
		s := b.sessions[req.Session]
		if s == nil || s.cons.IsClosed() {
			if s != nil {
				b.dropSessionLocked(s)
			}
			return nil, fmt.Errorf("%s %q", adios.ReasonUnknownSession, req.Session)
		}
		if !s.parked {
			// The previous connection has not been declared dead yet
			// (liveness still counting down). Resuming now would race
			// the old pump for the consumer; the reader backs off and
			// retries instead.
			return nil, fmt.Errorf("%s %q", adios.ReasonStillAttached, req.Session)
		}
		return b.resumeLocked(s, req.Resume), nil
	}
	if req.NewSession && req.Name != "" {
		// A live (unparked) session under the same name means the hub
		// has not yet declared the previous incarnation dead: transient,
		// the reader backs off rather than hitting "already attached".
		for _, s := range b.sessions {
			if s.name == req.Name && !s.parked && !s.cons.IsClosed() {
				return nil, fmt.Errorf("%s (consumer %q)", adios.ReasonStillAttached, req.Name)
			}
		}
		if s := b.parkedByName[req.Name]; s != nil && !s.cons.IsClosed() {
			// Adopt: the reader lost its token (typically a restarted
			// relay) but the parked position survives under the logical
			// name. Rotate the token so the old one cannot resurrect
			// the session later.
			delete(b.sessions, s.token)
			s.token = b.newTokenLocked()
			b.sessions[s.token] = s
			b.sessAdopted++
			sub := b.resumeLocked(s, req.Resume)
			// The adopting process never saw the structure step (the
			// grid died with the old process): queue the bootstrap for
			// redelivery ahead of the resumed cursor.
			b.hub.rearmBootstrap(s.cons)
			b.hub.event(telemetry.EventSessionAdopted, s.subject(), s.cons.NextNeeded(),
				"replacement process claimed the name; token rotated, bootstrap rearmed")
			return sub, nil
		}
	}
	cons, err := b.bindLocked(req)
	if err != nil {
		return nil, err
	}
	b.hub.setResumeFloor(cons, req.Resume)
	sub := &Subscription{Cons: cons}
	if req.NewSession && len(b.sessions) < defaultSessionMax {
		ttl := min(cmp.Or(req.SessionTTL, defaultSessionTTL), b.sessTTL)
		s := &boundSession{
			token: b.newTokenLocked(), name: req.Name, cons: cons, ttl: ttl, gen: 1,
		}
		b.sessions[s.token] = s
		b.sessIssued++
		sub.Session, sub.TTL = s.token, s.ttl
		sub.Park = b.parkFunc(s, s.gen)
	}
	return sub, nil
}

// Tokens are numbered across every binder of the process and carry its
// start time beside the pid, so a dead hub's token (a relay replaced in
// one process, or a restart reusing the pid) is never reissued.
var tokenSeq, processStart = new(atomic.Int64), time.Now().UnixNano()

func (b *Binder) newTokenLocked() string {
	return fmt.Sprintf("sess-%d-%x-%d", os.Getpid(), processStart, tokenSeq.Add(1))
}

// subject names a session in journal events: the logical consumer
// name when it has one, else the token.
func (s *boundSession) subject() string {
	if s.name != "" {
		return s.name
	}
	return s.token
}

// resumeLocked reattaches a parked session: grace timer disarmed,
// consumer resumed (in-flight step settled against the reader's
// Resume ordinal), and a fresh-generation park handed to the new pump.
func (b *Binder) resumeLocked(s *boundSession, resume int64) *Subscription {
	b.unparkLocked(s)
	s.gen++
	b.hub.resumeConsumer(s.cons, resume)
	b.sessResumed++
	b.hub.event(telemetry.EventSessionResumed, s.subject(), s.cons.NextNeeded(),
		fmt.Sprintf("connection generation %d", s.gen))
	return &Subscription{Cons: s.cons, Session: s.token, TTL: s.ttl, Park: b.parkFunc(s, s.gen)}
}

// parkFunc builds the Subscription.Park hook for one connection
// generation of a session. Returning true means the binder took
// ownership of the consumer's disposal (parked, or superseded by a
// newer generation); false sends the pump down the close path.
func (b *Binder) parkFunc(s *boundSession, gen int) func(inflight *StepRef) bool {
	return func(inflight *StepRef) bool {
		b.mu.Lock()
		if s.gen != gen || b.sessions[s.token] != s {
			// A newer connection already resumed (or the session was
			// dropped): this pump's consumer is no longer its to close.
			b.mu.Unlock()
			if inflight != nil {
				inflight.Release()
			}
			return true
		}
		if !b.hub.parkConsumer(s.cons, inflight) {
			// Consumer already closed (server abort, hub shutdown):
			// the session cannot survive it.
			b.dropSessionLocked(s)
			b.mu.Unlock()
			return false
		}
		s.parked = true
		if s.name != "" {
			b.parkedByName[s.name] = s
		}
		s.timer = time.AfterFunc(s.ttl, func() { b.expireSession(s, gen) })
		b.hub.event(telemetry.EventSessionParked, s.subject(), s.cons.NextNeeded(),
			fmt.Sprintf("position retained for %v grace", s.ttl))
		b.mu.Unlock()
		return true
	}
}

// expireSession ends a parked session whose grace TTL lapsed.
func (b *Binder) expireSession(s *boundSession, gen int) {
	b.mu.Lock()
	if s.gen != gen || !s.parked || b.sessions[s.token] != s {
		b.mu.Unlock()
		return
	}
	b.dropSessionLocked(s)
	b.sessExpired++
	cons := s.cons
	b.hub.event(telemetry.EventSessionExpired, s.subject(), cons.NextNeeded(),
		fmt.Sprintf("park grace %v elapsed; consumer discarded", s.ttl))
	b.mu.Unlock()
	// The consumer closes through the normal path: undelivered
	// references release, the producer's backpressure claim lifts, and
	// a later reconnect under the name takes the classic
	// fresh-resubscription route.
	b.hub.discardParked(cons)
}

func (b *Binder) dropSessionLocked(s *boundSession) {
	delete(b.sessions, s.token)
	b.unparkLocked(s)
}

// unparkLocked disarms s's grace timer and unlists it as parked.
func (b *Binder) unparkLocked(s *boundSession) {
	if s.timer != nil {
		s.timer.Stop()
		s.timer = nil
	}
	if s.name != "" && b.parkedByName[s.name] == s {
		delete(b.parkedByName, s.name)
	}
	s.parked = false
}

// Shutdown discards every session immediately — parked consumers
// close and their backpressure claims lift. Call it when tearing the
// serving process down; without it a parked Block consumer would
// stall the producer until its TTL fired mid-shutdown.
func (b *Binder) Shutdown() {
	b.mu.Lock()
	var discard []*Consumer
	for _, s := range b.sessions {
		if s.parked {
			discard = append(discard, s.cons)
		}
		b.unparkLocked(s)
	}
	b.sessions = map[string]*boundSession{}
	b.parkedByName = map[string]*boundSession{}
	b.mu.Unlock()
	for _, c := range discard {
		b.hub.discardParked(c)
	}
}

// MinResume reports the smallest sim-step ordinal any bound consumer
// still needs — what a restarted relay announces as its own Resume
// when redialing upstream, so the upstream suppresses only steps the
// entire subtree has acknowledged. Returns 0 (resume from the start)
// when nothing is bound.
func (b *Binder) MinResume() int64 {
	b.mu.Lock()
	conss := make(map[*Consumer]struct{})
	for _, s := range b.sessions {
		conss[s.cons] = struct{}{}
	}
	for _, c := range b.registered {
		conss[c] = struct{}{}
	}
	b.mu.Unlock()
	min := int64(-1)
	for c := range conss {
		if c.IsClosed() {
			continue
		}
		n := c.NextNeeded()
		if min < 0 || n < min {
			min = n
		}
	}
	if min < 0 {
		return 0
	}
	return min
}

// bindLocked is the classic (non-session) bind. A reader claiming a
// pre-declared name may narrow its array subset and request wire codecs
// in the hello; an array outside the advertisement or an unknown
// codec rejects the handshake. A reader announcing no codecs inherits
// the declared spec's codecs (the server's handshake reply echoes the
// effective set either way).
func (b *Binder) bindLocked(req SubscribeRequest) (*Consumer, error) {
	name, arrays, codecs := req.Name, req.Arrays, req.Codecs
	if spec, ok := b.specs[name]; ok {
		cons := b.registered[name]
		if !b.claimed[name] {
			if len(arrays) > 0 {
				// The reader narrowed (or set) the subset at attach
				// time: validate it, then swap it onto the pre-declared
				// subscription so the kept cursor ships the narrowed
				// set from here on.
				if err := b.hub.narrowConsumer(cons, arrays); err != nil {
					return nil, err
				}
			}
			// (Re)install the codec binding after any array narrowing so
			// the shared-encode form key reflects the final subset. The
			// reader's announced codecs override the declared ones.
			eff := spec.Codecs
			if len(codecs) > 0 {
				eff = codecs
			}
			if err := b.hub.setConsumerCodecs(cons, eff); err != nil {
				return nil, err
			}
			b.claimed[name] = true
			return cons, nil
		}
		if cons.IsClosed() {
			// The previous connection dropped (its pump closed the
			// subscription). Re-subscribe under the declared policy;
			// steps shed in between are lost, the structure replays
			// from the bootstrap.
			if len(arrays) > 0 {
				spec.Arrays = arrays
			}
			if len(codecs) > 0 {
				spec.Codecs = codecs
			}
			nc, err := b.hub.SubscribeSpec(spec)
			if err != nil {
				return nil, err
			}
			b.registered[name] = nc
			return nc, nil
		}
		return nil, fmt.Errorf("already attached")
	}
	p, err := ParsePolicy(req.Policy)
	if err != nil {
		return nil, err
	}
	spec := ConsumerSpec{Name: name, Policy: p, Depth: req.Depth, Arrays: arrays, Codecs: codecs}
	if name == "" {
		b.dynSeq++
		spec.Name = fmt.Sprintf("consumer-%d", b.dynSeq)
	}
	return b.hub.SubscribeSpec(spec)
}

// SessionStats is one resumable session's /statusz row.
type SessionStats struct {
	Token      string  `json:"token"`
	Name       string  `json:"name,omitempty"`
	Parked     bool    `json:"parked"`
	TTLSeconds float64 `json:"ttl_seconds"`
	NextNeeded int64   `json:"next_needed"`
}

// SessionStatus is the binder's /statusz session table.
type SessionStatus struct {
	Issued   int64          `json:"issued"`
	Resumed  int64          `json:"resumed"`
	Adopted  int64          `json:"adopted"`
	Expired  int64          `json:"expired"`
	Sessions []SessionStats `json:"sessions,omitempty"`
}

// SessionStatus snapshots the binder's session table for /statusz.
func (b *Binder) SessionStatus() SessionStatus {
	b.mu.Lock()
	st := SessionStatus{
		Issued: b.sessIssued, Resumed: b.sessResumed,
		Adopted: b.sessAdopted, Expired: b.sessExpired,
	}
	rows := make([]SessionStats, 0, len(b.sessions))
	conss := make([]*Consumer, 0, len(b.sessions))
	for _, s := range b.sessions {
		rows = append(rows, SessionStats{
			Token: s.token, Name: s.name, Parked: s.parked,
			TTLSeconds: s.ttl.Seconds(),
		})
		conss = append(conss, s.cons)
	}
	b.mu.Unlock()
	// NextNeeded takes the hub lock; fill it outside the binder lock.
	for i := range rows {
		rows[i].NextNeeded = conss[i].NextNeeded()
	}
	st.Sessions = rows
	sort.Slice(st.Sessions, func(i, j int) bool { return st.Sessions[i].Token < st.Sessions[j].Token })
	return st
}
