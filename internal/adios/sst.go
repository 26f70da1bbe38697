package adios

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"nekrs-sensei/internal/codec"
	"nekrs-sensei/internal/telemetry"
)

// Hello is the control-plane handshake message of the one server
// speaking this wire protocol, staging.Server. The consumer fields are
// optional: a reader announces which named hub consumer it is and the
// backpressure policy it wants; a producer whose consumer set is closed
// (analysis type "adios": one pre-declared block consumer) hands its
// stream to the first reader whatever it announces. Error carries a
// handshake-level rejection reason (Role "rejected").
type Hello struct {
	Type    string `json:"type"`
	Role    string `json:"role"`
	Engine  string `json:"engine,omitempty"`
	Marshal string `json:"marshal,omitempty"`

	Consumer string `json:"consumer,omitempty"`
	Policy   string `json:"policy,omitempty"`
	Depth    int    `json:"depth,omitempty"`
	// Group is never sent. It is decoded only so the server can refuse,
	// by name, a peer from before hub consumer groups were removed
	// (group > 1) rather than silently serve it as a plain consumer.
	Group int `json:"group,omitempty"`
	// Arrays is the reader's declared array subset: only the named
	// arrays travel on this connection (the structure step is always
	// shipped whole). Empty means every array the producer publishes.
	// A producer that advertises its array set rejects a hello naming
	// an unadvertised array. The subset applies on delivery, so steps
	// staged before the handshake arrived are narrowed too.
	Arrays []string `json:"arrays,omitempty"`
	// Codecs is the reader's wire-compression request (codec.ParseSpec
	// grammar: a default choice and/or "array=choice" overrides). The
	// producer rejects a hello naming a codec it does not advertise,
	// mirroring the Arrays rule; empty means identity (plain BP05).
	Codecs []string `json:"codecs,omitempty"`
	Error  string   `json:"error,omitempty"`

	// Session state. A reader sets NewSession to request a resumable
	// session; the hub's reply carries the issued token in Session. On
	// reconnect the reader presents the token in Session, and Resume
	// names the first sim-step ordinal it has NOT yet consumed (0 =
	// nothing consumed / resume from the parked cursor), so the hub
	// redelivers exactly the steps the reader is missing. SessionTTL is
	// the reader's requested grace period in seconds (the hub clamps it
	// to its configured maximum).
	Session    string  `json:"session,omitempty"`
	NewSession bool    `json:"new_session,omitempty"`
	Resume     int64   `json:"resume,omitempty"`
	SessionTTL float64 `json:"session_ttl,omitempty"`
}

// Heartbeat wire encoding. Both are invisible to the frame payloads:
// a producer emits HeartbeatMarker as a length prefix with no frame
// following it (the receiver discards it and keeps waiting), and a
// consumer emits CreditKeepalive bytes on the credit channel (the
// producer's credit wait skips them). Liveness-checking peers treat
// either as proof of life.
const HeartbeatMarker = ^uint64(0)

const (
	CreditStep      = 1 // one step consumed: release the staged frame
	CreditKeepalive = 2 // consumer idle but alive: reset liveness clock
)

// ReasonUnknownSession prefixes the rejection reason a staging hub
// gives a reader presenting a session token it no longer (or never)
// knew — the one rejection a resilient reader recovers from, by
// downgrading to a fresh subscription that carries its Resume ordinal.
const ReasonUnknownSession = "unknown session"

// ReasonStillAttached marks the rejection a hub gives a session
// resume whose previous connection has not been declared dead yet
// (its liveness window is still counting down). Transient: the reader
// keeps its token and retries after backoff.
const ReasonStillAttached = "session still attached"

// RejectedError reports a handshake the producer refused (unknown
// array, unsupported codec, session conflict). Permanent: retrying the
// same handshake cannot succeed, except for the unknown-session case
// the resilient reader downgrades on and the still-attached case it
// backs off and retries.
type RejectedError struct{ Reason string }

func (e *RejectedError) Error() string {
	return fmt.Sprintf("adios: writer rejected reader: %s", e.Reason)
}

// MaxHelloBytes caps a peer's JSON hello in both directions: a real
// hello is a few hundred bytes, and without the cap a peer could feed
// the decoder an arbitrarily large one for the whole handshake
// timeout.
const MaxHelloBytes = 64 << 10

// ErrHelloTooLarge refuses a handshake whose hello exceeds
// MaxHelloBytes.
var ErrHelloTooLarge = fmt.Errorf("adios: handshake hello exceeds %d bytes", MaxHelloBytes)

// ReadHello decodes the peer's hello from br, reading at most
// MaxHelloBytes for it, and returns the data-plane reader that follows:
// any bytes the decoder over-read are spliced back in front of br, and
// the newline json.Encoder appends after the hello is discarded — the
// first data frame (or credit byte) starts right after it.
func ReadHello(br *bufio.Reader, h *Hello) (*bufio.Reader, error) {
	lim := &io.LimitedReader{R: br, N: MaxHelloBytes}
	dec := json.NewDecoder(lim)
	if err := dec.Decode(h); err != nil {
		if lim.N <= 0 {
			return nil, ErrHelloTooLarge
		}
		return nil, err
	}
	combined := bufio.NewReaderSize(io.MultiReader(dec.Buffered(), br), 1<<16)
	if b, err := combined.ReadByte(); err == nil && b != '\n' {
		if err := combined.UnreadByte(); err != nil {
			return nil, err
		}
	}
	return combined, nil
}

// FrameSink receives the exact marshaled wire frame of each step —
// the recording seam of the persistent archive. AppendFrame returns
// the record's ordinal in the sink (archives index records; sinks
// that don't may return anything). The sink must copy or persist the
// bytes before returning: pooled frames recycle after the call.
type FrameSink interface {
	AppendFrame(frame []byte) (int64, error)
}

// UnadvertisedArrayError reports a reader handshake requesting an
// array the producer does not advertise.
type UnadvertisedArrayError struct {
	Array     string
	Advertise []string
}

func (e *UnadvertisedArrayError) Error() string {
	return fmt.Sprintf("adios: requested array %q is not advertised (have %v)", e.Array, e.Advertise)
}

// CheckAdvertised validates a requested subset against an advertised
// array set; nil advertise accepts anything.
func CheckAdvertised(requested, advertise []string) error {
	if advertise == nil {
		return nil
	}
	for _, want := range requested {
		ok := false
		for _, have := range advertise {
			if want == have {
				ok = true
				break
			}
		}
		if !ok {
			return &UnadvertisedArrayError{Array: want, Advertise: advertise}
		}
	}
	return nil
}

// Reader is the consumer side of an SST stream. Its receive path is
// allocation-free in the steady state: frames land in a grow-only
// connection-scoped buffer, and callers that return consumed steps
// with Recycle get them decoded in place (UnmarshalInto) instead of
// into fresh storage.
type Reader struct {
	conn net.Conn
	br   *bufio.Reader

	frameBuf []byte         // grow-only receive scratch, reused per frame
	spare    *Step          // recycled decode destination (see Recycle)
	record   FrameSink      // receives every received frame (see SetRecord)
	dec      *StreamDecoder // codec-negotiated readers only; nil decodes BP05 alone
	ack      [1]byte

	// Resilience state. addr/opts are retained for reconnects; session
	// is the staging hub's resume token; lastStep tracks the highest
	// consumed sim-step ordinal (-1 before any) so a reconnect hello can
	// name the first step still owed; dedup is set after a reconnect to
	// drop replayed steps at or below lastStep.
	addr       string
	opts       ReaderOptions
	session    string
	lastStep   int64
	dedup      bool
	reconnects int64

	// Deferred-credit plumbing: Credit may run on another goroutine, so
	// it uses its own guarded view of the connection; creditedFloor is
	// the highest step ordinal the latest handshake already settled
	// (credits at or below it are swallowed).
	wmu           sync.Mutex
	wconn         net.Conn
	creditedFloor int64

	stepsRecv int64
	bytesRecv int64

	// tel is the reader's telemetry handles (zero value = disabled);
	// owned by the reader's single goroutine like the rest.
	tel sstTelemetry
}

// ReaderOptions carries the optional fields of the reader handshake:
// which named hub consumer this reader is (or wants to become), the
// backpressure policy/window it requests, and how it survives a cut.
type ReaderOptions struct {
	// Consumer names the hub consumer to attach as.
	Consumer string
	// Policy requests "block", "drop-oldest" or "latest-only".
	Policy string
	// Depth requests the consumer's queue depth (0 = server default).
	Depth int
	// Arrays declares the array subset this reader needs: the producer
	// ships only these (structure step excepted), and rejects the
	// handshake if one of them is not advertised. Empty requests every
	// published array.
	Arrays []string
	// Codecs requests wire compression (codec.ParseSpec grammar). The
	// producer rejects the handshake if it names a codec outside the
	// producer's advertisement. Empty requests plain BP05.
	Codecs []string

	// Retry, when non-nil, makes the reader resilient: the initial dial
	// retries under the policy's backoff, and a mid-stream transport
	// failure reconnects and resumes transparently instead of surfacing
	// an error.
	Retry *RetryPolicy
	// Redial, when non-nil, re-resolves the producer's address before a
	// reconnect attempt (a restarted producer rendezvouses again with a
	// fresh port). Returning "" falls back to the previous address.
	Redial func() (string, error)
	// Session requests a resumable session from a staging hub: on
	// disconnect the hub parks this consumer's cursor, window, and spill
	// queue for a grace TTL, and a reconnect presenting the issued token
	// resumes exactly-once from the acked position.
	Session bool
	// SessionTTL is the requested park grace period (0 = the server's
	// default; the server clamps requests to its configured maximum).
	SessionTTL time.Duration
	// Resume, when > 0, names the first sim-step ordinal this reader
	// has NOT yet consumed: the hub suppresses earlier steps, so a
	// restarted process picks up where its predecessor stopped.
	Resume int64
	// LivenessTimeout, when > 0, bounds how long the reader waits with
	// no producer traffic at all — neither frames nor heartbeat markers
	// — before declaring the peer hung. While waiting it emits
	// keepalive credit bytes so a liveness-checking producer sees it
	// alive; pair it with the producer's Heartbeat interval.
	LivenessTimeout time.Duration
	// DeferCredit suppresses the automatic per-frame step credit: the
	// caller acknowledges each received step explicitly with Credit,
	// once it has truly finished with it (a relay credits upstream only
	// after the step drained its downstream hubs). The producer then
	// retains each step until the deferred credit arrives, which is
	// what makes a crash between receive and downstream delivery
	// recoverable: the step is still parked upstream.
	DeferCredit bool
}

// OpenReaderWith connects to a writer's advertised address and
// completes the control handshake, carrying the consumer options in
// it (the zero value: a plain reader of a direct stream). With
// opts.Retry set the initial dial retries under
// exponential backoff with jitter; handshake rejections are permanent
// and fail immediately.
func OpenReaderWith(addr string, opts ReaderOptions) (*Reader, error) {
	if _, err := codec.ParseSpec(opts.Codecs); err != nil {
		return nil, err
	}
	r := &Reader{addr: addr, opts: opts, lastStep: opts.Resume - 1}
	if opts.Resume <= 0 {
		r.lastStep = -1
	}
	if opts.Retry == nil {
		return r, r.connectTo(addr)
	}
	pol := opts.Retry.withDefaults()
	attempts := pol.MaxAttempts
	if attempts <= 0 {
		attempts = 1
	}
	start := time.Now()
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			time.Sleep(pol.Backoff(a - 1))
			if pol.MaxElapsed > 0 && time.Since(start) >= pol.MaxElapsed {
				break
			}
			if opts.Redial != nil {
				if fresh, err := opts.Redial(); err == nil && fresh != "" {
					r.addr = fresh
				}
			}
		}
		err := r.connectTo(r.addr)
		if err == nil {
			return r, nil
		}
		var rej *RejectedError
		if errors.As(err, &rej) {
			if strings.Contains(rej.Reason, ReasonStillAttached) {
				// The hub still counts a previous incarnation of this
				// consumer as live; back off until liveness parks it.
				lastErr = err
				continue
			}
			return nil, err
		}
		lastErr = err
	}
	return nil, lastErr
}

// connectTo dials addr and runs the reader handshake, installing the
// connection, splice buffer, and (fresh) stream decoder on r. Called
// for the initial attach and every reconnect: the decoder is rebuilt
// each time because temporal codec chains cannot survive a reconnect —
// the hub restarts the chain from a keyframe on resume.
func (r *Reader) connectTo(addr string) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("adios: dial %s: %w", addr, err)
	}
	enc := json.NewEncoder(conn)
	h0 := Hello{Type: "hello", Role: "reader",
		Consumer: r.opts.Consumer, Policy: r.opts.Policy, Depth: r.opts.Depth,
		Arrays: r.opts.Arrays, Codecs: r.opts.Codecs,
		Session:    r.session,
		NewSession: r.opts.Session && r.session == "",
		Resume:     r.lastStep + 1}
	if r.opts.SessionTTL > 0 {
		h0.SessionTTL = r.opts.SessionTTL.Seconds()
	}
	if err := enc.Encode(h0); err != nil {
		conn.Close()
		return err
	}
	br := bufio.NewReaderSize(conn, 1<<16)
	var h Hello
	combined, err := ReadHello(br, &h)
	if err != nil {
		conn.Close()
		return fmt.Errorf("adios: bad writer handshake: %w", err)
	}
	if h.Role == "rejected" {
		conn.Close()
		return &RejectedError{Reason: h.Error}
	}
	if h.Role != "writer" {
		conn.Close()
		return fmt.Errorf("adios: bad writer handshake: unexpected role %q", h.Role)
	}
	// Configure the decoder from the echoed effective codecs (the
	// producer may assign codecs to a pre-declared staging consumer the
	// reader never asked for); fall back to the request when talking to
	// a producer that does not echo.
	eff := h.Codecs
	if eff == nil {
		eff = r.opts.Codecs
	}
	espec, err := codec.ParseSpec(eff)
	if err != nil {
		conn.Close()
		return fmt.Errorf("adios: writer announced bad codecs: %w", err)
	}
	r.conn, r.br = conn, combined
	r.wmu.Lock()
	// This handshake's Resume ordinal (lastStep+1) settles everything
	// below it on the producer; deferred credits for those steps must
	// be swallowed, not sent, or the credit stream desynchronizes.
	r.wconn, r.creditedFloor = conn, r.lastStep
	r.wmu.Unlock()
	if h.Session != "" {
		r.session = h.Session
	}
	if !espec.IsIdentity() {
		r.dec = NewStreamDecoder(espec.UsesTemporal())
	} else {
		r.dec = nil
	}
	return nil
}

// redial runs the reconnect loop after a mid-stream failure: backoff
// with jitter, optional address re-resolution, and the unknown-session
// downgrade (the hub forgot the session — TTL expiry or hub restart —
// so retry as a fresh subscription carrying the Resume ordinal; the
// hub's resume floor suppresses already-consumed steps).
func (r *Reader) redial() error {
	pol := r.opts.Retry.withDefaults()
	attempts := pol.MaxAttempts
	if attempts <= 0 {
		attempts = 1
	}
	start := time.Now()
	var lastErr error
	for a := 0; a < attempts; a++ {
		time.Sleep(pol.Backoff(a))
		if pol.MaxElapsed > 0 && time.Since(start) >= pol.MaxElapsed {
			break
		}
		if r.opts.Redial != nil {
			if fresh, err := r.opts.Redial(); err == nil && fresh != "" {
				r.addr = fresh
			}
		}
		err := r.connectTo(r.addr)
		if err == nil {
			return nil
		}
		var rej *RejectedError
		if errors.As(err, &rej) {
			if r.session != "" && strings.Contains(rej.Reason, ReasonUnknownSession) {
				// The hub lost (or expired) the session: downgrade to a
				// fresh subscription carrying our Resume ordinal.
				r.session = ""
				lastErr = err
				continue
			}
			if r.session != "" && strings.Contains(rej.Reason, ReasonStillAttached) {
				// The hub has not declared our old connection dead yet:
				// keep the token, back off, retry.
				lastErr = err
				continue
			}
			return err
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("adios: reconnect retry budget exhausted")
	}
	return lastErr
}

// BeginStep blocks for the next step; io.EOF signals a clean
// end-of-stream. Receiving a step returns its credit to the writer,
// releasing the corresponding staging-queue slot. The returned step is
// fresh storage unless the caller recycled a previous one (Recycle),
// in which case it is decoded in place.
func (r *Reader) BeginStep() (*Step, error) {
	for {
		recv, err := r.receiveFrame()
		if err != nil {
			return nil, err
		}
		st := r.spare
		if st == nil {
			st = &Step{}
		} else {
			r.spare = nil
		}
		if err := r.dec.DecodeInto(r.frameBuf, st); err != nil {
			return nil, err
		}
		structure := st.Attrs["structure"] == "1"
		if r.dedup && !structure && st.Step <= r.lastStep {
			// Replay after a reconnect (a resent in-flight frame or a
			// resume overlap): already consumed, drop silently. Structure
			// steps pass through — redelivery is idempotent and the
			// decoder chain needs them.
			r.Recycle(st)
			continue
		}
		if st.Step > r.lastStep {
			r.lastStep = st.Step
			r.dedup = false
		}
		r.tel.trace.StampAt(st.Step, telemetry.StageDeliver, recv)
		r.tel.trace.Stamp(st.Step, telemetry.StageDecode)
		return st, nil
	}
}

// receiveFrame is the resilient transport half of BeginStep, shared
// with BeginRawStep: it pulls the next frame via receiveFrameOnce and,
// when the reader is configured for retry, reconnects and resumes on
// transport failure instead of surfacing the error. A clean
// end-of-stream (io.EOF from the zero-length marker) never triggers a
// reconnect.
func (r *Reader) receiveFrame() (time.Time, error) {
	for {
		recv, retryable, err := r.receiveFrameOnce()
		if err == nil {
			return recv, nil
		}
		if errors.Is(err, errProducerSilent) {
			r.tel.events.Emit(telemetry.EventHeartbeatMiss, r.tel.subject, r.lastStep+1,
				fmt.Sprintf("producer %s silent past liveness timeout", r.addr))
		}
		if !retryable || r.opts.Retry == nil {
			return time.Time{}, err
		}
		r.conn.Close()
		if rerr := r.redial(); rerr != nil {
			return time.Time{}, fmt.Errorf("adios: stream failed (%v); reconnect failed: %w", err, rerr)
		}
		r.reconnects++
		r.tel.reconnects.Inc()
		r.tel.events.Emit(telemetry.EventReconnect, r.tel.subject, r.lastStep+1,
			fmt.Sprintf("reattached to %s (reconnect #%d)", r.addr, r.reconnects))
		// Resume may overlap what we already consumed (a credit lost in
		// flight); BeginStep drops replays at or below lastStep.
		r.dedup = true
	}
}

// receiveFrameOnce pulls the next frame off the wire into the reader's
// reusable scratch buffer, records it, returns the step credit and
// bumps the counters. Heartbeat markers are consumed invisibly.
// Returns the delivery timestamp; io.EOF on the zero-length
// end-of-stream marker. retryable distinguishes transport failures a
// reconnect could heal from reader-local ones (clean EOS, a recording
// sink failure, a decode-state error).
func (r *Reader) receiveFrameOnce() (recv time.Time, retryable bool, err error) {
	var lenBuf [8]byte
	var n uint64
	for {
		if err := r.readFullLiveness(lenBuf[:]); err != nil {
			// An abrupt close at a frame boundary surfaces as io.EOF from
			// the prefix read; without the explicit zero-length marker it
			// is a transport failure, not a clean end-of-stream.
			return time.Time{}, true, err
		}
		n = binary.LittleEndian.Uint64(lenBuf[:])
		if n == HeartbeatMarker {
			continue // producer keepalive: proof of life, no payload
		}
		break
	}
	if n == 0 {
		return time.Time{}, false, io.EOF
	}
	if uint64(cap(r.frameBuf)) >= n {
		r.frameBuf = r.frameBuf[:n]
	} else {
		r.frameBuf = make([]byte, n)
	}
	if err := r.readFullLiveness(r.frameBuf); err != nil {
		return time.Time{}, true, err
	}
	// Delivery time is when the payload finished arriving; BeginStep's
	// trace stamp waits for its decode to learn the step ordinal.
	recv = time.Now()
	if r.record != nil {
		if _, err := r.record.AppendFrame(r.frameBuf); err != nil {
			return time.Time{}, false, fmt.Errorf("adios: recording received frame: %w", err)
		}
	}
	if !r.opts.DeferCredit {
		r.ack[0] = CreditStep
		if _, err := r.conn.Write(r.ack[:]); err != nil {
			return time.Time{}, true, fmt.Errorf("adios: returning step credit: %w", err)
		}
		r.tel.credits.Inc()
	}
	r.stepsRecv++
	r.bytesRecv += int64(n)
	r.tel.steps.Inc()
	r.tel.bytes.Add(int64(n))
	return recv, false, nil
}

// Credit acknowledges one received step under DeferCredit, in receive
// order. Safe to call from a goroutine other than the receiving one.
// Credits for steps a reconnect handshake already settled (the hello's
// Resume ordinal proves them consumed) are swallowed, so the credit
// byte stream never desynchronizes from the producer's pending frame.
func (r *Reader) Credit(step int64) error {
	r.wmu.Lock()
	defer r.wmu.Unlock()
	if step >= 0 && step <= r.creditedFloor {
		return nil
	}
	b := [1]byte{CreditStep}
	if _, err := r.wconn.Write(b[:]); err != nil {
		return fmt.Errorf("adios: returning deferred step credit: %w", err)
	}
	r.tel.credits.Inc()
	return nil
}

// errProducerSilent marks a producer liveness timeout — kept as a
// sentinel so receiveFrame can journal the heartbeat miss distinctly
// from ordinary transport failures.
var errProducerSilent = errors.New("liveness timeout")

// readFullLiveness fills buf from the stream. Without a liveness
// timeout it is io.ReadFull; with one, it polls under short read
// deadlines, emits keepalive credit bytes while idle so the producer's
// liveness clock sees this reader alive, and fails once the producer
// has been silent for the full timeout. Partial progress resets the
// clock, and the buffered reader recovers cleanly from deadline
// errors, so slow-but-alive streams are never cut.
func (r *Reader) readFullLiveness(buf []byte) error {
	liveness := r.opts.LivenessTimeout
	if liveness <= 0 {
		_, err := io.ReadFull(r.br, buf)
		return err
	}
	interval := liveness / 3
	if interval <= 0 {
		interval = liveness
	}
	last := time.Now()
	defer r.conn.SetReadDeadline(time.Time{}) //nolint:errcheck // restore blocking reads
	off := 0
	for off < len(buf) {
		r.conn.SetReadDeadline(time.Now().Add(interval)) //nolint:errcheck // best effort
		m, err := r.br.Read(buf[off:])
		off += m
		if m > 0 {
			last = time.Now()
		}
		if err != nil {
			if off == len(buf) && errors.Is(err, io.EOF) {
				break
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				if time.Since(last) >= liveness {
					return fmt.Errorf("adios: producer silent for %v (%w)", liveness, errProducerSilent)
				}
				kb := [1]byte{CreditKeepalive}
				if _, werr := r.conn.Write(kb[:]); werr != nil {
					return fmt.Errorf("adios: sending keepalive: %w", werr)
				}
				continue
			}
			if off > 0 && errors.Is(err, io.EOF) {
				return io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// BeginRawStep receives the next step's marshaled frame without
// decoding it — the relay's splice path, which re-blocks frames span
// by span (SpliceFrames) and never needs the floats. The returned
// bytes are the reader's internal receive buffer, valid only until
// the next BeginStep/BeginRawStep; ScanFrame recovers the layout.
// io.EOF signals a clean end-of-stream. Streams that negotiated wire
// codecs refuse raw reads: their frames are BPC5 temporal deltas that
// only the connection's stateful decoder can interpret.
func (r *Reader) BeginRawStep() ([]byte, error) {
	if r.dec != nil {
		return nil, fmt.Errorf("adios: raw step read on a codec-negotiated stream (frames are BPC5 deltas; use BeginStep)")
	}
	for {
		recv, err := r.receiveFrame()
		if err != nil {
			return nil, err
		}
		if !r.dedup {
			r.stampRawDeliver(recv)
			return r.frameBuf, nil
		}
		fi, err := ScanFrame(r.frameBuf)
		if err != nil {
			return r.frameBuf, nil // let the caller surface the scan error
		}
		if !fi.Structure && fi.Step <= r.lastStep {
			continue // replay after reconnect: already consumed
		}
		if fi.Step > r.lastStep {
			r.lastStep = fi.Step
			r.dedup = false
		}
		r.stampRawDeliver(recv)
		return r.frameBuf, nil
	}
}

// stampRawDeliver records the deliver stage for a raw-path frame.
// The step ordinal takes a header scan the splice path otherwise
// skips, so it runs only with tracing attached — the no-telemetry
// relay keeps its zero-overhead receive.
func (r *Reader) stampRawDeliver(recv time.Time) {
	if r.tel.trace == nil {
		return
	}
	if fi, err := ScanFrame(r.frameBuf); err == nil && !fi.Structure {
		r.tel.trace.StampAt(fi.Step, telemetry.StageDeliver, recv)
	}
}

// Reconnects reports how many mid-stream reconnects this reader has
// performed.
func (r *Reader) Reconnects() int64 { return r.reconnects }

// Recycle returns a consumed step's storage to the reader so the next
// BeginStep decodes into it instead of allocating. Call only once the
// caller (and everything it handed the step to) is done reading it —
// the decoded contents are overwritten in place. Structure-carrying
// steps are refused (ReuseStep): their payload slices live on in grid
// caches downstream.
func (r *Reader) Recycle(s *Step) {
	if s := ReuseStep(s); s != nil {
		r.spare = s
	}
}

// SetRecord installs (or clears) a frame sink receiving the exact
// wire bytes of every subsequently received step, before decode — the
// consumer-side recording seam (zero re-encode: the bytes are the
// producer's own frame). Call from the reader's single goroutine.
func (r *Reader) SetRecord(sink FrameSink) { r.record = sink }

// StepsReceived reports completed BeginStep calls.
func (r *Reader) StepsReceived() int64 { return r.stepsRecv }

// BytesReceived reports payload bytes received.
func (r *Reader) BytesReceived() int64 { return r.bytesRecv }

// Close tears down the connection.
func (r *Reader) Close() error { return r.conn.Close() }
