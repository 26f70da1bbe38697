package adios

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"os"
	"strings"
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
	Type   string `json:"type"`
	Role   string `json:"role"`
	Engine string `json:"engine,omitempty"`
	// Marshal names the frame format the peer speaks, FrameFormat. Each
	// side refuses a hello naming another (an older peer names none),
	// naming both formats.
	Marshal string `json:"marshal,omitempty"`

	Consumer string `json:"consumer,omitempty"`
	Policy   string `json:"policy,omitempty"`
	Depth    int    `json:"depth,omitempty"`
	// Arrays is the reader's declared array subset: only the named
	// arrays travel on this connection (the structure step is always
	// shipped whole). Empty means every array the producer publishes.
	// A producer that advertises its array set rejects a hello naming
	// an unadvertised array. The subset applies on delivery, so steps
	// staged before the handshake arrived are narrowed too.
	Arrays []string `json:"arrays,omitempty"`
	// Codecs is the reader's wire-compression request (codec.ParseSpec
	// grammar: a default choice and/or "array=choice" overrides). The
	// producer rejects a hello naming a codec this build does not
	// implement; empty means identity (plain BP06).
	Codecs []string `json:"codecs,omitempty"`
	Error  string   `json:"error,omitempty"`

	// Session state. A reader sets NewSession to request a resumable
	// session; the hub's reply carries the issued token in Session. On
	// reconnect the reader presents the token in Session, and Resume
	// names the first sim-step ordinal it has NOT yet consumed (0 =
	// nothing consumed / resume from the parked cursor), so the hub
	// redelivers exactly the steps the reader is missing. SessionTTL is
	// the reader's requested grace period in seconds (0 = the hub's
	// default; the hub clamps it to its maximum).
	Session    string  `json:"session,omitempty"`
	NewSession bool    `json:"new_session,omitempty"`
	Resume     int64   `json:"resume,omitempty"`
	SessionTTL float64 `json:"session_ttl,omitempty"`
	// Liveness is the reader's liveness timeout in seconds: the hub
	// heartbeats an idle stream often enough that a reader waiting this
	// long for traffic has heard from it (0 = the reader does not time
	// the producer out).
	Liveness float64 `json:"liveness,omitempty"`
}

// FrameFormat is the frame grammar this build writes and reads
// (frame.go), as both hellos name it.
const FrameFormat = "bp06"

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

// MinLiveness is the shortest reader liveness bound: three periods of
// the producer's heartbeat floor (10 ms), so a live idle producer is
// always heard from inside it.
const MinLiveness = 30 * time.Millisecond

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
// allocation-free in the steady state: a frame lands in a receive
// buffer that the decoded step takes with it and views, and callers
// that return consumed steps with Recycle hand the step and its buffer
// back, so one buffer and one step serve the whole stream.
type Reader struct {
	conn net.Conn
	br   *bufio.Reader

	frameBuf []byte         // receive buffer; BeginStep hands it to the step, Recycle returns it
	spare    *Step          // recycled decode destination (see Recycle)
	record   FrameSink      // receives every received frame (see SetRecord)
	dec      *StreamDecoder // codec-negotiated readers only; nil decodes BP06 alone
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

	// creditedFloor is the highest step ordinal the latest handshake
	// already settled: deferred credits at or below it are swallowed.
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
	// Policy requests "block", "drop-oldest" or "spill".
	Policy string
	// Depth requests the consumer's queue depth (0 = server default).
	Depth int
	// Arrays declares the array subset this reader needs: the producer
	// ships only these (structure step excepted), and rejects the
	// handshake if one of them is not advertised. Empty requests every
	// published array.
	Arrays []string
	// Codecs requests wire compression (codec.ParseSpec grammar). The
	// producer rejects the handshake if it names an unknown codec.
	// Empty requests plain BP06.
	Codecs []string

	// Retry, when > 0, makes the reader resilient: it bounds the
	// consecutive failed attempts of the initial dial and of each
	// reconnect after a mid-stream transport failure, which resumes
	// transparently instead of surfacing an error. A retrying reader
	// also asks the hub for a resumable session: on disconnect the hub
	// parks this consumer's cursor, window and spill queue for a grace
	// TTL, and a reconnect presenting the issued token resumes
	// exactly-once from the acked position.
	Retry int
	// Redial, when non-nil, re-resolves the producer's address before a
	// reconnect attempt (a restarted producer rendezvouses again with a
	// fresh port). Returning "" falls back to the previous address.
	Redial func() (string, error)
	// SessionTTL is the requested park grace period (0 = the server's
	// default; the server clamps requests to its maximum).
	SessionTTL time.Duration
	// Resume, when > 0, names the first sim-step ordinal this reader
	// has NOT yet consumed: the hub suppresses earlier steps, so a
	// restarted process picks up where its predecessor stopped.
	Resume int64
	// LivenessTimeout, when > 0, bounds how long the reader waits with
	// no producer traffic at all — neither frames nor heartbeat markers
	// — before declaring the peer hung. While waiting it emits
	// keepalive credit bytes so a liveness-checking producer sees it
	// alive. The hello announces it, and the producer heartbeats an idle
	// stream at a third of it, never more often than every 10 ms, so a
	// bound under MinLiveness is refused.
	LivenessTimeout time.Duration
	// DeferCredit suppresses the automatic per-frame step credit: the
	// caller acknowledges each received step explicitly with Credit,
	// from the reading goroutine, once it has truly finished with it (a
	// relay credits upstream only after the step drained its downstream
	// hubs, and sends Keepalive while it waits). The producer then
	// retains each step until the deferred credit arrives, which is
	// what makes a crash between receive and downstream delivery
	// recoverable: the step is still parked upstream.
	DeferCredit bool
}

// OpenReaderWith connects to a writer's advertised address and
// completes the control handshake, carrying the consumer options in
// it (the zero value: a plain reader of a direct stream). With
// opts.Retry > 0 the initial dial retries under
// exponential backoff with jitter; handshake rejections are permanent
// and fail immediately.
func OpenReaderWith(addr string, opts ReaderOptions) (*Reader, error) {
	if _, err := codec.ParseSpec(opts.Codecs); err != nil {
		return nil, err
	}
	if opts.LivenessTimeout > 0 && opts.LivenessTimeout < MinLiveness {
		return nil, fmt.Errorf("adios: liveness %v is under %v: the producer heartbeats at most every %v, so an idle live stream would be declared dead",
			opts.LivenessTimeout, MinLiveness, MinLiveness/3)
	}
	r := &Reader{addr: addr, opts: opts, lastStep: opts.Resume - 1}
	if opts.Resume <= 0 {
		r.lastStep = -1
	}
	if opts.Retry <= 0 {
		return r, r.connectTo(addr)
	}
	if err := r.dial(1); err != nil {
		return nil, err
	}
	return r, nil
}

// connectTo dials addr and runs the reader handshake, installing the
// connection, splice buffer, and stream decoder on r. Called for the
// initial attach and every reconnect: the effective codecs are the
// ones this handshake echoes.
func (r *Reader) connectTo(addr string) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("adios: dial %s: %w", addr, err)
	}
	enc := json.NewEncoder(conn)
	h0 := Hello{Type: "hello", Role: "reader", Marshal: FrameFormat,
		Consumer: r.opts.Consumer, Policy: r.opts.Policy, Depth: r.opts.Depth,
		Arrays: r.opts.Arrays, Codecs: r.opts.Codecs,
		Session:    r.session,
		NewSession: r.opts.Retry > 0 && r.session == "",
		Resume:     r.lastStep + 1,
		SessionTTL: r.opts.SessionTTL.Seconds(),
		Liveness:   r.opts.LivenessTimeout.Seconds()}
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
	if h.Marshal != FrameFormat {
		conn.Close()
		return &RejectedError{Reason: fmt.Sprintf("writer speaks frame format %q, this reader %q", h.Marshal, FrameFormat)}
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
	// This handshake's Resume ordinal (lastStep+1) settles everything
	// below it on the producer; deferred credits for those steps must
	// be swallowed, not sent, or the credit stream desynchronizes.
	r.conn, r.br, r.creditedFloor = conn, combined, r.lastStep
	if h.Session != "" {
		r.session = h.Session
	}
	if !espec.IsIdentity() {
		r.dec = NewStreamDecoder()
	} else {
		r.dec = nil
	}
	return nil
}

// Reconnect backoff of a retrying reader: exponential from retryBase
// to retryMax, each delay jittered down by up to half so restarted
// subtrees do not re-dial their upstream in lockstep; one outage gives
// up after Retry failed attempts or retryBudget, whichever comes first.
const (
	retryBase   = 50 * time.Millisecond
	retryMax    = 2 * time.Second
	retryBudget = 30 * time.Second
)

// backoff is the delay before the attempt-th (0-based) retry.
func backoff(attempt int) time.Duration {
	d := retryBase
	for i := 0; i < attempt && d < retryMax; i++ {
		d *= 2
	}
	d = min(d, retryMax)
	return d - time.Duration(rand.Float64()*float64(d/2))
}

// dial runs connectTo under the retry bounds, for the initial attach
// (initial 1: its first attempt goes at once) and after a mid-stream
// failure (0): backoff with jitter before every later attempt,
// optional address re-resolution, and the two rejections a resilient
// reader outlasts — a hub that has not yet declared a previous
// connection dead (still attached: keep any token, back off, retry),
// and a hub that lost or expired the session (unknown session: retry
// as a fresh subscription carrying the Resume ordinal, whose floor
// suppresses already-consumed steps). Any other rejection is
// permanent.
func (r *Reader) dial(initial int) error {
	start := time.Now()
	lastErr := fmt.Errorf("adios: reconnect retry budget exhausted")
	for a := 0; a < max(r.opts.Retry, 1); a++ {
		if a >= initial {
			time.Sleep(backoff(a - initial))
			if time.Since(start) >= retryBudget {
				break
			}
			if r.opts.Redial != nil {
				if fresh, err := r.opts.Redial(); err == nil && fresh != "" {
					r.addr = fresh
				}
			}
		}
		err := r.connectTo(r.addr)
		var rej *RejectedError
		switch {
		case err == nil:
			return nil
		case !errors.As(err, &rej):
		case strings.Contains(rej.Reason, ReasonStillAttached) && (initial == 1 || r.session != ""):
		case strings.Contains(rej.Reason, ReasonUnknownSession) && r.session != "":
			r.session = ""
		default:
			return err
		}
		lastErr = err
	}
	return lastErr
}

// BeginStep blocks for the next step; io.EOF signals a clean
// end-of-stream, and a stream cut before its marker is an error
// wrapping io.ErrUnexpectedEOF (see truncated). Receiving a step
// returns its credit to the writer, releasing the corresponding
// staging-queue slot. The step owns the receive buffer its frame
// arrived in, and its verbatim payloads view that buffer: until
// Recycle gives both back, the next step arrives in a fresh buffer,
// so a step that is never recycled stays intact. It is fresh storage
// unless the caller recycled a previous one, in which case it is
// decoded in place.
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
		st.frame, r.frameBuf = r.frameBuf, nil
		if err := r.dec.decode(st.frame, st, nil); err != nil {
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
		if !retryable || r.opts.Retry <= 0 {
			return time.Time{}, err
		}
		r.conn.Close()
		if rerr := r.dial(0); rerr != nil {
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
			return time.Time{}, true, r.truncated(err)
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
		return time.Time{}, true, r.truncated(err)
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
			return time.Time{}, true, r.truncated(fmt.Errorf("adios: returning step credit: %w", err))
		}
		r.tel.credits.Inc()
	}
	r.stepsRecv++
	r.bytesRecv += int64(n)
	r.tel.steps.Inc()
	r.tel.bytes.Add(int64(n))
	return recv, false, nil
}

// truncated names a transport failure that ended the stream before
// its end-of-stream marker. A cut at a frame boundary reads as io.EOF,
// which must not pass for the marker's clean end.
func (r *Reader) truncated(err error) error {
	if errors.Is(err, errProducerSilent) {
		return err
	}
	if errors.Is(err, io.EOF) {
		err = io.ErrUnexpectedEOF
	}
	if r.lastStep < 0 { // no step received yet
		return fmt.Errorf("adios: stream truncated after %d frames: %w", r.stepsRecv, err)
	}
	return fmt.Errorf("adios: stream truncated after step %d: %w", r.lastStep, err)
}

// Credit acknowledges one received step under DeferCredit, in receive
// order. Call it from the reading goroutine, between reads. Credits for
// steps a reconnect handshake already settled (the hello's Resume
// ordinal proves them consumed) are swallowed, so the credit byte
// stream never desynchronizes from the producer's pending frame.
func (r *Reader) Credit(step int64) error {
	if step >= 0 && step <= r.creditedFloor {
		return nil
	}
	r.ack[0] = CreditStep
	if _, err := r.conn.Write(r.ack[:]); err != nil {
		return fmt.Errorf("adios: returning deferred step credit: %w", err)
	}
	r.tel.credits.Inc()
	return nil
}

// Keepalive tells a liveness-checking producer this reader is alive
// while it holds a deferred credit back and reads nothing. Call it
// from the reading goroutine, between reads.
func (r *Reader) Keepalive() error {
	r.ack[0] = CreditKeepalive
	if _, err := r.conn.Write(r.ack[:]); err != nil {
		return fmt.Errorf("adios: sending keepalive: %w", err)
	}
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
			if errors.Is(err, os.ErrDeadlineExceeded) {
				if time.Since(last) >= liveness {
					return fmt.Errorf("adios: producer silent for %v (%w)", liveness, errProducerSilent)
				}
				if werr := r.Keepalive(); werr != nil {
					return werr
				}
				continue
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
// codecs refuse raw reads: their frames are BPC6, whose coded payloads
// only a StreamDecoder reads, and the splice takes plain frames.
func (r *Reader) BeginRawStep() ([]byte, error) {
	if r.dec != nil {
		return nil, fmt.Errorf("adios: raw step read on a codec-negotiated stream (frames are BPC6; use BeginStep)")
	}
	for {
		recv, err := r.receiveFrame()
		if err != nil {
			return nil, err
		}
		if len(r.frameBuf) < 12 {
			return r.frameBuf, nil // let the caller surface the scan error
		}
		// The step word follows the magic. Tracking it lets a reconnect
		// hello name the first step still owed, as BeginStep's does.
		step := int64(binary.LittleEndian.Uint64(r.frameBuf[4:12]))
		if r.dedup {
			fi, err := ScanFrame(r.frameBuf)
			if err != nil {
				return r.frameBuf, nil // let the caller surface the scan error
			}
			if !fi.Structure && step <= r.lastStep {
				continue // replay after reconnect: already consumed
			}
		}
		if step > r.lastStep {
			r.lastStep = step
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

// Recycle returns a consumed step's storage, and the receive buffer it
// owns, to the reader so the next BeginStep receives and decodes into
// them instead of allocating. Call only once the caller (and
// everything it handed the step to) is done reading it — the contents
// are overwritten in place. Structure-carrying steps are refused
// (ReuseStep): their payload slices live on in grid caches downstream.
func (r *Reader) Recycle(s *Step) {
	if s := ReuseStep(s); s != nil {
		r.spare = s
		if cap(s.frame) > cap(r.frameBuf) {
			r.frameBuf = s.frame
		}
		s.frame = nil
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
