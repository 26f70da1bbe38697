package staging

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"nekrs-sensei/internal/adios"
	"nekrs-sensei/internal/telemetry"
)

// SubscribeRequest carries everything an incoming reader handshake
// announced. Name/Policy/Depth/Arrays/Codecs are the classic
// subscription shape (any may be empty/zero); the session fields are
// the resumable-consumer extension:
//
//   - Session is a resume token from a previous connection ("" = none);
//   - NewSession asks for a resumable session (a token comes back in
//     the reply when the subscriber supports them);
//   - Resume is the first sim-step ordinal the reader has NOT yet
//     seen (0 = from the start) — on a fresh subscription it becomes
//     the consumer's resume floor, on a token resume it settles the
//     parked in-flight step;
//   - SessionTTL is the reader's requested park grace (0 = default).
type SubscribeRequest struct {
	Name   string
	Policy string
	Depth  int
	Arrays []string
	Codecs []string

	Session    string
	NewSession bool
	Resume     int64
	SessionTTL time.Duration
}

// Subscription is a resolved handshake: the consumer to pump, plus
// session state when the subscriber supports resumable consumers.
type Subscription struct {
	Cons *Consumer

	// Session is the resume token issued (or confirmed) for this
	// connection; "" means the subscription is not resumable and a
	// transport failure closes the consumer. TTL is the session's park
	// grace.
	Session string
	TTL     time.Duration

	// Park, when non-nil, is offered the consumer after a transport
	// failure instead of a close; inflight is the delivered-but-unacked
	// step (nil if none — ownership transfers on true). It reports
	// whether the session was parked: false sends the caller down the
	// normal close path.
	Park func(inflight *StepRef) bool
}

// SubscribeFunc resolves an incoming reader handshake to a hub
// consumer. Implementations typically claim a pre-registered consumer
// by name or subscribe a new one. Returning an error — e.g. for an
// unadvertised array, an unsupported codec, or an unknown session token
// — rejects the handshake.
type SubscribeFunc func(req SubscribeRequest) (*Subscription, error)

// handshakeTimeout bounds how long an accepted connection may sit
// before completing its hello: a dialer that connects and goes silent
// must not pin a goroutine (and its conns slot) for the life of the
// server. A variable only so a test can shorten it.
var handshakeTimeout = 10 * time.Second

// minPoll floors a pump's poll and a heartbeat period:
// a third of the shortest liveness a reader may announce.
const minPoll = adios.MinLiveness / 3

// heartbeatPeriod is how often an idle stream is heartbeaten: a third
// of the shorter of the reader's liveness timeout and its session's
// park grace (so a silent reader is found, and parked, well inside the
// grace), never under minPoll. 0 — a reader that announced neither —
// is no heartbeat.
func heartbeatPeriod(liveness, ttl time.Duration) time.Duration {
	if liveness <= 0 || (ttl > 0 && ttl < liveness) {
		liveness = ttl
	}
	if liveness <= 0 {
		return 0
	}
	return max(liveness/3, minPoll)
}

// Server accepts any number of SST readers on one address and pumps
// each one from its own hub consumer — the one producer-side server of
// this wire protocol. Each frame is marshaled once in the hub and
// shared by every connection.
type Server struct {
	hub       *Hub
	ln        net.Listener
	subscribe SubscribeFunc
	liveness  time.Duration

	wg sync.WaitGroup

	mu      sync.Mutex
	conns   map[net.Conn]*Consumer // nil until the handshake binds one
	err     error
	closed  bool         // Close or Abort ran: no more readers
	drainAt atomic.Int64 // unix ns Close began draining; 0 while serving or after Abort
}

// Serve starts a staging server on addr (use "127.0.0.1:0" for an
// ephemeral port) with no liveness bound. subscribe may be nil, in
// which case handshakes resolve through a Binder with nothing declared:
// every reader gets a fresh consumer with its announced
// name/policy/depth (policy defaults to block), and the session it
// asks for.
func Serve(hub *Hub, addr string, subscribe SubscribeFunc) (*Server, error) {
	return ServeWith(hub, addr, subscribe, 0)
}

// ServeWith is Serve with a liveness bound on the credit wait: when >
// 0, a reader that neither credits the delivered step nor sends
// keepalives within it is declared dead and its connection dropped (a
// resumable session parks instead of closing).
func ServeWith(hub *Hub, addr string, subscribe SubscribeFunc, liveness time.Duration) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("staging: listen: %w", err)
	}
	s := &Server{hub: hub, ln: ln, subscribe: subscribe, liveness: liveness, conns: map[net.Conn]*Consumer{}}
	if subscribe == nil {
		s.subscribe = NewBinder(hub).Resolve
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr reports the server's contact address for the rendezvous step.
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) setErr(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}

// Err reports the first connection error observed (nil if none).
func (s *Server) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if !errors.Is(err, net.ErrClosed) {
				s.setErr(fmt.Errorf("staging: accept: %w", err))
			}
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = nil
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// serveConn handshakes one reader, binds it to a consumer, and pumps
// frames with the credit-per-step flow control of the SST data plane.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(handshakeTimeout)) //nolint:errcheck // best effort
	var h adios.Hello
	// The credit bytes follow the hello on the same connection.
	credits, err := adios.ReadHello(bufio.NewReaderSize(conn, 1<<16), &h)
	if err != nil {
		s.setErr(fmt.Errorf("staging: bad reader handshake: %w", err))
		return
	}
	if h.Role != "reader" {
		s.setErr(fmt.Errorf("staging: bad reader handshake: unexpected role %q", h.Role))
		return
	}
	// A rejection is sent as the handshake reply (the client would
	// otherwise read a closed connection as a clean, empty
	// end-of-stream).
	reject := func(err error) {
		err = fmt.Errorf("staging: consumer %q: %w", h.Consumer, err)
		s.setErr(err)
		json.NewEncoder(conn).Encode(adios.Hello{ //nolint:errcheck // best-effort reject
			Type: "hello", Role: "rejected", Error: err.Error(),
		})
	}
	if h.Marshal != adios.FrameFormat {
		reject(fmt.Errorf("reader speaks frame format %q, this producer %q", h.Marshal, adios.FrameFormat))
		return
	}
	// Bind before replying so a failed subscription is rejected in the
	// handshake.
	sub, err := s.subscribe(SubscribeRequest{
		Name: h.Consumer, Policy: h.Policy, Depth: h.Depth,
		Arrays: h.Arrays, Codecs: h.Codecs,
		Session: h.Session, NewSession: h.NewSession, Resume: h.Resume,
		SessionTTL: seconds(h.SessionTTL),
	})
	if err != nil {
		reject(err)
		return
	}
	cons := sub.Cons
	heartbeat := heartbeatPeriod(seconds(h.Liveness), sub.TTL)
	// A resumable session parks on transport failure instead of
	// closing; everything else — clean end-of-stream, handshake-era
	// errors, refused parks — closes the consumer on the way out.
	parked := false
	defer func() {
		if !parked {
			cons.Close()
		}
	}()
	parkOr := func(inflight *StepRef, err error) {
		s.setErr(err)
		if sub.Park != nil && sub.Park(inflight) {
			parked = true
			return
		}
		if inflight != nil {
			inflight.Release()
		}
	}
	// Echo the consumer's effective codecs: a pre-declared consumer may
	// carry a codec spec the reader did not announce, and the reader
	// configures its decoder from this reply. Session confirms (or
	// issues) the resume token.
	if err := json.NewEncoder(conn).Encode(adios.Hello{
		Type: "hello", Role: "writer", Engine: "sst-staging", Marshal: adios.FrameFormat,
		Codecs: cons.Codecs(), Session: sub.Session,
	}); err != nil {
		s.setErr(err)
		return
	}
	s.mu.Lock()
	s.conns[conn] = cons
	aborted := s.closed && s.drainAt.Load() == 0
	s.mu.Unlock()
	if aborted {
		return // Abort walked the connections during this handshake
	}

	p := &pump{s: s, conn: conn, credits: credits, last: time.Now(),
		poll: max(cmp.Or(s.liveness, drainGrace)/3, minPoll)}
	for {
		ref, err := cons.NextTimeout(heartbeat)
		if errors.Is(err, errNextTimeout) {
			// Idle stream: prove liveness without touching the frame
			// sequence. A reader that vanished surfaces here as a write
			// error instead of a silent forever-blocked Next.
			if werr := p.send(adios.HeartbeatMarker, nil); werr != nil {
				parkOr(nil, werr)
				return
			}
			continue
		}
		if errors.Is(err, io.EOF) {
			// The hub closed and this consumer has nothing left: the one
			// place a stream ends cleanly.
			p.send(0, nil) //nolint:errcheck // the reader is gone either way
			return
		}
		if err != nil {
			// Consumer closed under us (Abort, a session adopted
			// elsewhere): no marker, so the reader sees the stream cut.
			return
		}
		frame := ref.Frame()
		cons.addWireBytes(int64(len(frame)))
		if err := p.send(uint64(len(frame)), frame); err != nil {
			parkOr(ref, err)
			return
		}
		// Reader-driven flow control: hold this step's reference until
		// the consumer returns its credit, so a slow endpoint shows up
		// as staged-byte growth on the hub.
		if err := p.awaitCredit(); err != nil {
			if errors.Is(err, errConsumerSilent) {
				s.hub.event(telemetry.EventHeartbeatMiss, cons.name, ref.SimStep(),
					"no credit or keepalive from consumer")
			}
			parkOr(ref, fmt.Errorf("staging: waiting for step credit: %w", err))
			return
		}
		cons.noteShipped(ref.SimStep())
		ref.Release()
	}
}

// seconds converts a hello's seconds field; a negative one is 0.
func seconds(s float64) time.Duration {
	return max(time.Duration(s*float64(time.Second)), 0)
}

// errConsumerSilent marks a reader cut for making no progress — a
// sentinel so the pump can journal the heartbeat miss distinctly from
// ordinary connection failures.
var errConsumerSilent = errors.New("consumer made no progress")

// pump is one reader's data plane. Every blocking write and credit
// read polls under a deadline, so the pump itself cuts a reader that
// makes no progress — no frame bytes accepted, no credit, no keepalive
// — for too long (stalled), also when Close starts its drain while the
// pump is blocked.
type pump struct {
	s       *Server
	conn    net.Conn
	credits io.Reader
	last    time.Time     // the reader's last progress
	poll    time.Duration // deadline of one blocking call

	// Connection-scoped scratch, reused for every step.
	lenBuf [8]byte
	ack    [1]byte
	iov    [2][]byte
	bufs   net.Buffers
}

// send writes one length prefix and the frame after it (none for a
// marker) in one vectored write, resumed across polls.
func (p *pump) send(n uint64, frame []byte) error {
	binary.LittleEndian.PutUint64(p.lenBuf[:], n)
	p.bufs = append(p.iov[:0], p.lenBuf[:])
	if len(frame) > 0 {
		p.bufs = append(p.bufs, frame)
	}
	for {
		p.conn.SetWriteDeadline(time.Now().Add(p.poll)) //nolint:errcheck // best effort
		m, err := p.bufs.WriteTo(p.conn)
		if m > 0 {
			p.last = time.Now()
		}
		if err == nil {
			return nil
		}
		if err := p.stalled(err); err != nil {
			return err
		}
	}
}

// awaitCredit blocks for one step credit; a keepalive byte is
// progress, not credit.
func (p *pump) awaitCredit() error {
	for {
		p.conn.SetReadDeadline(time.Now().Add(p.poll)) //nolint:errcheck // best effort
		if _, err := io.ReadFull(p.credits, p.ack[:]); err != nil {
			if err := p.stalled(err); err != nil {
				return err
			}
			continue
		}
		p.last = time.Now()
		if p.ack[0] != adios.CreditKeepalive {
			return nil
		}
	}
}

// stalled judges a failed poll: nil to keep waiting, the error itself
// when it is no timeout, errConsumerSilent once the reader has made no
// progress for the server's liveness — or, without one, for drainGrace
// counted from Close's drain at the earliest.
func (p *pump) stalled(err error) error {
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		return err
	}
	bound, from := p.s.liveness, p.last
	if bound <= 0 {
		drain := p.s.drainAt.Load()
		if drain == 0 {
			return nil // serving, unbounded
		}
		bound, from = drainGrace, time.Unix(0, max(from.UnixNano(), drain))
	}
	if time.Since(from) < bound {
		return nil
	}
	return fmt.Errorf("%w for %v", errConsumerSilent, bound)
}

// drainGrace bounds a drain's wait on a reader that makes no progress,
// on a server with no liveness; a variable only so a test can shorten it.
var drainGrace = 5 * time.Second

// Close drains: it stops accepting readers and waits for every pump to
// deliver what its consumer holds and end the stream with the
// end-of-stream marker, so a clean end means every step was delivered.
// Close the hub first. A pump cuts a reader that makes no progress for
// the server's liveness (drainGrace without one); each credit restarts
// that count, so a slow reader that keeps up its credits is drained to
// its last step. Close with the hub still open is Abort.
//
// Close always returns nil: per-connection failures are consumer-side
// conditions (a crashed endpoint, a rejected claim) and must not fail
// the producer's shutdown. Inspect Err for diagnostics.
func (s *Server) Close() error {
	if !s.hub.Closed() {
		s.Abort()
		return nil
	}
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.drainAt.Store(time.Now().UnixNano())
	}
	s.mu.Unlock()
	s.ln.Close()
	s.wg.Wait()
	return nil
}

// Abort tears the server down abruptly — no drain, no end-of-stream
// marker: live connections are hard-reset (linger zero where
// the transport allows) and every bound consumer is closed. It models
// a crashed process for chaos testing and powers forced relay
// restarts; downstream readers see a transport error and enter their
// retry path.
func (s *Server) Abort() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		for conn, cons := range s.conns {
			if tc, ok := conn.(*net.TCPConn); ok {
				tc.SetLinger(0) //nolint:errcheck // best effort: RST, not FIN
			}
			conn.Close() //nolint:errcheck
			if cons != nil {
				cons.Close()
			}
		}
	}
	s.mu.Unlock()
	s.ln.Close()
	s.wg.Wait()
}
