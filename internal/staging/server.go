package staging

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
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

// minPoll floors a liveness poll (awaitCredit) and a heartbeat period:
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

	mu     sync.Mutex
	conns  map[net.Conn]*Consumer // nil until the handshake binds one
	err    error
	closed bool
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
		s.subscribe = NewBinder(hub, Block, 0).Resolve
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
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if !closed {
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
	req := SubscribeRequest{
		Name: h.Consumer, Policy: h.Policy, Depth: h.Depth,
		Arrays: h.Arrays, Codecs: h.Codecs,
		Session: h.Session, NewSession: h.NewSession, Resume: h.Resume,
		SessionTTL: seconds(h.SessionTTL),
	}
	// Bind before replying so a failed subscription is rejected in the
	// handshake.
	sub, err := s.subscribe(req)
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
	conn.SetReadDeadline(time.Time{}) //nolint:errcheck // handshake done; pump manages its own deadlines
	s.mu.Lock()
	closed := s.closed
	if !closed {
		s.conns[conn] = cons
	}
	s.mu.Unlock()
	if closed && !s.hub.Closed() {
		// The server closed, hub still open, between handshake and pump
		// start — after Close walked the connections, so nobody closed
		// this consumer: hand the reader an empty-but-clean stream
		// instead of a dropped connection.
		var eos [8]byte
		conn.Write(eos[:]) //nolint:errcheck // best-effort EOS
		return
	}
	// A server closed after its hub drains like any other (see Close):
	// the pump below delivers what the consumer still holds and ends at
	// the hub's end-of-stream. Close waits for it, and bounded it with
	// the deadline it set on every accepted connection.

	bw := bufio.NewWriterSize(conn, 1<<16)
	// Connection-scoped scratch: the length prefix and credit byte are
	// stack arrays reused for every step of the pump.
	var lenBuf [8]byte
	for {
		ref, err := cons.NextTimeout(heartbeat)
		if IsNextTimeout(err) {
			// Idle stream: prove liveness without touching the frame
			// sequence. A reader that vanished surfaces here as a write
			// error instead of a silent forever-blocked Next.
			binary.LittleEndian.PutUint64(lenBuf[:], adios.HeartbeatMarker)
			if _, werr := bw.Write(lenBuf[:]); werr != nil {
				parkOr(nil, werr)
				return
			}
			if werr := bw.Flush(); werr != nil {
				parkOr(nil, werr)
				return
			}
			continue
		}
		if errors.Is(err, io.EOF) {
			binary.LittleEndian.PutUint64(lenBuf[:], 0)
			bw.Write(lenBuf[:]) //nolint:errcheck // best-effort EOS
			bw.Flush()          //nolint:errcheck
			return
		}
		if err != nil {
			// Consumer closed under us (server shutdown with the hub
			// still open, or a forced detach). The stream is truncated
			// but the connection is healthy, so propagate a clean
			// end-of-stream: the reader — possibly a downstream relay
			// with its own subscribers — finishes with io.EOF instead of
			// surfacing a raw connection error to its whole subtree.
			binary.LittleEndian.PutUint64(lenBuf[:], 0)
			bw.Write(lenBuf[:]) //nolint:errcheck // best-effort EOS
			bw.Flush()          //nolint:errcheck
			return
		}
		frame := ref.Frame()
		cons.addWireBytes(int64(len(frame)))
		binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(frame)))
		if _, err := bw.Write(lenBuf[:]); err != nil {
			parkOr(ref, err)
			return
		}
		if _, err := bw.Write(frame); err != nil {
			parkOr(ref, err)
			return
		}
		if err := bw.Flush(); err != nil {
			parkOr(ref, err)
			return
		}
		// Reader-driven flow control: hold this step's reference until
		// the consumer returns its credit, so a slow endpoint shows up
		// as staged-byte growth on the hub.
		if err := awaitCredit(conn, credits, s.liveness); err != nil {
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

// errConsumerSilent marks a consumer liveness timeout — a sentinel so
// the pump can journal the heartbeat miss distinctly from ordinary
// connection failures.
var errConsumerSilent = errors.New("consumer liveness timeout")

// awaitCredit blocks for one step credit, skipping keepalive bytes.
// With liveness > 0 the wait is bounded: the connection's read
// deadline polls at liveness/3 so a genuinely dead reader (no credit,
// no keepalives) is detected within roughly the liveness window.
func awaitCredit(conn net.Conn, credits io.Reader, liveness time.Duration) error {
	var b [1]byte
	for {
		if liveness > 0 {
			interval := max(liveness/3, minPoll)
			deadline := time.Now().Add(liveness)
			for {
				conn.SetReadDeadline(time.Now().Add(interval)) //nolint:errcheck // best effort
				_, err := io.ReadFull(credits, b[:])
				if err == nil {
					break
				}
				var ne net.Error
				if errors.As(err, &ne) && ne.Timeout() {
					if time.Now().After(deadline) {
						conn.SetReadDeadline(time.Time{}) //nolint:errcheck
						return fmt.Errorf("%w after %v", errConsumerSilent, liveness)
					}
					continue
				}
				conn.SetReadDeadline(time.Time{}) //nolint:errcheck
				return err
			}
			conn.SetReadDeadline(time.Time{}) //nolint:errcheck
		} else if _, err := io.ReadFull(credits, b[:]); err != nil {
			return err
		}
		if b[0] == adios.CreditKeepalive {
			continue // proof of life, not a step credit
		}
		return nil
	}
}

// Close stops accepting, nudges stuck connections with a deadline,
// and waits for every pump to finish. Close the hub first: pumps then
// drain their consumers' remaining steps and exit through the
// end-of-stream path — a pump that has only just completed its
// handshake included. If the hub is still open, consumers are closed
// forcibly instead (undelivered steps are returned to the hub) — but
// their readers still receive a clean end-of-stream marker, so an
// abrupt producer-side shutdown surfaces downstream as io.EOF, never
// as a raw connection error.
//
// Close always returns nil: per-connection failures are consumer-side
// conditions (a crashed endpoint, a rejected claim) and must not fail
// the producer's shutdown. Inspect Err for diagnostics.
func (s *Server) Close() error {
	hubClosed := s.hub.Closed()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	for conn, cons := range s.conns {
		// Bound the drain: a client that stops returning credits
		// cannot hold the pump (and us) forever.
		conn.SetDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck // best effort
		if cons != nil && !hubClosed {
			cons.Close() // a pump blocked in Next exits immediately
		}
	}
	s.mu.Unlock()
	s.ln.Close()
	s.wg.Wait()
	return nil
}

// Abort tears the server down abruptly — no drain deadline, no clean
// end-of-stream: live connections are hard-reset (linger zero where
// the transport allows) and every bound consumer is closed. It models
// a crashed process for chaos testing and powers forced relay
// restarts; downstream readers see a transport error and enter their
// retry path.
func (s *Server) Abort() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
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
	s.mu.Unlock()
	s.ln.Close()
	s.wg.Wait()
}
