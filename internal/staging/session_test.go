package staging

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"nekrs-sensei/internal/adios"
	"nekrs-sensei/internal/faultnet"
)

// sessionEnv is one claim-conflict scenario's fixture: a hub, a
// session-enabled binder, and (after setup) the first connection's
// subscription + token.
type sessionEnv struct {
	h   *Hub
	b   *Binder
	sub *Subscription
	tok string
}

func (e *sessionEnv) bind(t *testing.T, name string) {
	t.Helper()
	sub, err := e.b.Resolve(SubscribeRequest{
		Name: name, Policy: "block", Depth: 2, NewSession: true,
	})
	if err != nil {
		t.Fatalf("bind %q: %v", name, err)
	}
	if sub.Session == "" || sub.Park == nil {
		t.Fatalf("bind %q: no session issued (sub=%+v)", name, sub)
	}
	e.sub, e.tok = sub, sub.Session
}

func (e *sessionEnv) park(t *testing.T) {
	t.Helper()
	if !e.sub.Park(nil) {
		t.Fatal("Park refused: binder did not take ownership")
	}
	if !e.sub.Cons.Stats().Parked {
		t.Fatal("consumer not parked after Park")
	}
}

// TestSessionClaimConflicts is the table of handshake outcomes around
// session tokens: resume, adoption, transient still-attached
// rejections, and permanent unknown-token rejections.
func TestSessionClaimConflicts(t *testing.T) {
	cases := []struct {
		name    string
		setup   func(t *testing.T, e *sessionEnv)
		req     func(e *sessionEnv) SubscribeRequest
		wantErr string // substring of the rejection; "" = must succeed
		check   func(t *testing.T, e *sessionEnv, sub *Subscription)
	}{
		{
			name: "fresh request issues a token",
			req: func(e *sessionEnv) SubscribeRequest {
				return SubscribeRequest{Name: "solo", NewSession: true}
			},
			check: func(t *testing.T, e *sessionEnv, sub *Subscription) {
				if sub.Session == "" || sub.Park == nil {
					t.Errorf("no session issued: %+v", sub)
				}
			},
		},
		{
			name:    "unknown token is rejected permanently",
			req:     func(e *sessionEnv) SubscribeRequest { return SubscribeRequest{Session: "sess-0-999"} },
			wantErr: adios.ReasonUnknownSession,
		},
		{
			name:  "token of a live connection backs off",
			setup: func(t *testing.T, e *sessionEnv) { e.bind(t, "solo") },
			req: func(e *sessionEnv) SubscribeRequest {
				return SubscribeRequest{Session: e.tok}
			},
			wantErr: adios.ReasonStillAttached,
		},
		{
			name:  "new session under a live name backs off",
			setup: func(t *testing.T, e *sessionEnv) { e.bind(t, "solo") },
			req: func(e *sessionEnv) SubscribeRequest {
				return SubscribeRequest{Name: "solo", NewSession: true}
			},
			wantErr: adios.ReasonStillAttached,
		},
		{
			name: "token resumes its parked consumer",
			setup: func(t *testing.T, e *sessionEnv) {
				e.bind(t, "solo")
				e.park(t)
			},
			req: func(e *sessionEnv) SubscribeRequest {
				return SubscribeRequest{Session: e.tok}
			},
			check: func(t *testing.T, e *sessionEnv, sub *Subscription) {
				if sub.Cons != e.sub.Cons {
					t.Error("resume returned a different consumer")
				}
				if sub.Session != e.tok {
					t.Errorf("resume rotated the token: %q -> %q", e.tok, sub.Session)
				}
				if sub.Cons.Stats().Parked {
					t.Error("consumer still parked after resume")
				}
			},
		},
		{
			name: "same-name request adopts the parked session",
			setup: func(t *testing.T, e *sessionEnv) {
				e.bind(t, "solo")
				e.park(t)
			},
			req: func(e *sessionEnv) SubscribeRequest {
				return SubscribeRequest{Name: "solo", NewSession: true}
			},
			check: func(t *testing.T, e *sessionEnv, sub *Subscription) {
				if sub.Cons != e.sub.Cons {
					t.Error("adoption returned a different consumer (lost the cursor)")
				}
				if sub.Session == "" || sub.Session == e.tok {
					t.Errorf("adoption must rotate the token, got %q (old %q)", sub.Session, e.tok)
				}
			},
		},
		{
			name: "old token is dead after adoption",
			setup: func(t *testing.T, e *sessionEnv) {
				e.bind(t, "solo")
				e.park(t)
				if _, err := e.b.Resolve(SubscribeRequest{Name: "solo", NewSession: true}); err != nil {
					t.Fatalf("adopt: %v", err)
				}
			},
			req: func(e *sessionEnv) SubscribeRequest {
				return SubscribeRequest{Session: e.tok}
			},
			wantErr: adios.ReasonUnknownSession,
		},
		{
			// A replacement relay in the same process (or a restart
			// that reuses the pid) must not hand a reader the token a
			// dead hub gave another: presented by the reader it used to
			// belong to, that token would name someone else's live
			// session and back off until the grace TTL ran out.
			name: "token a replaced hub issued is unknown to its successor",
			setup: func(t *testing.T, e *sessionEnv) {
				old := &sessionEnv{h: NewHub(nil)}
				defer old.h.Close()
				old.b = NewBinder(old.h)
				old.bind(t, "leaf-a")
				stale := old.tok
				e.bind(t, "leaf-b")
				e.tok = stale
			},
			req: func(e *sessionEnv) SubscribeRequest {
				return SubscribeRequest{Name: "leaf-a", Session: e.tok}
			},
			wantErr: adios.ReasonUnknownSession,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := &sessionEnv{h: NewHub(nil)}
			defer e.h.Close()
			e.b = NewBinder(e.h)
			if tc.setup != nil {
				tc.setup(t, e)
			}
			sub, err := e.b.Resolve(tc.req(e))
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if tc.check != nil {
				tc.check(t, e, sub)
			}
		})
	}
}

// TestSessionTTL is the table of grace-period outcomes: expiry closes
// the parked consumer and invalidates the token, a resume before
// expiry disarms the timer, and Shutdown discards everything at once.
func TestSessionTTL(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, e *sessionEnv)
	}{
		{
			name: "expiry closes the consumer and invalidates the token",
			run: func(t *testing.T, e *sessionEnv) {
				e.park(t)
				waitFor(t, func() bool { return e.sub.Cons.IsClosed() })
				if _, err := e.b.Resolve(SubscribeRequest{Session: e.tok}); err == nil ||
					!strings.Contains(err.Error(), adios.ReasonUnknownSession) {
					t.Fatalf("expired token: err = %v, want %q", err, adios.ReasonUnknownSession)
				}
				// The name is reusable through the classic path.
				if _, err := e.b.Resolve(SubscribeRequest{Name: "solo", NewSession: true}); err != nil {
					t.Fatalf("rebind after expiry: %v", err)
				}
			},
		},
		{
			name: "resume before expiry disarms the grace timer",
			run: func(t *testing.T, e *sessionEnv) {
				e.park(t)
				sub, err := e.b.Resolve(SubscribeRequest{Session: e.tok})
				if err != nil {
					t.Fatal(err)
				}
				// Outlive the original TTL: the consumer must stay open.
				time.Sleep(120 * time.Millisecond)
				if sub.Cons.IsClosed() {
					t.Fatal("grace timer fired after resume")
				}
			},
		},
		{
			name: "a hello asking for an hour's park is clamped to the hub's TTL",
			run: func(t *testing.T, e *sessionEnv) {
				e.sub.Cons.Close() // leave "greedy" the only window the producer waits on
				sub, err := e.b.Resolve(SubscribeRequest{
					Name: "greedy", Policy: "block", Depth: 1, NewSession: true, SessionTTL: time.Hour,
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := e.h.Publish(dataStep(0)); err != nil {
					t.Fatal(err)
				}
				errc := blockedPublish(t, e.h, "greedy", 1)
				e.sub = sub
				e.park(t) // the reader dies holding its one-step window
				select {
				case err := <-errc:
					if err != nil {
						t.Fatal(err)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("a dead reader's hour-long park still holds the producer past the hub's 40ms TTL")
				}
				if !sub.Cons.IsClosed() {
					t.Fatal("producer released but the parked consumer is still open")
				}
			},
		},
		{
			name: "shutdown discards parked sessions immediately",
			run: func(t *testing.T, e *sessionEnv) {
				e.park(t)
				e.b.Shutdown()
				if !e.sub.Cons.IsClosed() {
					t.Fatal("parked consumer survived Shutdown")
				}
				if _, err := e.b.Resolve(SubscribeRequest{Session: e.tok}); err == nil {
					t.Fatal("token survived Shutdown")
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := &sessionEnv{h: NewHub(nil)}
			defer e.h.Close()
			e.b = NewBinder(e.h)
			e.b.sessTTL = 40 * time.Millisecond
			e.bind(t, "solo")
			tc.run(t, e)
		})
	}
}

// TestSessionResumeFloor: a resumed connection's announced Resume
// ordinal settles the parked in-flight step — delivered again when the
// reader never acked it, suppressed when the ack made it out before
// the cut.
func TestSessionResumeFloor(t *testing.T) {
	h := NewHub(nil)
	defer h.Close()
	b := NewBinder(h)
	e := &sessionEnv{h: h, b: b}
	e.bind(t, "solo")
	cons := e.sub.Cons

	// Non-structure steps only: resume never suppresses a structure
	// step (late subscribers need it), so the suppression rule is
	// exercised on plain data steps. Two steps fit the depth-2 queue.
	for i := 1; i <= 2; i++ {
		if err := h.Publish(mkStep(i)); err != nil {
			t.Fatal(err)
		}
	}
	// The pump pulled step 1 and died before the credit came back.
	ref, err := cons.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !e.sub.Park(ref) {
		t.Fatal("park refused")
	}

	// Reader acked nothing (Resume 0): step 1 is redelivered.
	sub, err := b.Resolve(SubscribeRequest{Session: e.tok, Resume: 0})
	if err != nil {
		t.Fatal(err)
	}
	ref, err = sub.Cons.Next()
	if err != nil {
		t.Fatal(err)
	}
	if got := ref.SimStep(); got != 1 {
		t.Fatalf("redelivered step %d, want 1", got)
	}
	if !sub.Park(ref) {
		t.Fatal("second park refused")
	}

	// Reader acked through step 1 (Resume 2): the parked in-flight step
	// is suppressed and delivery continues at 2.
	sub, err = b.Resolve(SubscribeRequest{Session: e.tok, Resume: 2})
	if err != nil {
		t.Fatal(err)
	}
	ref, err = sub.Cons.Next()
	if err != nil {
		t.Fatal(err)
	}
	if got := ref.SimStep(); got != 2 {
		t.Fatalf("post-resume step %d, want 2 (suppression failed)", got)
	}
	ref.Release()
	if got := sub.Cons.Stats().Suppressed; got != 1 {
		t.Errorf("suppressed = %d, want 1", got)
	}
}

// TestSessionAdoptRedeliversBootstrap: adopting a parked session from
// a NEW process must redeliver the retained structure step before any
// data — the grid died with the old process — while a token resume
// (same process, decoder state intact) must not replay it.
func TestSessionAdoptRedeliversBootstrap(t *testing.T) {
	h := NewHub(nil)
	defer h.Close()
	b := NewBinder(h)
	e := &sessionEnv{h: h, b: b}
	e.bind(t, "solo")
	cons := e.sub.Cons

	// The first connection consumed structure + step 1, pulled step 2,
	// and died before the credit came back. (Publish and consume in
	// turn: the fixture's block window holds two steps.)
	for want := int64(0); want <= 1; want++ { // 0 carries the structure marker
		if err := h.Publish(mkStep(int(want))); err != nil {
			t.Fatal(err)
		}
		ref, err := cons.Next()
		if err != nil {
			t.Fatal(err)
		}
		if got := ref.SimStep(); got != want {
			t.Fatalf("pre-crash step %d, want %d", got, want)
		}
		ref.Release()
	}
	if err := h.Publish(mkStep(2)); err != nil {
		t.Fatal(err)
	}
	inflight, err := cons.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !e.sub.Park(inflight) {
		t.Fatal("park refused")
	}

	// Token resume — the same process reconnecting: the in-flight data
	// step comes straight back, no structure replay.
	sub, err := b.Resolve(SubscribeRequest{Session: e.tok, Resume: 2})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sub.Cons.Next()
	if err != nil {
		t.Fatal(err)
	}
	if got := ref.SimStep(); got != 2 || ref.isStructure() {
		t.Fatalf("token resume delivered step %d (structure=%v), want data step 2",
			got, ref.isStructure())
	}
	if !sub.Park(ref) {
		t.Fatal("second park refused")
	}

	// Adoption — a restarted process without the token: the structure
	// bootstrap must precede the redelivered in-flight step.
	sub, err = b.Resolve(SubscribeRequest{Name: "solo", NewSession: true, Resume: 2})
	if err != nil {
		t.Fatal(err)
	}
	ref, err = sub.Cons.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !ref.isStructure() {
		t.Fatalf("adoption delivered step %d first, want the structure bootstrap", ref.SimStep())
	}
	ref.Release()
	ref, err = sub.Cons.Next()
	if err != nil {
		t.Fatal(err)
	}
	if got := ref.SimStep(); got != 2 {
		t.Fatalf("post-bootstrap step %d, want the in-flight step 2", got)
	}
	ref.Release()
}

// drainSteps pulls steps until EOF, recording their ordinals.
func drainSteps(r *adios.Reader, out *[]int64, errp *error, wg *sync.WaitGroup) {
	defer wg.Done()
	defer r.Close()
	for {
		s, err := r.BeginStep()
		if errors.Is(err, io.EOF) {
			return
		}
		if err != nil {
			*errp = err
			return
		}
		*out = append(*out, s.Step)
	}
}

// TestSessionResumeOverReset is the wire-level exactly-once test: a
// lossless consumer with a session — block, and spill through its disk
// tier — streams through a fault-injected proxy whose connections are
// hard-reset mid-run — twice — and must still receive every published
// step exactly once, in order.
func TestSessionResumeOverReset(t *testing.T) {
	for _, policy := range []Policy{Block, Spill} {
		t.Run(policy.String(), func(t *testing.T) {
			stores := map[string]*memSpillStore{}
			h := hubWithSpill(stores)
			b := NewBinder(h)
			srv, err := ServeWith(h, "127.0.0.1:0", b.Resolve, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			profile := faultnet.NewProfile()
			px, err := faultnet.NewProxy("127.0.0.1:0", srv.Addr(), profile)
			if err != nil {
				t.Fatal(err)
			}
			defer px.Close()

			r, err := adios.OpenReaderWith(px.Addr(), adios.ReaderOptions{
				Consumer: "sess", Policy: policy.String(), Depth: 2,
				SessionTTL:      10 * time.Second,
				Retry:           50,
				LivenessTimeout: time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			var got []int64
			var rerr error
			var wg sync.WaitGroup
			wg.Add(1)
			go drainSteps(r, &got, &rerr, &wg)

			const steps = 30
			for i := 0; i < steps; i++ {
				if err := h.Publish(mkStep(i)); err != nil {
					t.Fatal(err)
				}
				if i == steps/3 || i == 2*steps/3 {
					profile.ResetAll() // link cut mid-run
				}
				time.Sleep(2 * time.Millisecond)
			}
			h.Close()
			wg.Wait()

			if rerr != nil {
				t.Fatalf("reader error: %v", rerr)
			}
			if len(got) != steps {
				t.Fatalf("received %d steps, want %d: %v", len(got), steps, got)
			}
			for i, s := range got {
				if s != int64(i) {
					t.Fatalf("steps not exactly-once in order: %v", got)
				}
			}
			if r.Reconnects() == 0 {
				t.Error("no reconnects recorded; the fault injection never fired")
			}
			if st := stores["sess"]; st != nil {
				st.mu.Lock()
				t.Logf("spill tier took %d of %d steps while the link was down", len(st.frames), steps)
				st.mu.Unlock()
			}
		})
	}
}

// TestSessionCodecKeyframeRestart runs the exactly-once scenario on a
// transpose-delta stream: the reconnect gives the reader a fresh
// decoder, and since every coded frame decodes alone, every delivered
// payload — the redelivered in-flight step included — still decodes
// bit-exact.
func TestSessionCodecKeyframeRestart(t *testing.T) {
	const n, steps = 256, 30
	h := NewHub(nil)
	b := NewBinder(h)
	srv, err := ServeWith(h, "127.0.0.1:0", b.Resolve, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	profile := faultnet.NewProfile()
	px, err := faultnet.NewProxy("127.0.0.1:0", srv.Addr(), profile)
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()

	r, err := adios.OpenReaderWith(px.Addr(), adios.ReaderOptions{
		Consumer: "sess", Policy: "block", Depth: 2,
		Codecs:          []string{"transpose-delta"},
		SessionTTL:      10 * time.Second,
		Retry:           50,
		LivenessTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	var rerr error
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer r.Close()
		for {
			s, err := r.BeginStep()
			if errors.Is(err, io.EOF) {
				return
			}
			if err != nil {
				rerr = err
				return
			}
			// Bit-exact across the reconnects.
			checkCodecStep(t, s, n, 0)
			mu.Lock()
			got = append(got, s.Step)
			mu.Unlock()
		}
	}()

	for i := 0; i < steps; i++ {
		if err := h.Publish(mkCodecStep(i, n)); err != nil {
			t.Fatal(err)
		}
		if i == steps/2 {
			profile.ResetAll()
		}
		time.Sleep(2 * time.Millisecond)
	}
	h.Close()
	wg.Wait()

	if rerr != nil {
		t.Fatalf("reader error: %v", rerr)
	}
	if len(got) != steps {
		t.Fatalf("received %d steps, want %d: %v", len(got), steps, got)
	}
	for i, s := range got {
		if s != int64(i) {
			t.Fatalf("steps not exactly-once in order: %v", got)
		}
	}
}

// TestServerHandshakeTimeout: a connection that never sends its hello
// is cut loose after the handshake timeout (lowered here from its 10 s)
// instead of holding a serveConn goroutine forever.
func TestServerHandshakeTimeout(t *testing.T) {
	defer func(d time.Duration) { handshakeTimeout = d }(handshakeTimeout)
	handshakeTimeout = 100 * time.Millisecond
	h := NewHub(nil)
	defer h.Close()
	srv, err := ServeWith(h, "127.0.0.1:0", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	buf := make([]byte, 1)
	start := time.Now()
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server replied to an empty hello")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("mute connection held %v, want the ~100ms handshake timeout", elapsed)
	}
}

// TestServerRejectsGroupHello: hub consumer groups are gone, and a peer
// built before that — its hello still announces a group and names no
// frame format — is refused in the handshake by the format it lacks
// instead of being served as a plain consumer.
func TestServerRejectsGroupHello(t *testing.T) {
	refuseHello(t, `{"type":"hello","role":"reader","consumer":"ep","group":2}`, `""`)
}

// TestServerRefusesOtherFrameFormats: a reader hello naming a frame
// format other than this build's is refused in the handshake, the reply
// naming both formats, and subscribes nothing.
func TestServerRefusesOtherFrameFormats(t *testing.T) {
	refuseHello(t, `{"type":"hello","role":"reader","consumer":"ep","marshal":"bp05"}`, `"bp05"`)
}

// refuseHello sends hello to a fresh hub's server and requires a
// rejection naming format (as quoted in the reply) and this build's
// frame format, with no consumer left subscribed.
func refuseHello(t *testing.T, hello, format string) {
	t.Helper()
	h := NewHub(nil)
	defer h.Close()
	srv, err := Serve(h, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	if _, err := io.WriteString(conn, hello+"\n"); err != nil {
		t.Fatal(err)
	}
	var reply adios.Hello
	if err := json.NewDecoder(conn).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	if reply.Role != "rejected" || !strings.Contains(reply.Error, "frame format "+format) ||
		!strings.Contains(reply.Error, `"`+adios.FrameFormat+`"`) {
		t.Fatalf("hello %s: reply = %+v, want a rejection naming %s and %q", hello, reply, format, adios.FrameFormat)
	}
	if n := h.ActiveConsumers(); n != 0 {
		t.Fatalf("the rejected hello left %d consumer(s) subscribed", n)
	}
}

// TestHeartbeatKeepsIdleStreamAlive: with the producer heartbeating,
// a liveness-checking reader survives an idle stretch many times its
// timeout, then still receives the next real step. Without heartbeats
// the same reader declares the producer hung in bounded time.
func TestHeartbeatKeepsIdleStreamAlive(t *testing.T) {
	h := NewHub(nil)
	srv, err := ServeWith(h, "127.0.0.1:0", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	r, err := adios.OpenReaderWith(srv.Addr(), adios.ReaderOptions{
		Consumer: "idle", Policy: "block", Depth: 2,
		LivenessTimeout: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	waitFor(t, func() bool {
		h.mu.Lock()
		defer h.mu.Unlock()
		return len(h.consumers) == 1
	})

	got := make(chan error, 1)
	go func() {
		_, err := r.BeginStep() // idles across many liveness windows
		got <- err
	}()
	time.Sleep(600 * time.Millisecond) // 4x the liveness timeout, heartbeats only
	if err := h.Publish(mkStep(0)); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("idle-but-heartbeating stream died: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("step never arrived")
	}
	h.Close()
}

// TestLivenessDetectsHungProducer: the reader's liveness timeout turns
// a silent (blackholed) producer into a bounded-time error instead of
// an eternal block.
func TestLivenessDetectsHungProducer(t *testing.T) {
	h := NewHub(nil)
	defer h.Close()
	srv, err := ServeWith(h, "127.0.0.1:0", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	profile := faultnet.NewProfile()
	px, err := faultnet.NewProxy("127.0.0.1:0", srv.Addr(), profile)
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	r, err := adios.OpenReaderWith(px.Addr(), adios.ReaderOptions{
		Consumer: "watch", Policy: "block", Depth: 2,
		LivenessTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	profile.SetBlackhole(true) // partition: heartbeats stop arriving
	defer profile.SetBlackhole(false)
	got := make(chan error, 1)
	go func() {
		_, err := r.BeginStep()
		got <- err
	}()
	select {
	case err := <-got:
		if err == nil || !strings.Contains(err.Error(), "liveness") {
			t.Fatalf("err = %v, want a liveness timeout", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("reader blocked forever on a hung producer")
	}
}
