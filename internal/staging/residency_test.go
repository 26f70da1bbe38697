package staging

import (
	"errors"
	"io"
	"runtime"
	"testing"
	"time"

	"nekrs-sensei/internal/adios"
	"nekrs-sensei/internal/metrics"
)

// dataStep is a structure-free step of a fixed payload size, so the
// accountant's bytes count steps exactly (no bootstrap hold).
func dataStep(seq int) *adios.Step {
	return &adios.Step{Step: int64(seq), Time: float64(seq), Attrs: map[string]string{},
		Vars: []adios.Variable{adios.NewF64("array/p", []float64{float64(seq), 1, 2, 3})}}
}

var dataStepBytes = dataStep(0).Bytes()

// spinUntil polls cond, yielding between polls — never sleeping — and
// fails the test if it does not hold within the deadline.
func spinUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// blockedPublish starts the next Publish on its own goroutine and
// returns once the hub reports the producer waiting on consumer name's
// window — the publish was refused, not merely not yet attempted.
func blockedPublish(t *testing.T, h *Hub, name string, seq int) <-chan error {
	t.Helper()
	errc := make(chan error, 1)
	go func() { errc <- h.Publish(dataStep(seq)) }()
	spinUntil(t, "the producer blocks", func() bool {
		for _, c := range h.Stats() {
			if c.Name == name && c.Blocking {
				return true
			}
		}
		return false
	})
	return errc
}

// TestBlockWindowIsResidency: a block:N consumer holds exactly N steps
// in the hub however they are held — queued, delivered and unreleased,
// parked as a session's inflight step, or awaiting a reader's deferred
// credit — and releasing one reference admits exactly one publish.
func TestBlockWindowIsResidency(t *testing.T) {
	type holder struct {
		// attach subscribes consumer "c"; hold runs once depth steps
		// are published, takes the references that stay out and returns
		// how to give one back.
		attach  func(t *testing.T, h *Hub, depth int)
		hold    func(t *testing.T, h *Hub, depth int) (release func())
		cleanup func()
	}
	cases := map[string]func() *holder{
		"single consumer": func() *holder {
			var c *Consumer
			return &holder{
				attach: func(t *testing.T, h *Hub, depth int) {
					var err error
					if c, err = h.Subscribe("c", Block, depth); err != nil {
						t.Fatal(err)
					}
				},
				hold: func(t *testing.T, h *Hub, depth int) func() {
					ref, err := c.Next() // one delivered, depth-1 queued
					if err != nil {
						t.Fatal(err)
					}
					return ref.Release
				},
			}
		},
		"parked session holding inflight": func() *holder {
			var c *Consumer
			return &holder{
				attach: func(t *testing.T, h *Hub, depth int) {
					var err error
					if c, err = h.Subscribe("c", Block, depth); err != nil {
						t.Fatal(err)
					}
				},
				hold: func(t *testing.T, h *Hub, depth int) func() {
					ref, err := c.Next()
					if err != nil {
						t.Fatal(err)
					}
					if !h.parkConsumer(c, ref) {
						t.Fatal("consumer did not park")
					}
					return func() {
						// The reader comes back having missed the inflight step:
						// it is redelivered, and only its release frees the slot.
						h.resumeConsumer(c, 0)
						again, err := c.Next()
						if err != nil || again != ref {
							t.Errorf("resume redelivered %v (%v), want the parked inflight step", again, err)
							return
						}
						again.Release()
					}
				},
			}
		},
		"reader deferring its credit": func() *holder {
			var srv *Server
			var rd *adios.Reader
			hd := &holder{}
			hd.attach = func(t *testing.T, h *Hub, depth int) {
				var err error
				if srv, err = Serve(h, "127.0.0.1:0", nil); err != nil {
					t.Fatal(err)
				}
				rd, err = adios.OpenReaderWith(srv.Addr(), adios.ReaderOptions{
					Consumer: "c", Policy: "block", Depth: depth, DeferCredit: true})
				if err != nil {
					t.Fatal(err)
				}
			}
			hd.hold = func(t *testing.T, h *Hub, depth int) func() {
				// The relay's position: the frame has arrived, its credit
				// waits for the step to drain further down.
				if _, err := rd.BeginRawStep(); err != nil {
					t.Fatal(err)
				}
				return func() {
					if err := rd.Credit(0); err != nil {
						t.Error(err)
					}
				}
			}
			hd.cleanup = func() {
				rd.Close()
				srv.Close()
			}
			return hd
		},
	}
	for name, mk := range cases {
		for depth := 1; depth <= 3; depth++ {
			t.Run(name+"/depth="+string(rune('0'+depth)), func(t *testing.T) {
				acct := metrics.NewAccountant()
				h := NewHub(acct)
				hd := mk()
				hd.attach(t, h, depth)
				if hd.cleanup != nil {
					defer hd.cleanup()
				}
				for i := 0; i < depth; i++ { // a window's worth is admitted at once
					if err := h.Publish(dataStep(i)); err != nil {
						t.Fatal(err)
					}
				}
				release := hd.hold(t, h, depth)
				want := int64(depth) * dataStepBytes
				for round := 0; round < 2; round++ {
					errc := blockedPublish(t, h, "c", depth+round)
					if got := acct.CategoryInUse("staging-hub"); got != want {
						t.Fatalf("round %d: hub holds %d bytes with the producer blocked, want exactly %d steps = %d",
							round, got, depth, want)
					}
					if st := h.Stats()[0]; st.Resident != int64(depth) {
						t.Fatalf("round %d: Resident = %d, want %d", round, st.Resident, depth)
					}
					if round == 1 {
						h.Close() // the second refused publish ends with the hub
						if err := <-errc; !errors.Is(err, ErrClosed) {
							t.Fatalf("blocked publish after Close: %v, want ErrClosed", err)
						}
						break
					}
					release()
					if err := <-errc; err != nil {
						t.Fatalf("publish after one release: %v", err)
					}
				}
				if st := h.Stats()[0]; st.BlockedNs <= 0 {
					t.Errorf("BlockedNs = %d after two refused publishes", st.BlockedNs)
				}
			})
		}
	}
}

// TestDepthOneRendezvous: block:1 is a rendezvous — one step in the
// hub at a time — and a thousand of them stream through the server to
// a reader and end cleanly: end-of-stream, nothing left accounted, no
// goroutine left behind.
func TestDepthOneRendezvous(t *testing.T) {
	const steps = 1000
	before := runtime.NumGoroutine()
	acct := metrics.NewAccountant()
	h := NewHub(acct)
	srv, err := Serve(h, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := adios.OpenReaderWith(srv.Addr(), adios.ReaderOptions{Consumer: "c", Policy: "block", Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	pubErr := make(chan error, 1)
	go func() {
		for i := 0; i < steps; i++ {
			if err := h.Publish(dataStep(i)); err != nil {
				pubErr <- err
				return
			}
			if got := acct.CategoryInUse("staging-hub"); got > dataStepBytes {
				pubErr <- errors.New("more than one step resident under block:1")
				return
			}
		}
		pubErr <- h.Close()
	}()
	for i := 0; i < steps; i++ {
		st, err := rd.BeginStep()
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if st.Step != int64(i) {
			t.Fatalf("step %d arrived as %d", i, st.Step)
		}
		rd.Recycle(st)
	}
	if _, err := rd.BeginStep(); !errors.Is(err, io.EOF) {
		t.Fatalf("after the last step: %v, want io.EOF", err)
	}
	if err := <-pubErr; err != nil {
		t.Fatal(err)
	}
	rd.Close()
	srv.Close()
	if got := acct.CategoryInUse("staging-hub"); got != 0 {
		t.Errorf("%d bytes still accounted after end-of-stream", got)
	}
	spinUntil(t, "every goroutine the stream started has exited", func() bool {
		return runtime.NumGoroutine() <= before
	})
}
