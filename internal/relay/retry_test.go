package relay

import (
	"errors"
	"io"
	"slices"
	"testing"
	"time"

	"nekrs-sensei/internal/faultnet"
	"nekrs-sensei/internal/staging"
)

// retryProducer is one producer rank for the retrying-relay tests: a
// hub behind a staging server whose binder grants resumable sessions,
// cutting a consumer silent for liveness (0: never).
func retryProducer(t *testing.T, liveness time.Duration) (*staging.Hub, *staging.Server) {
	t.Helper()
	hub := staging.NewHub(nil)
	srv, err := staging.ServeWith(hub, "127.0.0.1:0", staging.NewBinder(hub).Resolve, liveness)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return hub, srv
}

// drainLeaf reads an in-process consumer of a relay's output to the
// end of the stream, calling hold with each step before releasing it,
// and returns the step ordinals in delivery order.
func drainLeaf(t *testing.T, c *staging.Consumer, hold func(step int64)) []int64 {
	t.Helper()
	var got []int64
	for {
		ref, err := c.Next()
		if errors.Is(err, io.EOF) {
			return got
		}
		if err != nil {
			t.Fatalf("leaf: %v", err)
		}
		got = append(got, ref.SimStep())
		hold(ref.SimStep())
		ref.Release()
	}
}

// runRelay starts r.Run and returns its result channel.
func runRelay(r *Relay) <-chan error {
	run := make(chan error, 1)
	go func() { run <- r.Run() }()
	return run
}

// TestRetryRelayOutlivesSlowLeaf: a retrying relay holds each step's
// upstream credit until a slow leaf has released it, three liveness
// periods later. Its keepalives keep the liveness-bounded producer from
// cutting it meanwhile, and it reads nothing from upstream while it
// waits, so it never takes the producer for silent either: no
// reconnect, so no step is published twice.
func TestRetryRelayOutlivesSlowLeaf(t *testing.T) {
	const N = 5
	const liveness = 150 * time.Millisecond
	hub, srv := retryProducer(t, liveness)
	r, err := New([]string{srv.Addr()}, Options{Retry: 3, Liveness: liveness})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	leaf, err := r.Hub(0).Subscribe("leaf", staging.Block, 2)
	if err != nil {
		t.Fatal(err)
	}
	run := runRelay(r)
	published := publishScript(t, []*staging.Hub{hub}, N)

	got := drainLeaf(t, leaf, func(int64) { time.Sleep(3 * liveness) })
	if err := <-run; err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := <-published; err != nil {
		t.Fatal(err)
	}
	if want := []int64{0, 1, 2, 3, 4}; !slices.Equal(got, want) {
		t.Errorf("leaf saw steps %v, want %v once each", got, want)
	}
	st := r.Status()
	if st.UpstreamReconnects != 0 {
		t.Errorf("relay reconnected upstream %d times, want 0", st.UpstreamReconnects)
	}
	if st.CreditsSent != N || st.CreditsPending != 0 {
		t.Errorf("credits sent %d, pending %d; want %d and 0", st.CreditsSent, st.CreditsPending, N)
	}
	if err := srv.Err(); err != nil {
		t.Errorf("producer server: %v", err)
	}
}

// TestRetryRelayTrunkCutExactlyOnce: the trunk is cut while step 2's
// upstream credit is held back. The relay's raw reads tracked step 2,
// so its reconnect hello resumes at 3: the producer drops the parked
// in-flight step 2 instead of redelivering it, and the leaf sees every
// step exactly once.
func TestRetryRelayTrunkCutExactlyOnce(t *testing.T) {
	const N = 6
	hub, srv := retryProducer(t, 0)
	link := faultnet.NewProfile()
	px, err := faultnet.NewProxy("127.0.0.1:0", srv.Addr(), link)
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	r, err := New([]string{px.Addr()}, Options{Retry: 20})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	leaf, err := r.Hub(0).Subscribe("leaf", staging.Block, 2)
	if err != nil {
		t.Fatal(err)
	}
	run := runRelay(r)
	published := publishScript(t, []*staging.Hub{hub}, N)

	got := drainLeaf(t, leaf, func(step int64) {
		if step == 2 {
			link.ResetAll()
		}
	})
	if err := <-run; err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := <-published; err != nil {
		t.Fatal(err)
	}
	if want := []int64{0, 1, 2, 3, 4, 5}; !slices.Equal(got, want) {
		t.Errorf("leaf saw steps %v, want %v once each", got, want)
	}
	if n := r.Status().UpstreamReconnects; n < 1 {
		t.Errorf("relay reconnected upstream %d times, want the cut to force one", n)
	}
}
