package staging

// A reader's hello sets the resilience it gets: these producers are
// configured with none, and still grant the session and the heartbeats
// the reader asks for.

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"nekrs-sensei/internal/adios"
	"nekrs-sensei/internal/faultnet"
	"nekrs-sensei/internal/sensei"
)

// TestSessionNeedsNoProducerConfig: a Session+Retry reader, cut twice,
// of a producer whose XML names no session receives every step exactly
// once, in order, each byte-identical to an uncut run's — on a direct
// stream and on a pre-declared staging consumer alike.
func TestSessionNeedsNoProducerConfig(t *testing.T) {
	const steps = 30
	for _, tc := range []struct {
		typ   string
		attrs map[string]string
	}{
		{"adios", nil},
		{"staging", map[string]string{"consumers": "ep:block:2"}},
	} {
		t.Run(tc.typ, func(t *testing.T) {
			run := func(cut bool) [][]byte {
				a, err := sensei.NewAnalysisAdaptor(tc.typ, testCtx(t.TempDir()), tc.attrs)
				if err != nil {
					t.Fatal(err)
				}
				ad := a.(*Adaptor)
				profile := faultnet.NewProfile()
				px, err := faultnet.NewProxy("127.0.0.1:0", ad.Server().Addr(), profile)
				if err != nil {
					t.Fatal(err)
				}
				defer px.Close()
				r, err := adios.OpenReaderWith(px.Addr(), adios.ReaderOptions{
					Consumer: "ep", Retry: 50,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer r.Close()
				// Room for every step twice over: a reader that
				// duplicates fails the count below instead of stalling
				// the producer, which drains frames only after Finalize.
				frames, rerr := make(chan []byte, 2*steps), make(chan error, 1)
				go func() {
					defer close(frames)
					for {
						s, err := r.BeginStep()
						if err != nil {
							if !errors.Is(err, io.EOF) {
								rerr <- err
							}
							return
						}
						frames <- adios.Marshal(s)
					}
				}()
				// The block window paces the producer: each cut lands
				// with the reader mid-stream.
				for i := 0; i < steps; i++ {
					if err := ad.Hub().Publish(mkStep(i)); err != nil {
						t.Fatal(err)
					}
					if cut && (i == steps/3 || i == 2*steps/3) {
						profile.ResetAll()
					}
				}
				if err := ad.Finalize(); err != nil {
					t.Fatal(err)
				}
				var got [][]byte
				for f := range frames {
					got = append(got, f)
				}
				select {
				case err := <-rerr:
					t.Fatalf("reader (cut=%v): %v", cut, err)
				default:
				}
				if cut && r.Reconnects() == 0 {
					t.Error("no reconnects recorded; the fault injection never fired")
				}
				return got
			}
			want, got := run(false), run(true)
			if len(want) != steps || len(got) != steps {
				t.Fatalf("uncut run delivered %d steps, cut run %d, want %d each", len(want), len(got), steps)
			}
			for i := range want {
				if !bytes.Equal(want[i], got[i]) {
					t.Fatalf("step %d differs between the cut and the uncut run", i)
				}
			}
		})
	}
}

// TestLivenessAnnouncedInHello: a reader announcing a 150ms liveness
// outlives a producer, configured with no heartbeat, that stays idle
// for four times as long, and then receives the next step.
func TestLivenessAnnouncedInHello(t *testing.T) {
	h := NewHub(nil)
	defer h.Close()
	srv, err := Serve(h, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	r, err := adios.OpenReaderWith(srv.Addr(), adios.ReaderOptions{LivenessTimeout: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	waitFor(t, func() bool { return h.ActiveConsumers() == 1 })
	got := make(chan error, 1)
	go func() {
		_, err := r.BeginStep()
		got <- err
	}()
	select {
	case err := <-got:
		t.Fatalf("reader gave up on an idle producer: %v", err)
	case <-time.After(600 * time.Millisecond):
	}
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
}

// TestHeartbeatPeriod: a third of the shorter of liveness and session
// grace, floored at minPoll; nothing announced, no heartbeat.
func TestHeartbeatPeriod(t *testing.T) {
	for _, tc := range []struct{ liveness, ttl, want time.Duration }{
		{0, 0, 0},
		{150 * time.Millisecond, 0, 50 * time.Millisecond},
		{0, 30 * time.Second, 10 * time.Second},
		{3 * time.Second, 30 * time.Second, time.Second},
		{30 * time.Second, 3 * time.Second, time.Second},
		{time.Millisecond, 0, minPoll},
	} {
		if got := heartbeatPeriod(tc.liveness, tc.ttl); got != tc.want {
			t.Errorf("heartbeatPeriod(%v, %v) = %v, want %v", tc.liveness, tc.ttl, got, tc.want)
		}
	}
}

// TestAdaptorRefusesUnreadAttrs: an attribute the factory would not
// read is refused by name, and one a reader now sets points at the
// reader's hello or flag; the attributes any analysis element carries
// pass.
func TestAdaptorRefusesUnreadAttrs(t *testing.T) {
	for _, tc := range []struct {
		typ, key, want string
	}{
		{"staging", "polcy", `analysis type "staging" has no attribute "polcy"`},
		{"staging", "queue", `has no attribute "queue"`},
		{"adios", "consumers", `analysis type "adios" has no attribute "consumers"`},
		{"adios", "depth", `attribute "depth" is gone`},
		{"staging", "policy", `attribute "policy" is gone: a reader's hello picks its policy`},
		{"staging", "depth", `attribute "depth" is gone: a reader's hello picks its window`},
		{"staging", "codecs", `attribute "codecs" is gone: a reader's hello picks its codecs`},
		{"adios", "codecs", `attribute "codecs" is gone`},
		{"staging", "session-ttl", "-session-ttl"},
		{"adios", "session-ttl", "-retry"},
		{"staging", "heartbeat", "-liveness"},
		{"adios", "handshake-timeout", `"handshake-timeout" is gone`},
	} {
		_, err := sensei.NewAnalysisAdaptor(tc.typ, testCtx(t.TempDir()), map[string]string{tc.key: "1s"})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s %s=: err = %v, want one containing %q", tc.typ, tc.key, err, tc.want)
		}
	}
	for _, typ := range []string{"staging", "adios"} {
		a, err := sensei.NewAnalysisAdaptor(typ, testCtx(t.TempDir()), map[string]string{
			"type": typ, "enabled": "1", "frequency": "2", "maxerror": "1e-3", "liveness": "1s",
		})
		if err != nil {
			t.Fatalf("%s: %v", typ, err)
		}
		ad := a.(*Adaptor)
		ad.Hub().Close()
		ad.Server().Close()
	}
}
