package staging

// The direct stream — XML analysis type "adios" — is the hub with a
// closed consumer set. These tests drive it through the XML factory.

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"nekrs-sensei/internal/adios"
	"nekrs-sensei/internal/faultnet"
	"nekrs-sensei/internal/sensei"
)

func newDirect(t *testing.T, ctx *sensei.Context, attrs map[string]string) *Adaptor {
	t.Helper()
	a, err := sensei.NewAnalysisAdaptor("adios", ctx, attrs)
	if err != nil {
		t.Fatal(err)
	}
	return a.(*Adaptor)
}

// TestDirectBlocksAtQueue: with no reader attached the producer stages
// `queue` steps and blocks on the next; a reader attaching later gets
// every step from the first, then EOS, and the accountant returns to 0.
func TestDirectBlocksAtQueue(t *testing.T) {
	ctx := testCtx(t.TempDir())
	ad := newDirect(t, ctx, map[string]string{"queue": "3"})
	const steps = 7
	staged := make(chan int, steps)
	pubErr := make(chan error, 1)
	go func() {
		for i := 0; i < steps; i++ {
			if err := ad.Hub().Publish(mkStep(i)); err != nil {
				pubErr <- err
				return
			}
			staged <- i
		}
		pubErr <- ad.Finalize()
	}()
	for i := 0; i < 3; i++ {
		<-staged
	}
	select {
	case i := <-staged:
		t.Fatalf("step %d staged past queue=3 with no reader attached", i)
	case <-time.After(50 * time.Millisecond):
	}
	if ctx.Acct.CategoryInUse("staging-hub") == 0 {
		t.Error("staged steps not accounted")
	}

	r, err := adios.OpenReaderWith(ad.Server().Addr(), adios.ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	var rerr error
	var wg sync.WaitGroup
	wg.Add(1)
	go drainSteps(r, &got, &rerr, &wg)
	wg.Wait()
	if err := <-pubErr; err != nil {
		t.Fatal(err)
	}
	if rerr != nil {
		t.Fatal(rerr)
	}
	if len(got) != steps {
		t.Fatalf("received %v, want all %d steps", got, steps)
	}
	for i, s := range got {
		if s != int64(i) {
			t.Fatalf("steps out of order: %v", got)
		}
	}
	if n := ctx.Acct.CategoryInUse("staging-hub"); n != 0 {
		t.Errorf("staging-hub accounting after the stream = %d, want 0", n)
	}
}

// TestDirectCloseWait: a producer that finishes before any reader has
// attached waits in Finalize for one, for a bounded time.
func TestDirectCloseWait(t *testing.T) {
	t.Run("late reader gets every step and EOS", func(t *testing.T) {
		ctx := testCtx(t.TempDir())
		ad := newDirect(t, ctx, nil)
		for i := 0; i < 2; i++ { // <= queue: never blocks
			if err := ad.Hub().Publish(mkStep(i)); err != nil {
				t.Fatal(err)
			}
		}
		finalized := make(chan error, 1)
		go func() { finalized <- ad.Finalize() }()
		select {
		case err := <-finalized:
			t.Fatalf("Finalize returned (%v) without waiting for the reader", err)
		case <-time.After(100 * time.Millisecond):
		}
		r, err := adios.OpenReaderWith(ad.Server().Addr(), adios.ReaderOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var got []int64
		var rerr error
		var wg sync.WaitGroup
		wg.Add(1)
		go drainSteps(r, &got, &rerr, &wg)
		wg.Wait()
		if rerr != nil || len(got) != 2 || got[0] != 0 || got[1] != 1 {
			t.Errorf("late reader got %v, %v; want steps 0 and 1 then EOS", got, rerr)
		}
		if err := <-finalized; err != nil {
			t.Error(err)
		}
		if n := ctx.Acct.CategoryInUse("staging-hub"); n != 0 {
			t.Errorf("staging-hub accounting = %d, want 0", n)
		}
	})

	t.Run("no reader: bounded, staged steps released", func(t *testing.T) {
		ctx := testCtx(t.TempDir())
		ad := newDirect(t, ctx, nil)
		if ad.closeWait != 5*time.Second {
			t.Errorf("closeWait = %v, want the fixed 5s", ad.closeWait)
		}
		ad.closeWait = 150 * time.Millisecond
		for i := 0; i < 2; i++ {
			if err := ad.Hub().Publish(mkStep(i)); err != nil {
				t.Fatal(err)
			}
		}
		start := time.Now()
		if err := ad.Finalize(); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d < ad.closeWait || d > 2*time.Second {
			t.Errorf("Finalize took %v, want about the %v bound", d, ad.closeWait)
		}
		if n := ctx.Acct.CategoryInUse("staging-hub"); n != 0 {
			t.Errorf("staging-hub accounting = %d, want 0", n)
		}
	})

	t.Run("open set does not wait", func(t *testing.T) {
		a, err := sensei.NewAnalysisAdaptor("staging", testCtx(t.TempDir()),
			map[string]string{"consumers": "never:block:2"})
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if err := a.Finalize(); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("open-set Finalize took %v", d)
		}
	})
}

// TestDirectCodecNegotiation: codecs come from the hub on a direct
// stream too — the codec a reader's hello asks for compresses the wire
// and decodes bit-exact.
func TestDirectCodecNegotiation(t *testing.T) {
	const n, steps = 256, 6
	ad := newDirect(t, testCtx(t.TempDir()), nil)
	addr := ad.Server().Addr()
	r, err := adios.OpenReaderWith(addr, adios.ReaderOptions{Codecs: []string{"transpose-delta"}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	go func() {
		for i := 0; i < steps; i++ {
			ad.Hub().Publish(mkCodecStep(i, n)) //nolint:errcheck // a failure shows as a short stream
		}
		ad.Finalize() //nolint:errcheck
	}()
	for i := 0; i < steps; i++ {
		s, err := r.BeginStep()
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		checkCodecStep(t, s, n, 0)
	}
	if _, err := r.BeginStep(); !errors.Is(err, io.EOF) {
		t.Errorf("want EOF, got %v", err)
	}
	if cs := ad.Hub().Status().CodecStreams; len(cs) != 1 || !(cs[0].Ratio < 1) {
		t.Errorf("codec streams = %+v, want one that compressed", cs)
	}
}

// TestDirectSessionResumeOverCut: resilience on a direct stream is the
// hub's session park/resume. The connection is cut mid-stream, twice;
// the resilient reader resumes and receives every step exactly once, in
// order, each byte-identical to what an uncut run delivers.
func TestDirectSessionResumeOverCut(t *testing.T) {
	const steps = 30
	run := func(cut bool) [][]byte {
		ad := newDirect(t, testCtx(t.TempDir()), map[string]string{
			"liveness": "1s",
		})
		profile := faultnet.NewProfile()
		px, err := faultnet.NewProxy("127.0.0.1:0", ad.Server().Addr(), profile)
		if err != nil {
			t.Fatal(err)
		}
		defer px.Close()
		r, err := adios.OpenReaderWith(px.Addr(), adios.ReaderOptions{
			SessionTTL:      10 * time.Second,
			Retry:           50,
			LivenessTimeout: time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		var frames [][]byte
		var rerr error
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				s, err := r.BeginStep()
				if err != nil {
					if !errors.Is(err, io.EOF) {
						rerr = err
					}
					return
				}
				frames = append(frames, adios.Marshal(s))
			}
		}()
		for i := 0; i < steps; i++ {
			if err := ad.Hub().Publish(mkStep(i)); err != nil {
				t.Fatal(err)
			}
			if cut && (i == steps/3 || i == 2*steps/3) {
				profile.ResetAll()
			}
			time.Sleep(2 * time.Millisecond)
		}
		if err := ad.Finalize(); err != nil {
			t.Fatal(err)
		}
		<-done
		if rerr != nil {
			t.Fatalf("reader (cut=%v): %v", cut, rerr)
		}
		if cut && r.Reconnects() == 0 {
			t.Error("no reconnects recorded; the fault injection never fired")
		}
		return frames
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
}

// TestDirectSessionAdoptedByReplacement: a killed endpoint's successor
// has no token, only a session request. On a direct stream it adopts
// the parked session — the closed set's one consumer is the only one it
// could mean — gets the structure step again, and continues where the
// dead process stopped.
func TestDirectSessionAdoptedByReplacement(t *testing.T) {
	const steps = 12
	ad := newDirect(t, testCtx(t.TempDir()), nil)
	addr := ad.Server().Addr()
	go func() {
		for i := 0; i < steps; i++ {
			ad.Hub().Publish(mkStep(i)) //nolint:errcheck // a failure shows as a short stream
		}
		ad.Finalize() //nolint:errcheck
	}()
	first, err := adios.OpenReaderWith(addr, adios.ReaderOptions{Retry: 1})
	if err != nil {
		t.Fatal(err)
	}
	var last int64
	for i := 0; i < 4; i++ {
		s, err := first.BeginStep()
		if err != nil {
			t.Fatal(err)
		}
		last = s.Step
	}
	first.Close() // the process dies; its token dies with it

	second, err := adios.OpenReaderWith(addr, adios.ReaderOptions{
		Retry: 50,
	})
	if err != nil {
		t.Fatalf("replacement: %v", err)
	}
	defer second.Close()
	s, err := second.BeginStep()
	if err != nil || s.Attrs["structure"] != "1" {
		t.Fatalf("replacement's first step = %+v, %v; want the structure step again", s, err)
	}
	for want := last + 1; ; want++ {
		s, err := second.BeginStep()
		if errors.Is(err, io.EOF) {
			if want != steps {
				t.Errorf("stream ended before step %d of %d", want, steps)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if s.Step != want {
			t.Fatalf("replacement got step %d, want %d (no gap, no repeat)", s.Step, want)
		}
	}
}
