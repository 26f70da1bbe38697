package staging

import (
	"errors"
	"io"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"nekrs-sensei/internal/adios"
	"nekrs-sensei/internal/metrics"
	"nekrs-sensei/internal/mpirt"
	"nekrs-sensei/internal/sensei"
)

func testCtx(dir string) *sensei.Context {
	return &sensei.Context{
		Comm: mpirt.NewWorld(1).Comm(0), Acct: metrics.NewAccountant(),
		Timer: metrics.NewTimer(), Storage: metrics.NewStorageCounter(),
		OutputDir: dir,
	}
}

// TestServerFanout attaches three network readers with different
// policies to one hub and verifies each sees the stream its policy
// promises, over the real SST wire protocol.
func TestServerFanout(t *testing.T) {
	h := NewHub(nil)
	srv, err := Serve(h, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		steps []int64
		err   error
	}
	opts := []adios.ReaderOptions{
		{Consumer: "sync", Policy: "block", Depth: 2},
		{Consumer: "lossy", Policy: "drop-oldest", Depth: 2},
		{Consumer: "viz", Policy: "drop-oldest", Depth: 1},
	}
	results := make([]result, len(opts))
	var wg sync.WaitGroup
	for i, o := range opts {
		r, err := adios.OpenReaderWith(srv.Addr(), o)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, r *adios.Reader) {
			defer wg.Done()
			defer r.Close()
			for {
				s, err := r.BeginStep()
				if errors.Is(err, io.EOF) {
					return
				}
				if err != nil {
					results[i].err = err
					return
				}
				results[i].steps = append(results[i].steps, s.Step)
			}
		}(i, r)
	}

	// Wait until all three pumps have subscribed so the block consumer
	// cannot miss early steps.
	waitFor(t, func() bool {
		h.mu.Lock()
		defer h.mu.Unlock()
		return len(h.consumers) == 3
	})
	const steps = 20
	for i := 0; i < steps; i++ {
		if err := h.Publish(mkStep(i)); err != nil {
			t.Fatal(err)
		}
	}
	h.Close()
	wg.Wait()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	for i, res := range results {
		if res.err != nil {
			t.Fatalf("%s: %v", opts[i].Consumer, res.err)
		}
		if len(res.steps) == 0 {
			t.Fatalf("%s: received nothing", opts[i].Consumer)
		}
		for j := 1; j < len(res.steps); j++ {
			if res.steps[j] <= res.steps[j-1] {
				t.Fatalf("%s: out of order: %v", opts[i].Consumer, res.steps)
			}
		}
		if last := res.steps[len(res.steps)-1]; last != steps-1 {
			t.Errorf("%s: last step %d, want %d", opts[i].Consumer, last, steps-1)
		}
	}
	// The block consumer sees every step.
	if len(results[0].steps) != steps {
		t.Errorf("sync consumer got %d of %d steps", len(results[0].steps), steps)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for i := 0; i < 500; i++ {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("condition not reached")
}

// TestServerCloseUnblocksIdleReader: closing the server (without a
// hub close) must not hang on a pump waiting for steps.
func TestServerCloseUnblocksIdleReader(t *testing.T) {
	h := NewHub(nil)
	srv, err := Serve(h, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := adios.OpenReaderWith(srv.Addr(), adios.ReaderOptions{Consumer: "idle"})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	waitFor(t, func() bool {
		h.mu.Lock()
		defer h.mu.Unlock()
		return len(h.consumers) == 1
	})
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("server close hung on idle pump")
	}
}

// TestAdaptorXML drives the "staging" analysis type the way the
// Listing-1 XML does: pre-declared consumers, contact-file
// rendezvous, and a full publish/attach/drain cycle.
func TestAdaptorXML(t *testing.T) {
	dir := t.TempDir()
	contact := filepath.Join(dir, "contact.txt")
	ctx := testCtx(dir)
	a, err := sensei.NewAnalysisAdaptor("staging", ctx, map[string]string{
		"consumers": "hist:block:2,viz:drop-oldest:1",
		"contact":   contact,
	})
	if err != nil {
		t.Fatal(err)
	}
	ad := a.(*Adaptor)
	addrs, err := adios.Contact{Name: contact}.Read(0)
	if err != nil || len(addrs) != 1 {
		t.Fatalf("contact = %v, %v", addrs, err)
	}

	// Attach one pre-declared consumer and one dynamic one.
	results := map[string][]int64{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, name := range []string{"hist", "extra"} {
		r, err := adios.OpenReaderWith(addrs[0], adios.ReaderOptions{Consumer: name})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(name string, r *adios.Reader) {
			defer wg.Done()
			defer r.Close()
			for {
				s, err := r.BeginStep()
				if err != nil {
					return
				}
				mu.Lock()
				results[name] = append(results[name], s.Step)
				mu.Unlock()
			}
		}(name, r)
	}

	// Publish through the hub directly (the Execute path is covered by
	// the intransit integration test).
	waitFor(t, func() bool {
		ad.Hub().mu.Lock()
		defer ad.Hub().mu.Unlock()
		return len(ad.Hub().consumers) == 3 // hist, viz pre-declared + extra
	})
	for i := 0; i < 6; i++ {
		if err := ad.Hub().Publish(mkStep(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ad.Finalize(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	if got := results["hist"]; len(got) != 6 {
		t.Errorf("hist (block) got %v, want all 6 steps", got)
	}
	if got := results["extra"]; len(got) == 0 {
		t.Errorf("extra (dynamic) got nothing")
	}
	// The unattached "viz" consumer must not have blocked the stream;
	// its steps were dropped by its window of one.
	stats := ad.Hub().Stats()
	byName := map[string]ConsumerStats{}
	for _, s := range stats {
		byName[s.Name] = s
	}
	if byName["viz"].Dropped == 0 {
		t.Errorf("viz stats = %+v, want drops (never attached)", byName["viz"])
	}
	if byName["extra"].Policy != Block || byName["extra"].Depth != 2 {
		t.Errorf("extra consumer = %+v, want what a hello naming neither gets: block depth 2", byName["extra"])
	}
}

// TestServerRejectsDoubleClaim: the second reader claiming a
// pre-declared consumer is rejected in the handshake — it must not
// see a silent empty stream.
func TestServerRejectsDoubleClaim(t *testing.T) {
	ctx := testCtx(t.TempDir())
	a, err := sensei.NewAnalysisAdaptor("staging", ctx, map[string]string{
		"consumers": "solo:block:2",
	})
	if err != nil {
		t.Fatal(err)
	}
	ad := a.(*Adaptor)
	r1, err := adios.OpenReaderWith(ad.Server().Addr(), adios.ReaderOptions{Consumer: "solo"})
	if err != nil {
		t.Fatal(err)
	}
	defer r1.Close()
	waitFor(t, func() bool {
		ad.binder.mu.Lock()
		defer ad.binder.mu.Unlock()
		return ad.binder.claimed["solo"]
	})
	if _, err := adios.OpenReaderWith(ad.Server().Addr(), adios.ReaderOptions{Consumer: "solo"}); err == nil {
		t.Fatal("second claim succeeded; want handshake rejection")
	} else if !strings.Contains(err.Error(), "already attached") {
		t.Errorf("rejection error = %v, want the server's reason", err)
	}
	if err := ad.Finalize(); err != nil {
		t.Fatal(err)
	}
	if _, err := r1.BeginStep(); !errors.Is(err, io.EOF) {
		t.Errorf("surviving reader got %v, want EOF", err)
	}
}

// TestReconnectPreDeclaredConsumer: after a claimed consumer's
// connection drops (observed by its pump), a reader re-attaching
// under the same name gets a fresh subscription with the declared
// policy instead of "already attached" forever.
func TestReconnectPreDeclaredConsumer(t *testing.T) {
	ctx := testCtx(t.TempDir())
	a, err := sensei.NewAnalysisAdaptor("staging", ctx, map[string]string{
		"consumers": "solo:drop-oldest:2",
	})
	if err != nil {
		t.Fatal(err)
	}
	ad := a.(*Adaptor)
	r1, err := adios.OpenReaderWith(ad.Server().Addr(), adios.ReaderOptions{Consumer: "solo"})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		ad.binder.mu.Lock()
		defer ad.binder.mu.Unlock()
		return ad.binder.claimed["solo"]
	})
	r1.Close() // endpoint crash
	// The pump notices the dead connection once a step flows.
	if err := ad.Hub().Publish(mkStep(0)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		ad.binder.mu.Lock()
		cons := ad.binder.registered["solo"]
		ad.binder.mu.Unlock()
		return cons.IsClosed()
	})
	r2, err := adios.OpenReaderWith(ad.Server().Addr(), adios.ReaderOptions{Consumer: "solo"})
	if err != nil {
		t.Fatalf("reconnect rejected: %v", err)
	}
	defer r2.Close()
	// The reattached consumer resumes the stream (structure replays
	// from the bootstrap).
	if err := ad.Hub().Publish(mkStep(1)); err != nil {
		t.Fatal(err)
	}
	s, err := r2.BeginStep()
	if err != nil {
		t.Fatal(err)
	}
	if s.Attrs["structure"] != "1" {
		t.Errorf("reconnected consumer's first step lacks the structure (step %d)", s.Step)
	}
	if err := ad.Finalize(); err != nil {
		t.Fatal(err)
	}
}

// TestAdaptorDoubleClaim: a pre-declared consumer can be claimed by
// only one network reader.
func TestAdaptorDoubleClaim(t *testing.T) {
	ctx := testCtx(t.TempDir())
	a, err := sensei.NewAnalysisAdaptor("staging", ctx, map[string]string{
		"consumers": "solo:drop-oldest:1",
	})
	if err != nil {
		t.Fatal(err)
	}
	ad := a.(*Adaptor)
	defer ad.Finalize() //nolint:errcheck
	if _, err := ad.binder.Resolve(SubscribeRequest{Name: "solo"}); err != nil {
		t.Fatal(err)
	}
	if _, err := ad.binder.Resolve(SubscribeRequest{Name: "solo"}); err == nil {
		t.Error("second claim of the same consumer should fail")
	}
	if _, err := ad.binder.Resolve(SubscribeRequest{Policy: "bogus-policy"}); err == nil {
		t.Error("bad policy should fail")
	}
}

func TestAdaptorBadAttrs(t *testing.T) {
	ctx := testCtx(t.TempDir())
	for _, attrs := range []map[string]string{
		{"consumers": "a:warp"},
	} {
		if _, err := sensei.NewAnalysisAdaptor("staging", ctx, attrs); err == nil {
			t.Errorf("attrs %v: expected error", attrs)
		}
	}
}

// TestServerCloseWithHubOpenTruncates: closing the server while the
// hub is still open is Abort. The attached reader must not mistake the
// cut for a clean end: it ends with the truncation error, not io.EOF.
func TestServerCloseWithHubOpenTruncates(t *testing.T) {
	h := NewHub(nil)
	srv, err := Serve(h, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := adios.OpenReaderWith(srv.Addr(), adios.ReaderOptions{Consumer: "leaf", Policy: "block", Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	waitFor(t, func() bool {
		h.mu.Lock()
		defer h.mu.Unlock()
		return len(h.consumers) == 1
	})
	for i := 0; i < 2; i++ {
		if err := h.Publish(mkStep(i)); err != nil {
			t.Fatal(err)
		}
	}
	got := make(chan error, 1)
	go func() {
		var err error
		for err == nil {
			_, err = r.BeginStep()
		}
		got <- err
	}()
	// Abrupt shutdown: server first, hub still open.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-got:
		if errors.Is(err, io.EOF) || !strings.Contains(err.Error(), "stream truncated") {
			t.Fatalf("reader ended with %v, want the truncation error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("reader never saw the stream end")
	}
	h.Close()
}

// TestServerCloseDrainsSlowReader: Close after hub.Close delivers every
// step to a reader that keeps returning its credits, however long that
// takes past the drain's silence bound, and only then ends the stream
// cleanly.
func TestServerCloseDrainsSlowReader(t *testing.T) {
	const published, perStep = 12, 600 * time.Millisecond
	h := NewHub(nil)
	srv, err := Serve(h, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := adios.OpenReaderWith(srv.Addr(), adios.ReaderOptions{Consumer: "slow", Policy: "block", Depth: published})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	waitFor(t, func() bool {
		h.mu.Lock()
		defer h.mu.Unlock()
		return len(h.consumers) == 1
	})
	for i := 0; i < published; i++ {
		if err := h.Publish(mkStep(i)); err != nil {
			t.Fatal(err)
		}
	}
	got := make(chan int, 1)
	end := make(chan error, 1)
	go func() {
		n := 0
		defer func() { got <- n }()
		for {
			_, err := r.BeginStep()
			if err != nil {
				end <- err
				return
			}
			n++
			time.Sleep(perStep)
		}
	}()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if n := <-got; n != published {
		t.Errorf("slow reader got %d of %d steps", n, published)
	}
	if err := <-end; !errors.Is(err, io.EOF) {
		t.Errorf("slow reader ended with %v, want io.EOF", err)
	}
}

// TestServerCutsSilentReader: a reader that stops returning credits is
// cut once it has made no progress for the server's liveness, or,
// without one, for drainGrace after Close began draining; the cut
// carries no end-of-stream marker, so the reader ends truncated, never
// with io.EOF.
func TestServerCutsSilentReader(t *testing.T) {
	defer func(d time.Duration) { drainGrace = d }(drainGrace)
	drainGrace = 300 * time.Millisecond
	for _, liveness := range []time.Duration{150 * time.Millisecond, 0} {
		h := NewHub(nil)
		srv, err := ServeWith(h, "127.0.0.1:0", nil, liveness)
		if err != nil {
			t.Fatal(err)
		}
		r, err := adios.OpenReaderWith(srv.Addr(), adios.ReaderOptions{Consumer: "silent", Policy: "block", Depth: 4})
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, func() bool {
			h.mu.Lock()
			defer h.mu.Unlock()
			return len(h.consumers) == 1
		})
		for i := 0; i < 3; i++ {
			if err := h.Publish(mkStep(i)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := r.BeginStep(); err != nil { // one step, then silence
			t.Fatal(err)
		}
		h.Close()
		start := time.Now()
		srv.Close()
		if d := time.Since(start); d > 2*time.Second {
			t.Errorf("liveness %v: Close took %v on a silent reader", liveness, d)
		}
		if err := srv.Err(); err == nil || !strings.Contains(err.Error(), "made no progress") {
			t.Errorf("liveness %v: server error %v, want the silent reader cut", liveness, err)
		}
		var rerr error
		for rerr == nil {
			_, rerr = r.BeginStep()
		}
		if errors.Is(rerr, io.EOF) || !strings.Contains(rerr.Error(), "stream truncated") {
			t.Errorf("liveness %v: silent reader ended with %v, want the truncation error", liveness, rerr)
		}
		r.Close()
	}
}

// TestServerCloseDrainsLateStartingPump: hub.Close then Server.Close
// is a drain, also for a connection whose pump has not started when
// the server closes. The reader is held inside its handshake (in the
// subscribe callback, after the consumer is bound) while the producer
// publishes past the drop window, closes the hub and closes the
// server; the pump then starts on a closed server and must still
// deliver the consumer's window before end-of-stream, so that every
// published step is accounted delivered or dropped, under every
// policy: this is the per-policy conservation check.
func TestServerCloseDrainsLateStartingPump(t *testing.T) {
	const published, depth = 8, 2
	for _, policy := range []Policy{Block, DropOldest} {
		h := NewHub(nil)
		bound, release := make(chan struct{}), make(chan struct{})
		srv, err := Serve(h, "127.0.0.1:0", func(req SubscribeRequest) (*Subscription, error) {
			cons, err := h.Subscribe(req.Name, policy, depth)
			close(bound)
			<-release
			return &Subscription{Cons: cons}, err
		})
		if err != nil {
			t.Fatal(err)
		}
		steps := make(chan int, published)
		readerErr := make(chan error, 1)
		go func() {
			defer close(steps)
			r, err := adios.OpenReaderWith(srv.Addr(), adios.ReaderOptions{Consumer: "late"})
			if err != nil {
				readerErr <- err
				return
			}
			defer r.Close()
			for {
				if _, err := r.BeginStep(); err != nil {
					if !errors.Is(err, io.EOF) {
						readerErr <- err
					}
					return
				}
				steps <- 1
			}
		}()
		<-bound
		n := published
		if policy == Block {
			n = depth // beyond its window Publish would wait for the held reader
		}
		for i := 0; i < n; i++ {
			if err := h.Publish(mkStep(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
		closed := make(chan error, 1)
		go func() { closed <- srv.Close() }()
		// The listener goes down right after Close marks the server
		// closed: once dialing fails, the held pump will find it so.
		waitFor(t, func() bool {
			c, err := net.Dial("tcp", srv.Addr())
			if err == nil {
				c.Close()
			}
			return err != nil
		})
		close(release)
		if err := <-closed; err != nil {
			t.Fatal(err)
		}
		got := 0
		for range steps {
			got++
		}
		select {
		case err := <-readerErr:
			t.Fatalf("%s: reader: %v", policy, err)
		default:
		}
		st := h.Stats()[0]
		if st.Delivered+st.Dropped != int64(n) || got != int(st.Delivered) || got == 0 {
			t.Errorf("%s: published %d, the reader got %d, the hub counts %d delivered + %d dropped",
				policy, n, got, st.Delivered, st.Dropped)
		}
	}
}

// TestPublishFrameSharesBytes: a pre-marshaled publish (the relay's
// splice path) must hand network pumps the producer's exact frame
// bytes — no re-marshal.
func TestPublishFrameSharesBytes(t *testing.T) {
	h := NewHub(nil)
	cons, err := h.Subscribe("c", Block, 2)
	if err != nil {
		t.Fatal(err)
	}
	pool := adios.NewFramePool()
	st := mkStep(0)
	f := adios.MarshalFrame(st, pool)
	want := f.Bytes()
	if err := h.PublishFrame(f); err != nil {
		t.Fatal(err)
	}
	ref, err := cons.Next()
	if err != nil {
		t.Fatal(err)
	}
	frame := ref.Frame()
	if &frame[0] != &want[0] {
		t.Fatal("PublishFrame re-marshaled instead of sharing the producer frame")
	}
	ref.Release()
	// With no consumers the frame lease is returned at publish time
	// (refs == 0 path) rather than leaking until GC.
	h2 := NewHub(nil)
	st2 := mkStep(1)
	f2 := adios.MarshalFrame(st2, pool)
	if err := h2.PublishFrame(f2); err != nil {
		t.Fatal(err)
	}
	h.Close()
	h2.Close()
}
