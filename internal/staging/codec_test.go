package staging

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"nekrs-sensei/internal/adios"
	"nekrs-sensei/internal/sensei"
)

// mkCodecStep builds a step with a smooth n-element array that drifts
// slowly with the step number — realistic input for the delta codecs.
// Step 0 carries the structure flag like mkStep.
func mkCodecStep(seq, n int) *adios.Step {
	u := make([]float64, n)
	for i := range u {
		u[i] = math.Sin(float64(i)/30) + 0.001*float64(seq)
	}
	s := &adios.Step{
		Step: int64(seq), Time: float64(seq) * 0.1,
		Attrs: map[string]string{},
		Vars:  []adios.Variable{adios.NewF64("array/u", u, int64(n))},
	}
	if seq == 0 {
		s.Attrs["structure"] = "1"
	}
	return s
}

// checkCodecStep verifies a delivered step against what mkCodecStep
// published for its step number: bit-exact when bound is 0, within
// bound otherwise.
func checkCodecStep(t *testing.T, got *adios.Step, n int, bound float64) {
	t.Helper()
	want := mkCodecStep(int(got.Step), n).Vars[0].F64
	v := got.FindVar("array/u")
	if v == nil || len(v.F64) != n {
		t.Fatalf("step %d: array/u missing or wrong length", got.Step)
	}
	for i := range want {
		if bound == 0 {
			if math.Float64bits(want[i]) != math.Float64bits(v.F64[i]) {
				t.Fatalf("step %d: element %d not byte-exact", got.Step, i)
			}
		} else if e := math.Abs(want[i] - v.F64[i]); !(e <= bound) {
			t.Fatalf("step %d: element %d error %g exceeds %g", got.Step, i, e, bound)
		}
	}
}

// TestServerCodecNegotiation is the staging mirror of the direct-SST
// rejection test: with no producer advertisement, readers may request
// any codec this build implements, and a hello naming an unknown one,
// or the retired temporal-delta, is refused in the handshake, leaving
// no consumer behind.
func TestServerCodecNegotiation(t *testing.T) {
	h := NewHub(nil)
	srv, err := Serve(h, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close() //nolint:errcheck

	// The reader refuses a bad codec before it dials, so the producer's
	// own check is reached by a hand-written hello.
	for name, want := range map[string]string{"zstd": `"zstd"`, "temporal-delta": "temporal-delta is retired"} {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
		if err := json.NewEncoder(conn).Encode(adios.Hello{
			Type: "hello", Role: "reader", Consumer: "z", Marshal: adios.FrameFormat, Codecs: []string{name},
		}); err != nil {
			t.Fatal(err)
		}
		var reply adios.Hello
		if err := json.NewDecoder(conn).Decode(&reply); err != nil {
			t.Fatal(err)
		}
		conn.Close()
		if reply.Role != "rejected" || !strings.Contains(reply.Error, want) {
			t.Fatalf("codec %s: reply = %+v, want a rejection naming it", name, reply)
		}
		if n := h.ActiveConsumers(); n != 0 {
			t.Fatalf("the rejected hello left %d consumer(s) subscribed", n)
		}
	}

	for name, codecs := range map[string][]string{
		"q": {"quantize:1e-3"}, "ok": {"transpose-delta"},
	} {
		r, err := adios.OpenReaderWith(srv.Addr(), adios.ReaderOptions{Consumer: name, Codecs: codecs})
		if err != nil {
			t.Fatalf("codec %v rejected: %v", codecs, err)
		}
		r.Close()
	}
	h.Close()
}

// TestServerCompressedFanout attaches mixed-codec consumers to one
// hub: two sharing a codec spec (one encode stream), one quantizing,
// one plain. Every consumer must see correct data, and the hub status
// must report exactly the two shared encode streams.
func TestServerCompressedFanout(t *testing.T) {
	const n, steps = 400, 12
	h := NewHub(nil)
	srv, err := Serve(h, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}

	readers := []struct {
		name   string
		codecs []string
		bound  float64
	}{
		{name: "td-a", codecs: []string{"transpose-delta"}},
		{name: "td-b", codecs: []string{"transpose-delta"}},
		{name: "quant", codecs: []string{"quantize:1e-6"}, bound: 1e-6},
		{name: "plain"},
	}
	errs := make([]error, len(readers))
	counts := make([]int, len(readers))
	var wg sync.WaitGroup
	for i, rc := range readers {
		r, err := adios.OpenReaderWith(srv.Addr(), adios.ReaderOptions{
			Consumer: rc.name, Policy: "block", Depth: 2, Codecs: rc.codecs,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, bound float64, r *adios.Reader) {
			defer wg.Done()
			defer r.Close()
			for {
				s, err := r.BeginStep()
				if errors.Is(err, io.EOF) {
					return
				}
				if err != nil {
					errs[i] = err
					return
				}
				checkCodecStep(t, s, n, bound)
				counts[i]++
			}
		}(i, rc.bound, r)
	}
	waitFor(t, func() bool {
		h.mu.Lock()
		defer h.mu.Unlock()
		return len(h.consumers) == len(readers)
	})
	for i := 0; i < steps; i++ {
		if err := h.Publish(mkCodecStep(i, n)); err != nil {
			t.Fatal(err)
		}
	}
	h.Close()
	wg.Wait()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	for i, rc := range readers {
		if errs[i] != nil {
			t.Fatalf("%s: %v", rc.name, errs[i])
		}
		if counts[i] != steps {
			t.Errorf("%s: received %d of %d steps", rc.name, counts[i], steps)
		}
	}

	st := h.Status()
	if len(st.CodecStreams) != 2 {
		t.Fatalf("CodecStreams = %+v, want the two shared streams", st.CodecStreams)
	}
	for _, cs := range st.CodecStreams {
		if cs.RawBytes == 0 || !(cs.Ratio > 0 && cs.Ratio < 1) {
			t.Errorf("stream %q: raw %d ratio %v, want compression", cs.Form, cs.RawBytes, cs.Ratio)
		}
	}
	byName := map[string]ConsumerStats{}
	for _, c := range st.Consumers {
		byName[c.Name] = c
	}
	if got := byName["td-a"].Codecs; len(got) != 1 || got[0] != "transpose-delta" {
		t.Errorf("td-a codecs = %v", got)
	}
	if got := byName["plain"].Codecs; got != nil {
		t.Errorf("plain codecs = %v, want nil", got)
	}
}

// TestCompressedDropOldestGaps runs a transpose-delta consumer slow
// enough to force drop-oldest gaps, with a structure step mid-stream.
// Every delivered frame must still decode — each coded frame decodes
// alone, whatever the consumer missed before it — and the payloads
// must be exact.
func TestCompressedDropOldestGaps(t *testing.T) {
	const n, steps = 256, 40
	h := NewHub(nil)
	srv, err := Serve(h, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := adios.OpenReaderWith(srv.Addr(), adios.ReaderOptions{
		Consumer: "slow", Policy: "drop-oldest", Depth: 2,
		Codecs: []string{"transpose-delta"},
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	done := make(chan error, 1)
	go func() {
		defer r.Close()
		for {
			s, err := r.BeginStep()
			if errors.Is(err, io.EOF) {
				done <- nil
				return
			}
			if err != nil {
				done <- err
				return
			}
			checkCodecStep(t, s, n, 0)
			got = append(got, s.Step)
			time.Sleep(3 * time.Millisecond)
		}
	}()
	waitFor(t, func() bool {
		h.mu.Lock()
		defer h.mu.Unlock()
		return len(h.consumers) == 1
	})
	for i := 0; i < steps; i++ {
		s := mkCodecStep(i, n)
		if i == steps/2 {
			s.Attrs["structure"] = "1" // mid-stream structure: a plain frame
		}
		if err := h.Publish(s); err != nil {
			t.Fatal(err)
		}
	}
	h.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("out of order: %v", got)
		}
	}
	stats := h.Stats()
	if len(stats) != 1 || stats[0].Dropped == 0 {
		t.Fatalf("stats = %+v, want drops (the whole point of the gap test)", stats)
	}
	if len(got) == steps {
		t.Fatal("no gaps occurred; the gap path was not exercised")
	}
}

// TestAdaptorCodecsXML covers the XML surface: a per-consumer codecs
// field assigns compression the endpoint never asked for (the
// handshake echo configures its decoder), and bad codec fields fail
// configuration.
func TestAdaptorCodecsXML(t *testing.T) {
	ctx := testCtx(t.TempDir())
	a, err := sensei.NewAnalysisAdaptor("staging", ctx, map[string]string{
		"consumers": "viz:block:2::transpose-delta,raw:block:2",
	})
	if err != nil {
		t.Fatal(err)
	}
	ad := a.(*Adaptor)

	// "viz" was declared with a codec; the attaching reader requests
	// none and must still decode (reply echo carries the spec).
	const n, steps = 200, 5
	results := map[string]int{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, name := range []string{"viz", "raw"} {
		r, err := adios.OpenReaderWith(ad.Server().Addr(), adios.ReaderOptions{Consumer: name})
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
				checkCodecStep(t, s, n, 0)
				mu.Lock()
				results[name]++
				mu.Unlock()
			}
		}(name, r)
	}
	waitFor(t, func() bool {
		ad.Hub().mu.Lock()
		defer ad.Hub().mu.Unlock()
		return len(ad.Hub().consumers) == 2
	})
	for i := 0; i < steps; i++ {
		if err := ad.Hub().Publish(mkCodecStep(i, n)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ad.Finalize(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if results["viz"] != steps || results["raw"] != steps {
		t.Errorf("results = %v, want %d each", results, steps)
	}

	// Bad attributes fail at construction, the retired codec by name.
	for _, attrs := range []map[string]string{
		{"consumers": "a:block:2::bogus"},
		{"consumers": "a:block:2::quantize"},
		{"consumers": "a:block:2::temporal-delta"},
	} {
		_, err := sensei.NewAnalysisAdaptor("staging", testCtx(t.TempDir()), attrs)
		if err == nil {
			t.Errorf("attrs %v: expected error", attrs)
		} else if strings.Contains(attrs["consumers"], "temporal") && !strings.Contains(err.Error(), "temporal-delta is retired") {
			t.Errorf("attrs %v: error %v does not name the retired codec", attrs, err)
		}
	}
}

// TestBinderClaimNarrowsCodecs: a reader claiming a pre-declared
// consumer may override the declared codecs with its own request.
func TestBinderClaimNarrowsCodecs(t *testing.T) {
	ctx := testCtx(t.TempDir())
	a, err := sensei.NewAnalysisAdaptor("staging", ctx, map[string]string{
		"consumers": "viz:block:2::transpose-delta",
	})
	if err != nil {
		t.Fatal(err)
	}
	ad := a.(*Adaptor)
	r, err := adios.OpenReaderWith(ad.Server().Addr(), adios.ReaderOptions{
		Consumer: "viz", Codecs: []string{"quantize:1e-9"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	waitFor(t, func() bool {
		ad.binder.mu.Lock()
		defer ad.binder.mu.Unlock()
		return ad.binder.claimed["viz"]
	})
	stats := ad.Hub().Stats()
	if len(stats) != 1 || len(stats[0].Codecs) != 1 || stats[0].Codecs[0] != "quantize:1e-09" {
		t.Fatalf("stats = %+v, want the reader's quantize request", stats)
	}
	const n = 150
	if err := ad.Hub().Publish(mkCodecStep(0, n)); err != nil {
		t.Fatal(err)
	}
	if err := ad.Hub().Publish(mkCodecStep(1, n)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		s, err := r.BeginStep()
		if err != nil {
			t.Fatal(err)
		}
		checkCodecStep(t, s, n, 1e-9)
	}
	if err := ad.Finalize(); err != nil {
		t.Fatal(err)
	}
}
