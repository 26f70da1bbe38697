package adios_test

// Reader-side stream tests. The producer is the one wire server there
// is — a staging hub behind staging.Serve — configured as a direct
// stream: one anonymous pre-declared block consumer that the reader
// claims.

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"nekrs-sensei/internal/adios"
	"nekrs-sensei/internal/codec"
	"nekrs-sensei/internal/metrics"
	"nekrs-sensei/internal/staging"
)

// direct is a single-consumer hub behind a server; the block consumer
// is declared up front, so steps published before the reader dials are
// staged for it, depth at most.
type direct struct {
	hub  *staging.Hub
	cons *staging.Consumer
	srv  *staging.Server
}

func serveDirect(t testing.TB, acct *metrics.Accountant, depth int) *direct {
	t.Helper()
	hub := staging.NewHub(acct)
	binder := staging.NewBinder(hub)
	cons, err := binder.Declare(staging.ConsumerSpec{Policy: staging.Block, Depth: depth})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := staging.Serve(hub, "127.0.0.1:0", binder.Resolve)
	if err != nil {
		t.Fatal(err)
	}
	return &direct{hub: hub, cons: cons, srv: srv}
}

// close ends the stream the documented way: the hub first, so the pump
// drains to end-of-stream, then the server, which waits for it.
func (d *direct) close() {
	d.hub.Close()  //nolint:errcheck // always nil
	d.srv.Close()  //nolint:errcheck // always nil
	d.cons.Close() // a consumer no reader ever claimed
}

func TestSSTStreamDelivery(t *testing.T) {
	d := serveDirect(t, nil, 2)
	const steps = 10
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < steps; i++ {
			s := adios.SampleStep()
			s.Step = int64(i)
			if err := d.hub.Publish(s); err != nil {
				t.Errorf("publish %d: %v", i, err)
				return
			}
		}
		d.close()
	}()

	r, err := adios.OpenReaderWith(d.srv.Addr(), adios.ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < steps; i++ {
		s, err := r.BeginStep()
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if s.Step != int64(i) {
			t.Errorf("step order: got %d want %d", s.Step, i)
		}
		if s.FindVar("pressure") == nil {
			t.Error("missing variable")
		}
	}
	if _, err := r.BeginStep(); err != io.EOF {
		t.Errorf("want EOF, got %v", err)
	}
	<-done
	if r.StepsReceived() != steps {
		t.Errorf("StepsReceived = %d", r.StepsReceived())
	}
	if got := d.cons.Stats().Delivered; got != steps {
		t.Errorf("Delivered = %d", got)
	}
}

func TestSSTBackpressure(t *testing.T) {
	acct := metrics.NewAccountant()
	d := serveDirect(t, acct, 2)
	// No reader yet: the first two publishes stage, the third must block.
	put := func() { d.hub.Publish(adios.SampleStep()) } //nolint:errcheck // error path tested elsewhere
	put()
	put()
	if acct.CategoryInUse("staging-hub") == 0 {
		t.Error("queue not accounted")
	}
	blocked := make(chan struct{})
	go func() {
		put()
		close(blocked)
	}()
	select {
	case <-blocked:
		t.Error("third publish should block on full queue")
	case <-time.After(50 * time.Millisecond):
	}
	// A consumer drains the queue and unblocks the producer.
	r, err := adios.OpenReaderWith(d.srv.Addr(), adios.ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 3; i++ {
		if _, err := r.BeginStep(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	select {
	case <-blocked:
	case <-time.After(2 * time.Second):
		t.Fatal("producer still blocked after drain")
	}
	d.close()
	if got := acct.CategoryInUse("staging-hub"); got != 0 {
		t.Errorf("queue accounting leak: %d", got)
	}
	if acct.CategoryPeak("staging-hub") == 0 {
		t.Error("no queue peak recorded")
	}
}

func TestSSTQueueGrowsWithSlowConsumer(t *testing.T) {
	acct := metrics.NewAccountant()
	d := serveDirect(t, acct, 8)
	for i := 0; i < 8; i++ {
		if err := d.hub.Publish(adios.SampleStep()); err != nil {
			t.Fatal(err)
		}
	}
	// All eight steps staged: queue memory is the per-step payload
	// times the depth — the Figure 6 mechanism.
	if got, want := acct.CategoryInUse("staging-hub"), 8*adios.SampleStep().Bytes(); got != want {
		t.Errorf("staged bytes = %d, want %d", got, want)
	}
	r, err := adios.OpenReaderWith(d.srv.Addr(), adios.ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	go d.close()
	n := 0
	for {
		if _, err := r.BeginStep(); err != nil {
			break
		}
		n++
	}
	if n != 8 {
		t.Errorf("received %d steps, want 8", n)
	}
}

// TestReaderRecycleRoundTrip streams steps through a server/reader
// pair with the endpoint's recycle protocol: after the first step the
// reader decodes into recycled storage (asserted by backing-array
// identity) and every step's contents still match what was sent.
func TestReaderRecycleRoundTrip(t *testing.T) {
	d := serveDirect(t, nil, 2)
	const steps = 8
	go func() {
		for i := 0; i < steps; i++ {
			s := &adios.Step{
				Step: int64(i), Time: float64(i),
				Attrs: map[string]string{"mesh": "mesh"},
				Vars: []adios.Variable{
					adios.NewF64("array/u", []float64{float64(i), float64(i) + 0.5}),
				},
			}
			if err := d.hub.Publish(s); err != nil {
				t.Errorf("publish %d: %v", i, err)
				return
			}
		}
		d.close()
	}()
	r, err := adios.OpenReaderWith(d.srv.Addr(), adios.ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	var prev *adios.Step
	var prevBacking *float64
	for i := 0; i < steps; i++ {
		s, err := r.BeginStep()
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if s.Step != int64(i) || len(s.Vars) != 1 || s.Vars[0].F64[0] != float64(i) {
			t.Fatalf("step %d: wrong contents %+v", i, s)
		}
		if prev != nil {
			if s != prev {
				t.Fatalf("step %d: recycled step not reused (got %p, want %p)", i, s, prev)
			}
			if &s.Vars[0].F64[0] != prevBacking {
				t.Fatalf("step %d: payload storage not reused", i)
			}
		}
		prev, prevBacking = s, &s.Vars[0].F64[0]
		r.Recycle(s)
	}
	if _, err := r.BeginStep(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

// TestUnrecycledStepStaysIntact: a step's payloads view the buffer its
// frame arrived in, and the step owns that buffer until it is
// recycled, so a step that never is — the structure step, whose
// arrays grid caches keep, or any step the caller holds on to — reads
// the same after many later BeginSteps as when it arrived.
func TestUnrecycledStepStaysIntact(t *testing.T) {
	d := serveDirect(t, nil, 2)
	const steps = 8
	mk := func(i int) *adios.Step {
		s := &adios.Step{
			Step: int64(i), Time: float64(i),
			Attrs: map[string]string{"mesh": "mesh"},
			Vars: []adios.Variable{
				adios.NewF64("array/u", []float64{float64(i), float64(i) + 0.5}),
				adios.NewI64("connectivity", []int64{int64(i), 7}),
				adios.NewU8("types", []byte{byte(i), 12, 12}),
			},
		}
		if i == 0 {
			s.Attrs["structure"] = "1"
		}
		return s
	}
	go func() {
		for i := 0; i < steps; i++ {
			if err := d.hub.Publish(mk(i)); err != nil {
				t.Errorf("publish %d: %v", i, err)
				return
			}
		}
		d.close()
	}()
	r, err := adios.OpenReaderWith(d.srv.Addr(), adios.ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	held := map[int]*adios.Step{}
	for i := 0; i < steps; i++ {
		s, err := r.BeginStep()
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if i == 0 || i == 3 {
			held[i] = s
		}
		if i != 3 {
			r.Recycle(s) // refused for the structure step
		}
	}
	for i, s := range held {
		if got, want := adios.Marshal(s), adios.Marshal(mk(i)); string(got) != string(want) {
			t.Errorf("step %d changed after later steps arrived", i)
		}
	}
}

// TestSSTCodecNegotiation drives codec negotiation on a direct stream:
// the producer offers exactly the codecs this build implements, so a
// hello naming another — or the retired temporal-delta — is rejected at
// handshake, such a codec fails the reader before the dial, and an
// accepted request compresses the stream end-to-end — including a
// plain structure step mid-stream.
func TestSSTCodecNegotiation(t *testing.T) {
	// rejectedHello sends a hand-written hello asking for codecs and
	// returns the producer's reply: the reader itself would refuse a
	// bad name before dialing.
	rejectedHello := func(t *testing.T, codecs ...string) adios.Hello {
		d := serveDirect(t, nil, 2)
		defer d.close()
		conn, err := net.Dial("tcp", d.srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
		if err := json.NewEncoder(conn).Encode(adios.Hello{
			Type: "hello", Role: "reader", Marshal: adios.FrameFormat, Codecs: codecs,
		}); err != nil {
			t.Fatal(err)
		}
		var reply adios.Hello
		if err := json.NewDecoder(conn).Decode(&reply); err != nil {
			t.Fatal(err)
		}
		return reply
	}
	t.Run("reject unadvertised codec", func(t *testing.T) {
		if reply := rejectedHello(t, "zstd"); reply.Role != "rejected" || !strings.Contains(reply.Error, `"zstd"`) {
			t.Fatalf("reply = %+v, want a rejection naming zstd", reply)
		}
	})

	t.Run("bad codec spec fails before dial", func(t *testing.T) {
		if _, err := adios.OpenReaderWith("127.0.0.1:1", adios.ReaderOptions{Codecs: []string{"bogus"}}); err == nil ||
			!strings.Contains(err.Error(), "bogus") {
			t.Fatalf("err = %v, want unknown codec", err)
		}
	})

	t.Run("retired codec refused by name", func(t *testing.T) {
		if reply := rejectedHello(t, "temporal-delta"); reply.Role != "rejected" || !strings.Contains(reply.Error, "temporal-delta is retired") {
			t.Fatalf("reply = %+v, want a rejection naming temporal-delta", reply)
		}
		if _, err := adios.OpenReaderWith("127.0.0.1:1", adios.ReaderOptions{Codecs: []string{"pressure=temporal-delta"}}); !errors.Is(err, codec.ErrRetired) {
			t.Fatalf("err = %v, want codec.ErrRetired before the dial", err)
		}
	})

	t.Run("coded stream with structure step", func(t *testing.T) {
		d := serveDirect(t, nil, 4)
		const steps = 8
		want := make([]*adios.Step, steps)
		for i := range want {
			want[i] = adios.CodedStep(int64(i), 300)
			if i == 4 {
				want[i].Attrs["structure"] = "1"
			}
		}
		errCh := make(chan error, 1)
		go func() {
			for _, s := range want {
				if err := d.hub.Publish(s); err != nil {
					errCh <- err
					return
				}
			}
			errCh <- d.hub.Close()
		}()
		r, err := adios.OpenReaderWith(d.srv.Addr(), adios.ReaderOptions{Codecs: []string{"transpose-delta"}})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		for i := 0; i < steps; i++ {
			got, err := r.BeginStep()
			if err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			if got.Step != int64(i) {
				t.Fatalf("step order: got %d want %d", got.Step, i)
			}
			a, b := want[i].FindVar("array/u").F64, got.FindVar("array/u").F64
			if len(a) != len(b) {
				t.Fatalf("step %d: %d values, want %d", i, len(b), len(a))
			}
			for j := range a {
				if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
					t.Fatalf("step %d: payload mismatch over the wire at %d", i, j)
				}
			}
		}
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
		d.close()
		if got := d.cons.Codecs(); len(got) != 1 || got[0] != "transpose-delta" {
			t.Errorf("consumer codecs = %v", got)
		}
		cs := d.hub.Status().CodecStreams
		if len(cs) != 1 || !(cs[0].Ratio > 0 && cs[0].Ratio < 1) {
			t.Errorf("codec streams = %+v, want one with ratio < 1 on the smooth field", cs)
		}
	})

	t.Run("identity request leaves the wire plain", func(t *testing.T) {
		d := serveDirect(t, nil, 2)
		r, err := adios.OpenReaderWith(d.srv.Addr(), adios.ReaderOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		go func() {
			d.hub.Publish(adios.CodedStep(0, 10)) //nolint:errcheck
			d.close()
		}()
		if _, err := r.BeginStep(); err != nil {
			t.Fatal(err)
		}
		if got := d.cons.Codecs(); got != nil {
			t.Errorf("consumer codecs = %v, want nil", got)
		}
		if cs := d.hub.Status().CodecStreams; len(cs) != 0 {
			t.Errorf("codec streams = %+v, want none", cs)
		}
	})
}

func BenchmarkSSTThroughput(b *testing.B) {
	data := make([]float64, 50000)
	s := &adios.Step{Step: 1, Time: 0.1, Vars: []adios.Variable{adios.NewF64("u", data)}}
	d := serveDirect(b, nil, 4)
	r, err := adios.OpenReaderWith(d.srv.Addr(), adios.ReaderOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	b.SetBytes(s.Bytes())
	b.ReportAllocs()
	b.ResetTimer()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < b.N; i++ {
			if _, err := r.BeginStep(); err != nil {
				b.Error(err)
				return
			}
		}
	}()
	for i := 0; i < b.N; i++ {
		if err := d.hub.Publish(s); err != nil {
			b.Fatal(err)
		}
	}
	<-done
	b.StopTimer()
	d.close()
}
