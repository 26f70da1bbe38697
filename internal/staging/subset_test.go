package staging

import (
	"errors"
	"io"
	"strings"
	"testing"

	"nekrs-sensei/internal/adios"
	"nekrs-sensei/internal/metrics"
)

// mkWideStep builds a step carrying n named arrays of width float64s;
// seq 0 carries the structure marker.
func mkWideStep(seq int, names []string, width int) *adios.Step {
	s := &adios.Step{
		Step:  int64(seq),
		Time:  float64(seq) * 0.1,
		Attrs: map[string]string{},
	}
	if seq == 0 {
		s.Attrs["structure"] = "1"
		s.Vars = append(s.Vars, adios.NewF64("points", make([]float64, 3*width)))
	}
	for _, n := range names {
		data := make([]float64, width)
		for i := range data {
			data[i] = float64(seq)
		}
		s.Vars = append(s.Vars, adios.NewF64("array/"+n, data))
	}
	return s
}

// TestSubscribeArraysRejectsUnadvertised: a subset naming an array the
// producer does not advertise fails the subscription (table-driven).
func TestSubscribeArraysRejectsUnadvertised(t *testing.T) {
	tests := []struct {
		name       string
		advertised []string
		request    []string
		wantErr    string
	}{
		{name: "subset of advertisement ok", advertised: []string{"a", "b", "c"}, request: []string{"b"}},
		{name: "full advertisement ok", advertised: []string{"a", "b"}, request: []string{"a", "b"}},
		{name: "nil request ok", advertised: []string{"a"}, request: nil},
		{name: "unknown array rejected", advertised: []string{"a", "b"}, request: []string{"a", "z"}, wantErr: `"z" is not advertised`},
		{name: "no advertisement accepts anything", advertised: nil, request: []string{"whatever"}},
		{name: "duplicates normalized then validated", advertised: []string{"a"}, request: []string{"a", "a"}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			h := NewHub(nil)
			h.SetAdvertised(tc.advertised)
			c, err := h.SubscribeSpec(ConsumerSpec{Name: "c", Policy: Block, Depth: 2, Arrays: tc.request})
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				c.Close()
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

// TestSubsetDelivery: a subset consumer's steps carry only the
// requested arrays; the structure step always travels whole; a full
// consumer of the same hub is unaffected.
func TestSubsetDelivery(t *testing.T) {
	names := []string{"a", "b", "c", "d"}
	h := NewHub(nil)
	h.SetAdvertised(names)
	full, err := h.Subscribe("full", Block, 8)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := h.SubscribeSpec(ConsumerSpec{Name: "sub", Policy: Block, Depth: 8, Arrays: []string{"c", "a"}})
	if err != nil {
		t.Fatal(err)
	}
	var published []*adios.Step
	for i := 0; i < 3; i++ {
		published = append(published, mkWideStep(i, names, 8))
		if err := h.Publish(published[i]); err != nil {
			t.Fatal(err)
		}
	}
	h.Close()

	countArrays := func(s *adios.Step) int {
		n := 0
		for i := range s.Vars {
			if strings.HasPrefix(s.Vars[i].Name, "array/") {
				n++
			}
		}
		return n
	}
	// Structure step (seq 0) travels whole on both consumers.
	for _, c := range []*Consumer{full, sub} {
		s, err := c.BeginStep()
		if err != nil {
			t.Fatal(err)
		}
		if s.FindVar("points") == nil || countArrays(s) != 4 {
			t.Errorf("%s: structure step filtered: %d arrays", c.Name(), countArrays(s))
		}
	}
	for seq := int64(1); seq < 3; seq++ {
		fs, err := full.BeginStep()
		if err != nil {
			t.Fatal(err)
		}
		if countArrays(fs) != 4 {
			t.Errorf("full consumer: %d arrays, want 4", countArrays(fs))
		}
		ss, err := sub.BeginStep()
		if err != nil {
			t.Fatal(err)
		}
		if countArrays(ss) != 2 {
			t.Errorf("subset consumer: %d arrays, want 2", countArrays(ss))
		}
		if ss.FindVar("array/a") == nil || ss.FindVar("array/c") == nil {
			t.Error("subset consumer missing a requested array")
		}
		if ss.FindVar("array/b") != nil || ss.FindVar("array/d") != nil {
			t.Error("subset consumer received an unrequested array")
		}
		// Both steps are the hub's own decodes, not the producer's arrays.
		for _, s := range []*adios.Step{fs, ss} {
			if &s.FindVar("array/a").F64[0] == &published[seq].FindVar("array/a").F64[0] {
				t.Error("delivered step aliases the producer's arrays")
			}
		}
	}
	for _, c := range []*Consumer{full, sub} {
		if _, err := c.BeginStep(); !errors.Is(err, io.EOF) {
			t.Errorf("%s: want EOF, got %v", c.Name(), err)
		}
	}
}

// TestPublishCarriesWhatConsumersTake: Publish copies only the arrays
// its consumers take, but the structure step whole (it bootstraps late
// subscribers), charges the accountant the step as published, and a
// consumer subscribing while Publish waits on a full window still
// receives its own arrays in the step it waits on.
func TestPublishCarriesWhatConsumersTake(t *testing.T) {
	names := []string{"a", "b", "c", "d"}
	acct := metrics.NewAccountant()
	h := NewHub(acct)
	defer h.Close()
	if err := h.Publish(mkWideStep(0, names, 8)); err != nil { // no consumer yet
		t.Fatal(err)
	}
	first, err := h.SubscribeSpec(ConsumerSpec{Name: "first", Policy: Block, Depth: 1, Arrays: []string{"a"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Publish(mkWideStep(1, names, 8)); err != nil {
		t.Fatal(err)
	}
	h.mu.Lock()
	bootstrap, step1 := len(h.bootstrap.info.Vars), len(h.ring[len(h.ring)-1].info.Vars)
	h.mu.Unlock()
	if bootstrap != 5 || step1 != 1 {
		t.Errorf("frames carry %d and %d variables, want the whole structure step (5) and the one array taken", bootstrap, step1)
	}
	// Both steps are charged as published: the structure step's points
	// and four arrays, step 1's four arrays.
	if got, want := acct.CategoryInUse("staging-hub"), int64(8*(24+4*8)+4*8*8); got != want {
		t.Errorf("hub charges %d bytes, want %d", got, want)
	}
	published := make(chan error, 1)
	go func() { published <- h.Publish(mkWideStep(2, names, 8)) }()
	waitFor(t, func() bool { return first.Stats().Blocking })
	late, err := h.SubscribeSpec(ConsumerSpec{Name: "late", Policy: Block, Depth: 1, Arrays: []string{"c"}})
	if err != nil {
		t.Fatal(err)
	}
	next := func(c *Consumer, want ...string) {
		t.Helper()
		ref, err := c.Next()
		if err != nil {
			t.Fatal(err)
		}
		defer ref.Release()
		var got []string
		for _, v := range ref.Step().Vars {
			got = append(got, v.Name)
		}
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s: step %d carries %v, want %v", c.Name(), ref.SimStep(), got, want)
		}
	}
	whole := []string{"points", "array/a", "array/b", "array/c", "array/d"}
	next(first, whole...)
	next(first, "array/a") // frees the window Publish waits on
	if err := <-published; err != nil {
		t.Fatal(err)
	}
	next(first, "array/a")
	next(late, whole...)
	next(late, "array/c")
}

// TestClaimOnlyNarrows: a reader claiming a pre-declared consumer may
// narrow its declared subset but not widen it, since the steps queued
// for the consumer carry only the arrays it declared.
func TestClaimOnlyNarrows(t *testing.T) {
	h := NewHub(nil)
	defer h.Close()
	h.SetAdvertised([]string{"a", "b", "c"})
	b := NewBinder(h)
	for _, name := range []string{"wide", "narrow"} {
		if _, err := b.Declare(ConsumerSpec{Name: name, Arrays: []string{"a", "b"}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.Resolve(SubscribeRequest{Name: "wide", Arrays: []string{"a", "c"}}); err == nil {
		t.Error("a claim widening the declared subset was accepted")
	}
	sub, err := b.Resolve(SubscribeRequest{Name: "narrow", Arrays: []string{"b"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := sub.Cons.Arrays(); len(got) != 1 || got[0] != "b" {
		t.Errorf("narrowed consumer takes %v, want [b]", got)
	}
}

// TestSubsetWireRejectionAndSavings: over the network server, a reader
// declaring an unadvertised array is rejected in the handshake, and a
// subset reader receives measurably fewer bytes than a full reader at
// equal step counts.
func TestSubsetWireRejectionAndSavings(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e", "f"}
	h := NewHub(nil)
	h.SetAdvertised(names)
	srv, err := Serve(h, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}

	// Rejection: unknown array fails the handshake with a reason.
	if _, err := adios.OpenReaderWith(srv.Addr(), adios.ReaderOptions{
		Consumer: "bad", Arrays: []string{"nope"},
	}); err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("want handshake rejection, got %v", err)
	}

	fullR, err := adios.OpenReaderWith(srv.Addr(), adios.ReaderOptions{Consumer: "full"})
	if err != nil {
		t.Fatal(err)
	}
	defer fullR.Close()
	subR, err := adios.OpenReaderWith(srv.Addr(), adios.ReaderOptions{
		Consumer: "sub", Arrays: []string{"a"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer subR.Close()

	const steps = 4
	done := make(chan error, 1)
	go func() {
		for i := 0; i < steps; i++ {
			if err := h.Publish(mkWideStep(i, names, 256)); err != nil {
				done <- err
				return
			}
		}
		done <- h.Close()
	}()

	drain := func(r *adios.Reader) (int, error) {
		n := 0
		for {
			s, err := r.BeginStep()
			if errors.Is(err, io.EOF) {
				return n, nil
			}
			if err != nil {
				return n, err
			}
			if s.Step > 0 && r == subR {
				if s.FindVar("array/a") == nil || s.FindVar("array/b") != nil {
					return n, errors.New("subset wire step has wrong arrays")
				}
			}
			n++
		}
	}
	// Both consumers are block-policy: drain concurrently so neither
	// stalls the publisher.
	type drained struct {
		n   int
		err error
	}
	fullCh := make(chan drained, 1)
	go func() {
		n, err := drain(fullR)
		fullCh <- drained{n, err}
	}()
	nSub, errSub := drain(subR)
	fullRes := <-fullCh
	nFull, errFull := fullRes.n, fullRes.err
	if errFull != nil || errSub != nil {
		t.Fatal(errFull, errSub)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if nFull != steps || nSub != steps {
		t.Fatalf("delivered full=%d sub=%d, want %d each", nFull, nSub, steps)
	}
	if subR.BytesReceived() >= fullR.BytesReceived() {
		t.Errorf("subset reader received %d bytes, full %d: no wire savings",
			subR.BytesReceived(), fullR.BytesReceived())
	}
	// The hub accounted the shipped frames per consumer.
	var fullWire, subWire int64
	for _, s := range h.Stats() {
		switch s.Name {
		case "full":
			fullWire = s.WireBytes
		case "sub":
			subWire = s.WireBytes
			if len(s.Arrays) != 1 || s.Arrays[0] != "a" {
				t.Errorf("sub consumer stats arrays = %v", s.Arrays)
			}
		}
	}
	if fullWire != fullR.BytesReceived() || subWire != subR.BytesReceived() {
		t.Errorf("wire accounting full=%d/%d sub=%d/%d",
			fullWire, fullR.BytesReceived(), subWire, subR.BytesReceived())
	}
}

// TestSubsetSharedFrames: two consumers with the same subset share one
// filtered marshal (the per-subset zero-copy property).
func TestSubsetSharedFrames(t *testing.T) {
	names := []string{"a", "b"}
	h := NewHub(nil)
	c1, err := h.SubscribeSpec(ConsumerSpec{Name: "s1", Policy: Block, Depth: 4, Arrays: []string{"a"}})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := h.SubscribeSpec(ConsumerSpec{Name: "s2", Policy: Block, Depth: 4, Arrays: []string{"a"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Publish(mkWideStep(1, names, 16)); err != nil {
		t.Fatal(err)
	}
	r1, err := c1.Next()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c2.Next()
	if err != nil {
		t.Fatal(err)
	}
	f1, f2 := r1.Frame(), r2.Frame()
	if len(f1) == 0 || &f1[0] != &f2[0] {
		t.Error("same-subset consumers did not share the marshaled frame")
	}
	if r1.Step() != r2.Step() {
		t.Error("same-subset consumers did not share the filtered step")
	}
	r1.Release()
	r2.Release()
	h.Close()
}
