package staging

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"nekrs-sensei/internal/adios"
)

// memSpillStore is an in-memory SpillStore for tests that don't need
// the archive package (staging cannot import it).
type memSpillStore struct {
	mu     sync.Mutex
	frames [][]byte
	failAt int // fail the Nth append (0 = never)
	closed bool
}

func (m *memSpillStore) AppendFrame(frame []byte) (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failAt > 0 && len(m.frames)+1 >= m.failAt {
		return 0, errors.New("spill store full")
	}
	m.frames = append(m.frames, append([]byte(nil), frame...))
	return int64(len(m.frames) - 1), nil
}

func (m *memSpillStore) ReadFrameInto(id int64, buf []byte) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if id < 0 || id >= int64(len(m.frames)) {
		return nil, fmt.Errorf("no record %d", id)
	}
	return append(buf[:0], m.frames[id]...), nil
}

func (m *memSpillStore) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}

func spillStep(seq, n int) *adios.Step {
	data := make([]float64, n)
	for i := range data {
		data[i] = float64(seq*n + i)
	}
	return &adios.Step{
		Step: int64(seq), Time: float64(seq),
		Attrs: map[string]string{"mesh": "mesh"},
		Vars:  []adios.Variable{adios.NewF64("array/payload", data)},
	}
}

func spillStructure() *adios.Step {
	s := spillStep(0, 8)
	s.Attrs["structure"] = "1"
	return s
}

// hubWithSpill builds a hub whose spill consumers use fresh
// memSpillStores, returning the stores by consumer name.
func hubWithSpill(stores map[string]*memSpillStore) *Hub {
	h := NewHub(nil)
	var mu sync.Mutex
	h.SetSpillFactory(func(consumer string) (SpillStore, error) {
		st := &memSpillStore{}
		mu.Lock()
		stores[consumer] = st
		mu.Unlock()
		return st, nil
	})
	return h
}

// TestSpillSlowConsumerLosesNothing is the policy's core guarantee:
// a consumer far slower than the producer receives every step, in
// order, while the producer never blocks.
func TestSpillSlowConsumerLosesNothing(t *testing.T) {
	stores := map[string]*memSpillStore{}
	h := hubWithSpill(stores)
	cons, err := h.Subscribe("slow", Spill, 2)
	if err != nil {
		t.Fatal(err)
	}

	const steps = 60
	published := make(chan struct{})
	go func() {
		defer close(published)
		h.Publish(spillStructure()) //nolint:errcheck
		for s := 1; s < steps; s++ {
			h.Publish(spillStep(s, 64)) //nolint:errcheck
		}
		h.Close()
	}()
	// The producer must finish promptly even though nobody consumes
	// yet: spill never blocks it.
	select {
	case <-published:
	case <-time.After(5 * time.Second):
		t.Fatal("producer blocked by a spill consumer")
	}
	// Let the spiller demote the whole backlog before the consumer
	// starts, so deliveries actually exercise the disk tier: of 60
	// published steps, the window holds 2, the structure defers into
	// the bootstrap slot, and the remaining 57 must reach the store.
	const wantSpilled = steps - 2 - 1
	deadline := time.Now().Add(5 * time.Second)
	for {
		stores["slow"].mu.Lock()
		n := len(stores["slow"].frames)
		stores["slow"].mu.Unlock()
		if n >= wantSpilled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("spiller persisted %d of %d", n, wantSpilled)
		}
		time.Sleep(time.Millisecond)
	}

	var got []int64
	for {
		ref, err := cons.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		st := ref.Step()
		got = append(got, st.Step)
		// Spot-check payload integrity through the disk round trip.
		if v := st.FindVar("array/payload"); v == nil || int64(v.F64[0]) != st.Step*64 && st.Step != 0 {
			t.Fatalf("step %d payload corrupted", st.Step)
		}
		ref.Release()
	}
	if len(got) != steps {
		t.Fatalf("delivered %d steps, want %d (nothing may be lost)", len(got), steps)
	}
	for i, s := range got {
		if s != int64(i) {
			t.Fatalf("out of order at %d: got step %d", i, s)
		}
	}
	if cons.Stats().Spilled == 0 || h.Spilled() == 0 {
		t.Fatal("no steps were spilled — the test did not exercise the tier")
	}
	if cons.Stats().Dropped != 0 {
		t.Fatalf("spill consumer dropped %d steps", cons.Stats().Dropped)
	}
	if err := cons.Stats().SpillErr; err != "" {
		t.Fatal(err)
	}
	if len(stores["slow"].frames) == 0 {
		t.Fatal("spill store never written")
	}
}

// TestSpillDeliversFromDisk forces every spilled step through the
// disk tier (the producer closes and the spiller drains before the
// consumer reads) and checks frames round-trip exactly.
func TestSpillDeliversFromDisk(t *testing.T) {
	stores := map[string]*memSpillStore{}
	h := hubWithSpill(stores)
	cons, err := h.Subscribe("cold", Spill, 1)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 10
	for s := 0; s < steps; s++ {
		if err := h.Publish(spillStep(s+1, 32)); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for the spiller to demote everything it can (all but the
	// in-window tail).
	deadline := time.Now().Add(5 * time.Second)
	for {
		stores["cold"].mu.Lock()
		n := len(stores["cold"].frames)
		stores["cold"].mu.Unlock()
		if n >= steps-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("spiller only persisted %d of %d", n, steps-1)
		}
		time.Sleep(time.Millisecond)
	}
	h.Close()
	for s := 0; s < steps; s++ {
		ref, err := cons.Next()
		if err != nil {
			t.Fatalf("step %d: %v", s, err)
		}
		if got := ref.Step().Step; got != int64(s+1) {
			t.Fatalf("step %d delivered as %d", s+1, got)
		}
		if len(ref.Frame()) == 0 {
			t.Fatalf("step %d has no wire frame", s+1)
		}
		ref.Release()
	}
	if _, err := cons.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF after drain, got %v", err)
	}
}

// TestSpillSubsetConsumer checks a spill consumer with a declared
// array subset still gets filtered views after the disk round trip.
func TestSpillSubsetConsumer(t *testing.T) {
	stores := map[string]*memSpillStore{}
	h := hubWithSpill(stores)
	h.SetAdvertised([]string{"a", "b"})
	cons, err := h.SubscribeSpec(ConsumerSpec{Name: "sub", Policy: Spill, Depth: 1, Arrays: []string{"b"}})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(seq int) *adios.Step {
		return &adios.Step{
			Step: int64(seq), Time: float64(seq), Attrs: map[string]string{},
			Vars: []adios.Variable{
				adios.NewF64("array/a", []float64{1, 2}),
				adios.NewF64("array/b", []float64{3, 4}),
			},
		}
	}
	for s := 0; s < 6; s++ {
		if err := h.Publish(mk(s)); err != nil {
			t.Fatal(err)
		}
	}
	h.Close()
	for s := 0; s < 6; s++ {
		ref, err := cons.Next()
		if err != nil {
			t.Fatal(err)
		}
		st := ref.Step()
		if st.FindVar("array/a") != nil {
			t.Fatalf("step %d: unrequested array delivered", s)
		}
		if st.FindVar("array/b") == nil {
			t.Fatalf("step %d: requested array missing", s)
		}
		// The wire form must decode to the same subset.
		dec, err := adios.Unmarshal(ref.Frame())
		if err != nil {
			t.Fatal(err)
		}
		if dec.FindVar("array/a") != nil || dec.FindVar("array/b") == nil {
			t.Fatalf("step %d: frame subset wrong", s)
		}
		ref.Release()
	}
}

// TestSpillStoreFailure: a dead disk stops demotion but loses
// nothing — evicted steps stay deliverable from memory and the error
// is reported.
func TestSpillStoreFailure(t *testing.T) {
	h := NewHub(nil)
	h.SetSpillFactory(func(consumer string) (SpillStore, error) {
		return &memSpillStore{failAt: 1}, nil
	})
	cons, err := h.Subscribe("bad-disk", Spill, 1)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 8
	for s := 0; s < steps; s++ {
		if err := h.Publish(spillStep(s, 16)); err != nil {
			t.Fatal(err)
		}
	}
	h.Close()
	// Wait for the spiller to hit the dead disk before draining, so
	// the delivery path below is deterministically post-failure.
	deadline := time.Now().Add(5 * time.Second)
	for cons.Stats().SpillErr == "" {
		if time.Now().After(deadline) {
			t.Fatal("spill store failure not reported")
		}
		time.Sleep(time.Millisecond)
	}
	for s := 0; s < steps; s++ {
		ref, err := cons.Next()
		if err != nil {
			t.Fatalf("step %d: %v (spill failure must not lose steps)", s, err)
		}
		if got := ref.Step().Step; got != int64(s) {
			t.Fatalf("step %d delivered as %d", s, got)
		}
		ref.Release()
	}
}

// TestSpillNeedsStore: subscribing with Spill and no factory fails
// loudly instead of silently dropping.
func TestSpillNeedsStore(t *testing.T) {
	h := NewHub(nil)
	if _, err := h.Subscribe("nostore", Spill, 2); err == nil {
		t.Fatal("spill subscription without a store accepted")
	}
}

// TestSpillStoreClosedAfterDetach: the janitor closes a Closer store
// once the consumer detached and the spiller drained.
func TestSpillStoreClosedAfterDetach(t *testing.T) {
	stores := map[string]*memSpillStore{}
	h := hubWithSpill(stores)
	cons, err := h.Subscribe("tidy", Spill, 1)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 4; s++ {
		h.Publish(spillStep(s, 8)) //nolint:errcheck
	}
	cons.Close()
	h.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		stores["tidy"].mu.Lock()
		closed := stores["tidy"].closed
		stores["tidy"].mu.Unlock()
		if closed {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("spill store never closed after detach")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSpillConcurrentChurn races a fast producer against several
// spill and block consumers (run under -race in CI).
func TestSpillConcurrentChurn(t *testing.T) {
	stores := map[string]*memSpillStore{}
	h := hubWithSpill(stores)
	const steps, consumers = 40, 3
	var wg sync.WaitGroup
	counts := make([]int, consumers)
	errs := make([]error, consumers)
	for i := 0; i < consumers; i++ {
		cons, err := h.Subscribe(fmt.Sprintf("c%d", i), Spill, 1+i)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, cons *Consumer) {
			defer wg.Done()
			prev := int64(-1)
			for {
				ref, err := cons.Next()
				if errors.Is(err, io.EOF) {
					return
				}
				if err != nil {
					errs[i] = err
					return
				}
				if st := ref.Step(); st.Step <= prev {
					errs[i] = fmt.Errorf("order violated: %d after %d", st.Step, prev)
				} else {
					prev = st.Step
				}
				counts[i]++
				if i == 0 {
					time.Sleep(200 * time.Microsecond) // one slow consumer
				}
				ref.Release()
			}
		}(i, cons)
	}
	for s := 0; s < steps; s++ {
		if err := h.Publish(spillStep(s, 128)); err != nil {
			t.Fatal(err)
		}
	}
	h.Close()
	wg.Wait()
	for i := 0; i < consumers; i++ {
		if errs[i] != nil {
			t.Fatalf("consumer %d: %v", i, errs[i])
		}
		if counts[i] != steps {
			t.Fatalf("consumer %d got %d of %d steps", i, counts[i], steps)
		}
	}
}
