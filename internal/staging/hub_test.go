package staging

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"nekrs-sensei/internal/adios"
	"nekrs-sensei/internal/metrics"
)

// mkStep builds a synthetic step; seq 0 carries the structure marker
// like the adaptor's first publish.
func mkStep(seq int) *adios.Step {
	s := &adios.Step{
		Step:  int64(seq),
		Time:  float64(seq) * 0.1,
		Attrs: map[string]string{},
		Vars:  []adios.Variable{adios.NewF64("array/p", []float64{float64(seq), 1, 2, 3})},
	}
	if seq == 0 {
		s.Attrs["structure"] = "1"
	}
	return s
}

func TestParsePolicy(t *testing.T) {
	cases := map[string]Policy{"block": Block, "": Block, "drop-oldest": DropOldest, "spill": Spill}
	for in, want := range cases {
		got, err := ParsePolicy(in)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	// One spelling per policy: the aliases are refused, and the retired
	// latest-only is refused naming the spec that replaces it.
	for _, in := range []string{"bogus", "drop_oldest", "dropoldest", "latest", "latest_only", "latestonly"} {
		if _, err := ParsePolicy(in); err == nil {
			t.Errorf("ParsePolicy(%q) accepted", in)
		}
	}
	if _, err := ParsePolicy("latest-only"); err == nil || !strings.Contains(err.Error(), "drop-oldest:1") {
		t.Errorf("ParsePolicy(latest-only) = %v, want a refusal naming drop-oldest:1", err)
	}
	for _, p := range []Policy{Block, DropOldest, Spill} {
		if got, err := ParsePolicy(p.String()); err != nil || got != p {
			t.Errorf("policy %d does not round-trip its name %q", p, p.String())
		}
	}
}

func TestParseConsumers(t *testing.T) {
	specs, err := ParseConsumers("hist:block:2, probe:drop-oldest:4 ,render:drop-oldest:1, sub:block:2:pressure+velocity_x")
	if err != nil {
		t.Fatal(err)
	}
	want := []ConsumerSpec{
		{Name: "hist", Policy: Block, Depth: 2},
		{Name: "probe", Policy: DropOldest, Depth: 4},
		{Name: "render", Policy: DropOldest, Depth: 1},
		{Name: "sub", Policy: Block, Depth: 2, Arrays: []string{"pressure", "velocity_x"}},
	}
	if len(specs) != len(want) {
		t.Fatalf("got %d specs", len(specs))
	}
	for i := range want {
		if !reflect.DeepEqual(specs[i], want[i]) {
			t.Errorf("spec %d = %+v, want %+v", i, specs[i], want[i])
		}
	}
	for _, bad := range []string{"a:block:0", "a:warp", ":block", "a,a", "a:block:2:", "a:block:2:x:y"} {
		if _, err := ParseConsumers(bad); err == nil {
			t.Errorf("ParseConsumers(%q): expected error", bad)
		}
	}
	if specs, err := ParseConsumers(""); err != nil || len(specs) != 0 {
		t.Errorf("empty spec = %v, %v", specs, err)
	}
}

// TestBlockPolicy: the producer stalls once a block consumer lags a
// full window, and resumes when the consumer drains — the paper's
// synchronous SST semantics.
func TestBlockPolicy(t *testing.T) {
	h := NewHub(nil)
	c, err := h.Subscribe("sink", Block, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := h.Publish(mkStep(i)); err != nil {
			t.Fatal(err)
		}
	}
	published := make(chan error, 1)
	go func() { published <- h.Publish(mkStep(2)) }()
	select {
	case err := <-published:
		t.Fatalf("third publish did not block (err=%v)", err)
	case <-time.After(100 * time.Millisecond):
	}
	ref, err := c.Next()
	if err != nil {
		t.Fatal(err)
	}
	if ref.Step().Step != 0 {
		t.Errorf("got step %d, want 0", ref.Step().Step)
	}
	ref.Release()
	select {
	case err := <-published:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("publish still blocked after consumer drained")
	}
	h.Close()
	for want := int64(1); ; want++ {
		ref, err := c.Next()
		if errors.Is(err, io.EOF) {
			if want != 3 {
				t.Errorf("EOF after step %d, want after 2", want-1)
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if ref.Step().Step != want {
			t.Errorf("got step %d, want %d", ref.Step().Step, want)
		}
		ref.Release()
	}
	if c.Stats().Delivered != 3 || c.Stats().Dropped != 0 {
		t.Errorf("delivered=%d dropped=%d", c.Stats().Delivered, c.Stats().Dropped)
	}
}

// TestDropOldestPolicy: a bounded window drops the oldest undelivered
// steps; the producer never blocks.
func TestDropOldestPolicy(t *testing.T) {
	h := NewHub(nil)
	c, err := h.Subscribe("lossy", DropOldest, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := h.Publish(mkStep(i)); err != nil {
			t.Fatal(err) // must never block
		}
	}
	h.Close()
	var got []int64
	for {
		ref, err := c.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, ref.Step().Step)
		ref.Release()
	}
	// Step 0 carries the structure, so a drop policy defers it rather
	// than losing it; steps 1-3 are dropped.
	if len(got) != 3 || got[0] != 0 || got[1] != 4 || got[2] != 5 {
		t.Errorf("delivered %v, want [0 4 5]", got)
	}
	if c.Stats().Dropped != 3 || h.Dropped() != 3 {
		t.Errorf("dropped = %d (hub %d), want 3", c.Stats().Dropped, h.Dropped())
	}
}

// TestDropOldestWindowOfOne: a drop-oldest window of one always sees
// the freshest step.
func TestDropOldestWindowOfOne(t *testing.T) {
	h := NewHub(nil)
	c, err := h.Subscribe("viz", DropOldest, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := h.Publish(mkStep(i)); err != nil {
			t.Fatal(err)
		}
	}
	// The deferred structure step is delivered first, then the
	// freshest data step.
	ref, err := c.Next()
	if err != nil {
		t.Fatal(err)
	}
	if ref.Step().Step != 0 || ref.Step().Attrs["structure"] != "1" {
		t.Errorf("got step %d, want the deferred structure step", ref.Step().Step)
	}
	ref.Release()
	ref, err = c.Next()
	if err != nil {
		t.Fatal(err)
	}
	if ref.Step().Step != 4 {
		t.Errorf("got step %d, want freshest (4)", ref.Step().Step)
	}
	ref.Release()
	h.Close()
	if _, err := c.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("want EOF, got %v", err)
	}
	if c.Stats().Dropped != 3 {
		t.Errorf("dropped = %d, want 3 (structure step deferred, not dropped)", c.Stats().Dropped)
	}
}

// TestAccounting: staged bytes are allocated once per step regardless
// of consumer count and fully freed once every reference is released.
func TestAccounting(t *testing.T) {
	acct := metrics.NewAccountant()
	h := NewHub(acct)
	var cs []*Consumer
	for i := 0; i < 3; i++ {
		c, err := h.Subscribe(fmt.Sprintf("c%d", i), Block, 8)
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, c)
	}
	var stepBytes int64
	for i := 0; i < 4; i++ {
		s := mkStep(i)
		stepBytes += s.Bytes()
		if err := h.Publish(s); err != nil {
			t.Fatal(err)
		}
	}
	// Zero-copy fan-out: in-use bytes are per published step, not per
	// consumer-step.
	if got := acct.CategoryInUse("staging-hub"); got != stepBytes {
		t.Errorf("in-use = %d, want %d (one allocation per step)", got, stepBytes)
	}
	h.Close()
	for _, c := range cs {
		for {
			ref, err := c.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			ref.Release()
			ref.Release() // double release must be a no-op
		}
	}
	if got := acct.CategoryInUse("staging-hub"); got != 0 {
		t.Errorf("in-use after drain = %d, want 0", got)
	}
}

// TestBootstrapLateSubscribe: a consumer attaching mid-stream still
// receives the retained structure step first.
func TestBootstrapLateSubscribe(t *testing.T) {
	acct := metrics.NewAccountant()
	h := NewHub(acct)
	early, err := h.Subscribe("early", DropOldest, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := h.Publish(mkStep(i)); err != nil {
			t.Fatal(err)
		}
	}
	late, err := h.Subscribe("late", Block, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Publish(mkStep(3)); err != nil {
		t.Fatal(err)
	}
	h.Close()

	ref, err := late.Next()
	if err != nil {
		t.Fatal(err)
	}
	if ref.Step().Attrs["structure"] != "1" || ref.Step().Step != 0 {
		t.Errorf("late consumer's first step = %d (structure=%q), want the bootstrap",
			ref.Step().Step, ref.Step().Attrs["structure"])
	}
	ref.Release()
	ref, err = late.Next()
	if err != nil {
		t.Fatal(err)
	}
	if ref.Step().Step != 3 {
		t.Errorf("late consumer's second step = %d, want 3", ref.Step().Step)
	}
	ref.Release()
	if _, err := late.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("want EOF, got %v", err)
	}
	for {
		ref, err := early.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		ref.Release()
	}
	if got := acct.CategoryInUse("staging-hub"); got != 0 {
		t.Errorf("in-use after drain = %d, want 0", got)
	}
}

func TestPublishSubscribeAfterClose(t *testing.T) {
	h := NewHub(nil)
	h.Close()
	h.Close() // idempotent
	if err := h.Publish(mkStep(0)); !errors.Is(err, ErrClosed) {
		t.Errorf("publish after close = %v, want ErrClosed", err)
	}
	if _, err := h.Subscribe("x", Block, 1); !errors.Is(err, ErrClosed) {
		t.Errorf("subscribe after close = %v, want ErrClosed", err)
	}
}

func TestConsumerClose(t *testing.T) {
	h := NewHub(nil)
	slow, err := h.Subscribe("slow", Block, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Publish(mkStep(0)); err != nil {
		t.Fatal(err)
	}
	// The producer is now blocked on "slow"; closing the consumer must
	// unblock it.
	published := make(chan error, 1)
	go func() { published <- h.Publish(mkStep(1)) }()
	time.Sleep(50 * time.Millisecond)
	slow.Close()
	slow.Close() // idempotent
	select {
	case err := <-published:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("publish still blocked after consumer close")
	}
	if _, err := slow.Next(); errors.Is(err, io.EOF) || err == nil {
		t.Errorf("closed consumer Next = %v, want consumer-closed error", err)
	}
}

// TestFanoutConcurrent is the multi-goroutine fan-out test for the
// race detector: one producer, five consumers with mixed policies,
// each drained by its own goroutine.
func TestFanoutConcurrent(t *testing.T) {
	const steps = 50
	acct := metrics.NewAccountant()
	h := NewHub(acct)

	type result struct {
		name string
		got  []int64
		err  error
	}
	specs := []struct {
		name   string
		policy Policy
		depth  int
	}{
		{"block-a", Block, 2},
		{"block-b", Block, 4},
		{"drop", DropOldest, 3},
		{"latest", DropOldest, 1},
		{"wide", DropOldest, 16},
	}
	results := make([]result, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		c, err := h.Subscribe(spec.name, spec.policy, spec.depth)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, name string, c *Consumer) {
			defer wg.Done()
			res := result{name: name}
			for {
				ref, err := c.Next()
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					res.err = err
					break
				}
				res.got = append(res.got, ref.Step().Step)
				ref.Release()
			}
			results[i] = res
		}(i, spec.name, c)
	}

	for i := 0; i < steps; i++ {
		if err := h.Publish(mkStep(i)); err != nil {
			t.Fatal(err)
		}
	}
	h.Close()
	wg.Wait()

	for _, res := range results {
		if res.err != nil {
			t.Fatalf("%s: %v", res.name, res.err)
		}
		if len(res.got) == 0 {
			t.Fatalf("%s: received nothing", res.name)
		}
		for j := 1; j < len(res.got); j++ {
			if res.got[j] <= res.got[j-1] {
				t.Fatalf("%s: out of order at %d: %v", res.name, j, res.got)
			}
		}
		if last := res.got[len(res.got)-1]; last != steps-1 {
			t.Errorf("%s: last step %d, want %d", res.name, last, steps-1)
		}
	}
	// Block consumers must have seen every step.
	for _, i := range []int{0, 1} {
		if len(results[i].got) != steps {
			t.Errorf("%s: got %d steps, want all %d", results[i].name, len(results[i].got), steps)
		}
	}
	if h.Published() != steps {
		t.Errorf("published = %d", h.Published())
	}
	if got := acct.CategoryInUse("staging-hub"); got != 0 {
		t.Errorf("in-use after drain = %d, want 0", got)
	}
	if len(h.Stats()) != len(specs) {
		t.Errorf("stats rows = %d", len(h.Stats()))
	}
}

// TestBeginStepSource: the consumer satisfies the intransit.StepSource
// shape, releasing the previous reference on each call.
func TestBeginStepSource(t *testing.T) {
	acct := metrics.NewAccountant()
	h := NewHub(acct)
	c, err := h.Subscribe("src", Block, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := h.Publish(mkStep(i)); err != nil {
			t.Fatal(err)
		}
	}
	h.Close()
	for i := 0; i < 3; i++ {
		s, err := c.BeginStep()
		if err != nil {
			t.Fatal(err)
		}
		if s.Step != int64(i) {
			t.Errorf("step %d: got %d", i, s.Step)
		}
	}
	if _, err := c.BeginStep(); !errors.Is(err, io.EOF) {
		t.Errorf("want EOF, got %v", err)
	}
	if got := acct.CategoryInUse("staging-hub"); got != 0 {
		t.Errorf("in-use after EOF = %d, want 0", got)
	}
}
