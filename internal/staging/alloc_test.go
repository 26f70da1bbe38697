package staging

import (
	"bytes"
	"fmt"
	"testing"

	"nekrs-sensei/internal/adios"
)

// allocStep builds one steady-state step (no structure) with the given
// number of 64-float arrays.
func allocStep(seq int, arrays int) *adios.Step {
	s := &adios.Step{
		Step: int64(seq), Time: float64(seq),
		Attrs: map[string]string{"mesh": "mesh"},
	}
	for i := 0; i < arrays; i++ {
		data := make([]float64, 64)
		for j := range data {
			data[j] = float64(seq*64 + j)
		}
		s.Vars = append(s.Vars, adios.NewF64(fmt.Sprintf("array/a%d", i), data))
	}
	return s
}

// TestFrameHeldAcrossStepsNotRecycled pins the pool-correctness
// property the network pump depends on: a frame obtained through a
// held StepRef keeps its contents — bit for bit — while later steps
// are published, marshaled, and released around it, and only recycles
// once the holder releases.
func TestFrameHeldAcrossStepsNotRecycled(t *testing.T) {
	hub := NewHub(nil)
	held, err := hub.Subscribe("held", Block, 16)
	if err != nil {
		t.Fatal(err)
	}
	churn, err := hub.Subscribe("churn", Block, 16)
	if err != nil {
		t.Fatal(err)
	}

	first := allocStep(0, 4)
	if err := hub.Publish(first); err != nil {
		t.Fatal(err)
	}
	ref, err := held.Next()
	if err != nil {
		t.Fatal(err)
	}
	frame := ref.Frame()
	want := append([]byte(nil), frame...)

	// Churn the hub: the other consumer drains (and marshals, as the
	// network pump would) ten more steps, all fully released — so after
	// its own release of step 0, only `held`'s reference keeps the
	// frame alive, and none of the churned frames may reuse its buffer.
	for i := 1; i <= 10; i++ {
		if err := hub.Publish(allocStep(i, 4)); err != nil {
			t.Fatal(err)
		}
		cr, err := churn.Next()
		if err != nil {
			t.Fatal(err)
		}
		_ = cr.Frame()
		cr.Release()
	}

	if !bytes.Equal(ref.Frame(), want) {
		t.Fatal("held frame's contents changed while other steps churned")
	}
	if !bytes.Equal(ref.Frame(), adios.Marshal(first)) {
		t.Fatal("held frame no longer matches its step's wire form")
	}
	ref.Release()
	ref.Release() // double release must not double-recycle
	hub.Close()
}

// TestStepRefDoubleRelease ensures a consumer's defensive double
// Release does not return the hub reference (or the pooled frame)
// twice.
func TestStepRefDoubleRelease(t *testing.T) {
	hub := NewHub(nil)
	a, err := hub.Subscribe("a", Block, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := hub.Subscribe("b", Block, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := hub.Publish(allocStep(0, 2)); err != nil {
		t.Fatal(err)
	}
	ra, err := a.Next()
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), ra.Frame()...)
	ra.Release()
	ra.Release() // second release must not free b's reference
	rb, err := b.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rb.Frame(), want) {
		t.Fatal("frame freed while second consumer still held its reference")
	}
	rb.Release()
	hub.Close()
}

// steadyAllocBudget is the CI gate for the zero-allocation steady
// state: heap allocations per hub publish→consume→frame step, after
// warmup. The loop's true steady cost is 4 (entry, its scanned Vars,
// frame header, ref; the scan reuses the previous step's names), 7
// with a codec; 8 leaves headroom for runtime noise without letting a
// per-array or per-byte regression through.
const steadyAllocBudget = 8

// TestSteadyStateAllocBudget fails if the hub publish→consume loop
// allocates more than the budget per step in the steady state — the
// regression gate for the pooled-frame data plane.
func TestSteadyStateAllocBudget(t *testing.T) {
	hub := NewHub(nil)
	cons, err := hub.Subscribe("gate", Block, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	step := allocStep(2, 6)
	iter := func() {
		if err := hub.Publish(step); err != nil {
			t.Fatal(err)
		}
		ref, err := cons.Next()
		if err != nil {
			t.Fatal(err)
		}
		_ = ref.Frame()
		ref.Release()
	}
	// Warm the ring, the frame pool, and the marshal path.
	for i := 0; i < 8; i++ {
		iter()
	}
	avg := testing.AllocsPerRun(200, iter)
	if avg > steadyAllocBudget {
		t.Errorf("steady-state hub publish->consume allocates %.1f/step, budget %d", avg, steadyAllocBudget)
	}
}

// TestSteadyStateAllocBudgetCompressed holds the compressed data
// plane to the same per-step allocation budget as the plain one: the
// encoder's scratch and the pooled frames must reuse their storage
// once warm.
func TestSteadyStateAllocBudgetCompressed(t *testing.T) {
	for _, codecs := range [][]string{
		{"transpose-delta"},
		{"quantize:1e-6"},
	} {
		t.Run(codecs[0], func(t *testing.T) {
			hub := NewHub(nil)
			cons, err := hub.SubscribeSpec(ConsumerSpec{Name: "gate", Policy: Block, Depth: 4, Codecs: codecs})
			if err != nil {
				t.Fatal(err)
			}
			defer hub.Close()
			step := allocStep(2, 6)
			iter := func() {
				if err := hub.Publish(step); err != nil {
					t.Fatal(err)
				}
				ref, err := cons.Next()
				if err != nil {
					t.Fatal(err)
				}
				_ = ref.Frame()
				ref.Release()
			}
			for i := 0; i < 8; i++ {
				iter()
			}
			avg := testing.AllocsPerRun(200, iter)
			if avg > steadyAllocBudget {
				t.Errorf("compressed steady state allocates %.1f/step, budget %d", avg, steadyAllocBudget)
			}
		})
	}
}

// BenchmarkHubPublishConsume measures the steady-state loop with
// -benchmem so alloc regressions show up in CI bench output.
func BenchmarkHubPublishConsume(b *testing.B) {
	hub := NewHub(nil)
	cons, err := hub.Subscribe("bench", Block, 4)
	if err != nil {
		b.Fatal(err)
	}
	defer hub.Close()
	step := allocStep(2, 6)
	for i := 0; i < 4; i++ {
		if err := hub.Publish(step); err != nil {
			b.Fatal(err)
		}
		ref, err := cons.Next()
		if err != nil {
			b.Fatal(err)
		}
		_ = ref.Frame()
		ref.Release()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := hub.Publish(step); err != nil {
			b.Fatal(err)
		}
		ref, err := cons.Next()
		if err != nil {
			b.Fatal(err)
		}
		_ = ref.Frame()
		ref.Release()
	}
}
