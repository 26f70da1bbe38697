package staging

import (
	"context"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"nekrs-sensei/internal/adios"
	"nekrs-sensei/internal/telemetry"
)

// TestSteadyStateAllocBudgetTelemetry is TestSteadyStateAllocBudget
// with the telemetry plane attached: counters and trace stamps on the
// hot path must fit in the same per-step allocation budget, so turning
// observability on cannot cost the PR 4 zero-allocation steady state.
func TestSteadyStateAllocBudgetTelemetry(t *testing.T) {
	hub := NewHub(nil)
	hub.SetTelemetry(telemetry.New("alloc-gate"), "gate")
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
	for i := 0; i < 8; i++ {
		iter()
	}
	avg := testing.AllocsPerRun(200, iter)
	if avg > steadyAllocBudget {
		t.Errorf("telemetry-on steady state allocates %.1f/step, budget %d", avg, steadyAllocBudget)
	}
}

// TestConsumerStatsSnapshot pins the /statusz lag semantics: lag is
// the ring distance behind the producer plus spill-queue depth, a
// closed consumer reports zero, and cursors advance with delivery.
func TestConsumerStatsSnapshot(t *testing.T) {
	hub := NewHub(nil)
	ahead, err := hub.Subscribe("ahead", Block, 8)
	if err != nil {
		t.Fatal(err)
	}
	behind, err := hub.Subscribe("behind", Block, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := hub.Publish(mkStep(i)); err != nil {
			t.Fatal(err)
		}
	}
	// ahead drains 3 of 5; behind drains none.
	for i := 0; i < 3; i++ {
		ref, err := ahead.Next()
		if err != nil {
			t.Fatal(err)
		}
		ref.Release()
	}

	byName := func(stats []ConsumerStats, name string) ConsumerStats {
		t.Helper()
		for _, c := range stats {
			if c.Name == name {
				return c
			}
		}
		t.Fatalf("no consumer %q in %+v", name, stats)
		return ConsumerStats{}
	}
	st := hub.Status()
	if st.Published != 5 || st.Closed {
		t.Errorf("status = published %d closed %v, want 5 false", st.Published, st.Closed)
	}
	a := byName(st.Consumers, "ahead")
	if a.Cursor != 3 || a.Lag != 2 || a.Delivered != 3 || a.SpillQueue != 0 {
		t.Errorf("ahead = cursor %d lag %d delivered %d spillq %d, want 3 2 3 0",
			a.Cursor, a.Lag, a.Delivered, a.SpillQueue)
	}
	b := byName(st.Consumers, "behind")
	if b.Cursor != 0 || b.Lag != 5 {
		t.Errorf("behind = cursor %d lag %d, want 0 5", b.Cursor, b.Lag)
	}

	// Closing a consumer zeroes its reported lag.
	behind.Close()
	b = byName(hub.Stats(), "behind")
	if !b.Closed || b.Lag != 0 {
		t.Errorf("closed behind = closed %v lag %d, want true 0", b.Closed, b.Lag)
	}

	hub.Close()
}

// TestHubTelemetryCounters verifies the hot-path counters the hub
// mirrors into the registry and the /statusz section it registers.
func TestHubTelemetryCounters(t *testing.T) {
	tel := telemetry.New("hub-test")
	hub := NewHub(nil)
	hub.SetTelemetry(tel, "rank-0")
	cons, err := hub.Subscribe("viz", DropOldest, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Publish 4 without consuming: a window of one drops all but the newest.
	for i := 0; i < 4; i++ {
		if err := hub.Publish(mkStep(i)); err != nil {
			t.Fatal(err)
		}
	}
	// First Next delivers the deferred bootstrap (step 0), the second
	// the surviving latest step. Frame() marshals on demand, stamping
	// StageMarshal for each.
	for i := 0; i < 2; i++ {
		ref, err := cons.Next()
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			t.Fatal("no step ready")
		}
		_ = ref.Frame()
		ref.Release()
	}
	hub.Close()

	reg := tel.Registry()
	if got := reg.Counter("staging_published_steps_total", "hub", "rank-0").Value(); got != 4 {
		t.Errorf("published counter = %d, want 4", got)
	}
	if got := reg.Counter("staging_dropped_steps_total", "hub", "rank-0").Value(); got != hub.Dropped() || got == 0 {
		t.Errorf("dropped counter = %d, want hub total %d (nonzero)", got, hub.Dropped())
	}
	// Marshal/publish stamps landed in the process trace ring.
	traces := tel.Tracer().Snapshot()
	if len(traces) != 4 {
		t.Fatalf("trace ring has %d steps, want 4", len(traces))
	}
	for _, want := range []string{"marshal", "publish"} {
		if _, ok := traces[3].Stamps[want]; !ok {
			t.Errorf("step %d trace missing %q stamp: %+v", traces[3].Step, want, traces[3].Stamps)
		}
	}
	// The /statusz section carries the hub snapshot.
	doc, err := fetchOwnStatusz(tel)
	if err != nil {
		t.Fatal(err)
	}
	raw, ok := doc.Status["staging-hub/rank-0"]
	if !ok {
		t.Fatalf("statusz missing staging-hub section: %v", doc.Status)
	}
	if !strings.Contains(string(raw), `"published": 4`) &&
		!strings.Contains(string(raw), `"published":4`) {
		t.Errorf("hub section lacks published total: %s", raw)
	}
}

func fetchOwnStatusz(tel *telemetry.Telemetry) (*telemetry.Statusz, error) {
	exp, err := tel.Serve("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer exp.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return telemetry.FetchStatusz(ctx, exp.Addr())
}

// TestCrossProcessTrace is the end-to-end observability check: a
// producer-side telemetry plane (hub + server) and a consumer-side
// plane (network reader) each record their half of a step's journey
// over the real SST wire, both expose it over HTTP, and merging the
// two /statusz trace rings yields one contiguous
// marshal→publish→deliver→decode timeline keyed by the step ordinal.
func TestCrossProcessTrace(t *testing.T) {
	telProd := telemetry.New("producer")
	hub := NewHub(nil)
	hub.SetTelemetry(telProd, "rank-0")
	srv, err := Serve(hub, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	telCons := telemetry.New("endpoint")
	r, err := adios.OpenReaderWith(srv.Addr(), adios.ReaderOptions{
		Consumer: "trace", Policy: "block", Depth: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.SetTelemetry(telCons, "source", "0")

	waitFor(t, func() bool {
		hub.mu.Lock()
		defer hub.mu.Unlock()
		return len(hub.consumers) == 1
	})
	const steps = 6
	var (
		got     []int64
		readErr error
		done    = make(chan struct{})
	)
	go func() {
		defer close(done)
		defer r.Close()
		for {
			s, err := r.BeginStep()
			if errors.Is(err, io.EOF) {
				return
			}
			if err != nil {
				readErr = err
				return
			}
			got = append(got, s.Step)
		}
	}()
	for i := 0; i < steps; i++ {
		telProd.Tracer().Stamp(int64(i), telemetry.StageCompute)
		if err := hub.Publish(mkStep(i)); err != nil {
			t.Fatal(err)
		}
	}
	hub.Close()
	<-done
	if readErr != nil {
		t.Fatal(readErr)
	}
	if len(got) != steps {
		t.Fatalf("block reader saw %d of %d steps", len(got), steps)
	}

	// Both exporters are live; join the two halves of the pipeline from
	// the producer's /statusz and the consumer's own ring.
	prodDoc, err := fetchOwnStatusz(telProd)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := prodDoc.Status["staging-hub/rank-0"]; !ok {
		t.Fatalf("producer statusz missing hub section: %v", prodDoc.Status)
	}
	// The two rings are the two halves of each step: the producer's
	// stages on its /statusz, the consumer's in its own ring.
	halves := []struct {
		ring   []telemetry.StepTrace
		stages []string
	}{
		{prodDoc.Traces, []string{"compute", "marshal", "publish"}},
		{telCons.Tracer().Snapshot(), []string{"deliver", "decode"}},
	}
	for _, h := range halves {
		if len(h.ring) != steps {
			t.Fatalf("ring with %v has %d steps, want %d", h.stages, len(h.ring), steps)
		}
		for _, tr := range h.ring {
			for _, stage := range h.stages {
				if _, ok := tr.Stamps[stage]; !ok {
					t.Errorf("step %d missing %q: %+v", tr.Step, stage, tr.Stamps)
				}
			}
		}
	}
	// Stage ordering holds across the halves of every step: Publish
	// marshals before the step enters the ring, so compute ≤ marshal ≤
	// publish ≤ deliver, and deliver is no later than decode.
	for i, prod := range prodDoc.Traces {
		cons := halves[1].ring[i]
		if prod.Step != cons.Step {
			t.Fatalf("trace %d: producer step %d, consumer step %d", i, prod.Step, cons.Step)
		}
		order := []int64{prod.Stamps["compute"], prod.Stamps["marshal"], prod.Stamps["publish"],
			cons.Stamps["deliver"], cons.Stamps["decode"]}
		for j := 1; j < len(order); j++ {
			if order[j-1] > order[j] {
				t.Errorf("step %d: stamps %v out of compute ≤ marshal ≤ publish ≤ deliver ≤ decode order", prod.Step, order)
				break
			}
		}
	}
}
