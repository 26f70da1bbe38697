package telemetry

import (
	"sync"
	"testing"
	"time"
)

func TestStageNames(t *testing.T) {
	for s := Stage(0); s < NumStages; s++ {
		name := s.String()
		if name == "unknown" || name == "" {
			t.Errorf("stage %d has no name", s)
		}
		got, ok := StageFromString(name)
		if !ok || got != s {
			t.Errorf("StageFromString(%q) = (%v, %v), want (%v, true)", name, got, ok, s)
		}
	}
	if Stage(-1).String() != "unknown" || NumStages.String() != "unknown" {
		t.Error("out-of-range stage did not report unknown")
	}
	if _, ok := StageFromString("bogus"); ok {
		t.Error("StageFromString accepted an unknown name")
	}
}

func TestTracerStampAndSnapshot(t *testing.T) {
	tr := NewStepTracer(8)
	tr.Stamp(3, StageCompute)
	tr.Stamp(3, StageMarshal)
	tr.Stamp(5, StagePublish)
	traces := tr.Snapshot()
	if len(traces) != 2 {
		t.Fatalf("snapshot has %d traces, want 2", len(traces))
	}
	if traces[0].Step != 3 || traces[1].Step != 5 {
		t.Errorf("snapshot steps = %d, %d; want 3, 5 (sorted)", traces[0].Step, traces[1].Step)
	}
	if traces[0].Stages != 2 || traces[1].Stages != 1 {
		t.Errorf("stage counts = %d, %d; want 2, 1", traces[0].Stages, traces[1].Stages)
	}
	if _, ok := traces[0].Stamps["compute"]; !ok {
		t.Error("step 3 missing compute stamp")
	}
	if d, ok := traces[0].Latency(StageCompute, StageMarshal); !ok || d < 0 {
		t.Errorf("latency = (%v, %v), want ok and >= 0", d, ok)
	}
	if _, ok := traces[0].Latency(StageCompute, StageRender); ok {
		t.Error("latency reported ok for a missing stage")
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr := NewStepTracer(4)
	tr.Stamp(1, StageCompute)
	tr.Stamp(5, StageMarshal) // same slot (5 mod 4 == 1 mod 4): newer wins
	var steps []int64
	for _, x := range tr.Snapshot() {
		steps = append(steps, x.Step)
	}
	if len(steps) != 1 || steps[0] != 5 {
		t.Fatalf("snapshot steps = %v, want [5]", steps)
	}
	// Straggler stamp for the evicted step must be dropped, not
	// misattributed to step 5.
	tr.Stamp(1, StageRender)
	traces := tr.Snapshot()
	if len(traces) != 1 || traces[0].Step != 5 {
		t.Fatalf("straggler changed ring contents: %+v", traces)
	}
	if _, ok := traces[0].Stamps["render"]; ok {
		t.Error("straggler stamp leaked into newer step")
	}
}

func TestTracerStampAt(t *testing.T) {
	tr := NewStepTracer(4)
	at := time.Unix(100, 500)
	tr.StampAt(2, StageDeliver, at)
	traces := tr.Snapshot()
	if len(traces) != 1 {
		t.Fatal("no trace recorded")
	}
	if got := traces[0].Stamps["deliver"]; got != at.UnixNano() {
		t.Errorf("deliver stamp = %d, want %d", got, at.UnixNano())
	}
}

func TestTracerNilAndBadInput(t *testing.T) {
	var tr *StepTracer
	tr.Stamp(1, StageCompute) // must not panic
	if tr.Snapshot() != nil {
		t.Error("nil tracer snapshot not nil")
	}
	live := NewStepTracer(2)
	live.Stamp(-1, StageCompute)
	live.Stamp(1, Stage(-1))
	live.Stamp(1, NumStages)
	if len(live.Snapshot()) != 0 {
		t.Error("bad inputs recorded a trace")
	}
}

// TestTracerConcurrent stamps one ring from many goroutines while
// snapshots run — the producer/pump/scrape interleaving, checked
// under -race.
func TestTracerConcurrent(t *testing.T) {
	tr := NewStepTracer(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr.Stamp(int64(i), Stage(g%int(NumStages)))
				if i%40 == 0 {
					_ = tr.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	if traces := tr.Snapshot(); len(traces) == 0 || len(traces) > 16 {
		t.Errorf("snapshot has %d traces, want 1..16", len(traces))
	}
}
