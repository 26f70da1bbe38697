package telemetry

import (
	"sort"
	"sync"
	"time"
)

// Stage is one stop on a step's path through the pipeline. The stamps
// are keyed by the step ordinal already carried on the wire
// (adios.Step.Step), so tracing needs no frame-format change.
type Stage int

const (
	StageCompute Stage = iota // simulation solve produced the step
	StageMarshal              // step encoded to its wire frame
	StagePublish              // frame entered the hub / writer queue
	StageDeliver              // consumer received the step's bytes
	StageDecode               // frame decoded back into a step
	StagePull                 // endpoint pulled arrays through SENSEI
	StageAnalyze              // analyses executed on the pulled step
	StageRender               // composite/render (catalyst) finished
	NumStages
)

var stageNames = [NumStages]string{
	"compute", "marshal", "publish", "deliver",
	"decode", "pull", "analyze", "render",
}

// String reports the stage's wire/JSON name.
func (s Stage) String() string {
	if s < 0 || s >= NumStages {
		return "unknown"
	}
	return stageNames[s]
}

// StageFromString resolves a stage name (the inverse of String);
// ok is false for unknown names.
func StageFromString(name string) (Stage, bool) {
	for i, n := range stageNames {
		if n == name {
			return Stage(i), true
		}
	}
	return 0, false
}

// traceSlot is one ring entry: a step ordinal and its wall-clock
// stamps (unix nanos; 0 = stage not reached).
type traceSlot struct {
	used   bool
	step   int64
	stamps [NumStages]int64
}

// StepTracer keeps the last N step traces in a ring indexed by step
// ordinal. Stamps are last-write-wins within a step, and a slot is
// only reclaimed by a newer step, so stragglers cannot roll the ring
// backwards. All methods are nil-receiver safe.
type StepTracer struct {
	mu    sync.Mutex
	slots []traceSlot
}

// DefaultTraceRing is the ring size used when NewStepTracer is given
// n <= 0.
const DefaultTraceRing = 64

// NewStepTracer returns a tracer holding the last n step traces.
func NewStepTracer(n int) *StepTracer {
	if n <= 0 {
		n = DefaultTraceRing
	}
	return &StepTracer{slots: make([]traceSlot, n)}
}

// Stamp records "stage reached now" for the given step ordinal.
func (t *StepTracer) Stamp(step int64, stage Stage) {
	t.StampAt(step, stage, time.Now())
}

// StampAt records a stage stamp with an explicit time — used when the
// event time was captured before the step ordinal was known (e.g. a
// reader stamps deliver with the pre-decode receive time).
func (t *StepTracer) StampAt(step int64, stage Stage, at time.Time) {
	if t == nil || step < 0 || stage < 0 || stage >= NumStages {
		return
	}
	t.mu.Lock()
	slot := &t.slots[step%int64(len(t.slots))]
	switch {
	case !slot.used || slot.step < step:
		*slot = traceSlot{used: true, step: step}
	case slot.step > step:
		t.mu.Unlock()
		return // straggler from an evicted step: drop
	}
	slot.stamps[stage] = at.UnixNano()
	t.mu.Unlock()
}

// StepTrace is the queryable form of one step's stamps.
type StepTrace struct {
	Step int64 `json:"step"`
	// Stamps maps stage name -> unix nanos (only stages reached).
	Stamps map[string]int64 `json:"stamps_unix_ns"`
	// Stages counts the stamps present; SpanMs is last-first in
	// milliseconds (0 with fewer than two stamps).
	Stages int     `json:"stages"`
	SpanMs float64 `json:"span_ms"`
}

// finish recomputes the derived Stages/SpanMs fields from Stamps.
func (tr *StepTrace) finish() {
	tr.Stages = len(tr.Stamps)
	var min, max int64
	for _, ns := range tr.Stamps {
		if min == 0 || ns < min {
			min = ns
		}
		if ns > max {
			max = ns
		}
	}
	if tr.Stages >= 2 {
		tr.SpanMs = float64(max-min) / 1e6
	} else {
		tr.SpanMs = 0
	}
}

// Latency reports the from→to stage latency, ok=false if either
// stamp is missing.
func (tr StepTrace) Latency(from, to Stage) (time.Duration, bool) {
	a, okA := tr.Stamps[from.String()]
	b, okB := tr.Stamps[to.String()]
	if !okA || !okB {
		return 0, false
	}
	return time.Duration(b - a), true
}

// Snapshot returns the ring's traces sorted by step ordinal.
func (t *StepTracer) Snapshot() []StepTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]StepTrace, 0, len(t.slots))
	for i := range t.slots {
		slot := &t.slots[i]
		if !slot.used {
			continue
		}
		tr := StepTrace{Step: slot.step, Stamps: make(map[string]int64, NumStages)}
		for s := Stage(0); s < NumStages; s++ {
			if ns := slot.stamps[s]; ns != 0 {
				tr.Stamps[s.String()] = ns
			}
		}
		tr.finish()
		out = append(out, tr)
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Step < out[j].Step })
	return out
}
