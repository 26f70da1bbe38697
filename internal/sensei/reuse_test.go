package sensei

import (
	"testing"
)

// stepTracker is a declared analysis recording the Step values it was
// handed, to observe the planner's bookkeeping reuse.
type stepTracker struct {
	lastStep *Step
}

func (s *stepTracker) Describe() Requirements { return RequireArrays("mesh", AssocPoint, "f") }

func (s *stepTracker) Execute(st *Step) (bool, error) {
	s.lastStep = st
	return false, nil
}

func (s *stepTracker) Finalize() error { return nil }

// TestPlannerStepReuse: the planner recycles the shared Step's
// bookkeeping — Execute N times hands every triggered analysis the
// same *Step value after the first step.
func TestPlannerStepReuse(t *testing.T) {
	ctx := testCtx()
	ca := NewConfigurableAnalysis(ctx)
	tracker := &stepTracker{}
	ca.AddAnalysis("tracker", 1, tracker)

	da := &mockAdaptor{values: []float64{1, 2, 3}}
	seen := map[*Step]bool{}
	for step := 0; step < 5; step++ {
		da.step = step
		if _, err := ca.Execute(da); err != nil {
			t.Fatal(err)
		}
		seen[tracker.lastStep] = true
		if tracker.lastStep.TimeStep() != step {
			t.Fatalf("step %d: pulled step reports %d", step, tracker.lastStep.TimeStep())
		}
	}
	if len(seen) != 1 {
		t.Errorf("planner used %d distinct Step values across 5 steps, want 1 (reuse)", len(seen))
	}
}
