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

// retainingAnalysis declares requirements but keeps references to step
// data beyond Execute (StepRetainer), like the staging adaptor.
type retainingAnalysis struct {
	stepTracker
}

func (r *retainingAnalysis) RetainsStepData() bool { return true }

func TestCanReuseStepStorage(t *testing.T) {
	ctx := testCtx()

	t.Run("empty", func(t *testing.T) {
		ca := NewConfigurableAnalysis(ctx)
		if !ca.CanReuseStepStorage() {
			t.Error("empty planner should allow reuse")
		}
	})
	t.Run("declared analyses allow reuse", func(t *testing.T) {
		ca := NewConfigurableAnalysis(ctx)
		ca.AddAnalysis("histogram", 1, NewHistogram(ctx, "mesh", "f", 4))
		ca.AddAnalysis("counting", 1, &countingAnalysis{})
		if !ca.CanReuseStepStorage() {
			t.Error("non-retaining declared analyses should allow reuse")
		}
	})
	t.Run("retainer pins storage", func(t *testing.T) {
		ca := NewConfigurableAnalysis(ctx)
		ca.AddAnalysis("histogram", 1, NewHistogram(ctx, "mesh", "f", 4))
		ca.AddAnalysis("retaining", 1, &retainingAnalysis{})
		if ca.CanReuseStepStorage() {
			t.Error("a StepRetainer analysis must disable reuse")
		}
	})
}

// TestPlannerStepReuse: under the no-retention contract the planner
// recycles the shared Step's bookkeeping — Execute N times hands every
// triggered analysis the same *Step value after the first step.
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

// TestPlannerStepFreshWithRetainer: with a retaining analysis enabled
// every step gets fresh bookkeeping.
func TestPlannerStepFreshWithRetainer(t *testing.T) {
	ctx := testCtx()
	ca := NewConfigurableAnalysis(ctx)
	counting := &retainingAnalysis{}
	ca.AddAnalysis("retaining", 1, counting)

	da := &mockAdaptor{values: []float64{1, 2, 3}}
	seen := map[*Step]bool{}
	const steps = 5
	for step := 0; step < steps; step++ {
		da.step = step
		if _, err := ca.Execute(da); err != nil {
			t.Fatal(err)
		}
		seen[counting.lastStep] = true
	}
	if len(seen) != steps {
		t.Errorf("planner reused Step values under a retainer: %d distinct, want %d", len(seen), steps)
	}
}
