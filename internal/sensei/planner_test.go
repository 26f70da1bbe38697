package sensei

import "testing"

// TestPlannerPullsOnce is the acceptance test for the pull-once data
// plane: three analyses over one mesh (two sharing array "f", one on
// "g") cost exactly one Mesh call and one AddArray per distinct array
// per step — not one per analysis.
func TestPlannerPullsOnce(t *testing.T) {
	ctx := testCtx()
	ca := NewConfigurableAnalysis(ctx)
	h1 := NewHistogram(ctx, "mesh", "f", 4)
	h2 := NewHistogram(ctx, "mesh", "g", 4)
	ac := NewAutocorrelation(ctx, "mesh", "f", 2)
	ca.AddAnalysis("histogram", 1, h1)
	ca.AddAnalysis("histogram", 1, h2)
	ca.AddAnalysis("autocorrelation", 1, ac)

	da := &mockAdaptor{
		values: []float64{1, 2, 3},
		extra:  map[string][]float64{"g": {4, 5, 6}},
	}
	const steps = 5
	for step := 0; step < steps; step++ {
		da.step = step
		if _, err := ca.Execute(da); err != nil {
			t.Fatal(err)
		}
	}
	if da.meshCalls != steps {
		t.Errorf("Mesh calls = %d, want %d (one per step)", da.meshCalls, steps)
	}
	for _, name := range []string{"f", "g"} {
		if got := da.addArrayCalls[name]; got != steps {
			t.Errorf("AddArray(%q) calls = %d, want %d (one per distinct array per step)", name, got, steps)
		}
	}
	// All three analyses saw real data.
	if _, counts := h1.Last(); counts == nil {
		t.Error("histogram f never executed")
	}
	if _, counts := h2.Last(); counts == nil {
		t.Error("histogram g never executed")
	}
}

// TestPlannerFrequencyUnion: only the analyses triggered at a step
// contribute to the pull, so an array needed by a low-frequency
// analysis alone is not pulled on other steps.
func TestPlannerFrequencyUnion(t *testing.T) {
	ctx := testCtx()
	ca := NewConfigurableAnalysis(ctx)
	ca.AddAnalysis("histogram", 1, NewHistogram(ctx, "mesh", "f", 4))
	ca.AddAnalysis("histogram", 3, NewHistogram(ctx, "mesh", "g", 4))

	da := &mockAdaptor{
		values: []float64{1, 2, 3},
		extra:  map[string][]float64{"g": {4, 5, 6}},
	}
	for step := 0; step < 6; step++ {
		da.step = step
		if _, err := ca.Execute(da); err != nil {
			t.Fatal(err)
		}
	}
	if got := da.addArrayCalls["f"]; got != 6 {
		t.Errorf("AddArray(f) = %d, want 6", got)
	}
	// g triggers on steps 0 and 3 only.
	if got := da.addArrayCalls["g"]; got != 2 {
		t.Errorf("AddArray(g) = %d, want 2", got)
	}
}

// TestPlannerBytesAccounting: every analysis is charged the bytes its
// declaration covers, even though shared arrays were pulled once.
func TestPlannerBytesAccounting(t *testing.T) {
	ctx := testCtx()
	ca := NewConfigurableAnalysis(ctx)
	ca.AddAnalysis("histogram", 1, NewHistogram(ctx, "mesh", "f", 4))
	ca.AddAnalysis("autocorrelation", 1, NewAutocorrelation(ctx, "mesh", "f", 2))

	da := &mockAdaptor{values: []float64{1, 2, 3}}
	da.step = 0
	if _, err := ca.Execute(da); err != nil {
		t.Fatal(err)
	}
	stats := ca.PullStats()
	if len(stats) != 2 {
		t.Fatalf("stats = %d entries", len(stats))
	}
	want := int64(3 * 8) // three float64s
	for _, s := range stats {
		if s.BytesPulled != want {
			t.Errorf("%s bytes pulled = %d, want %d", s.Type, s.BytesPulled, want)
		}
		if s.Executions != 1 {
			t.Errorf("%s executions = %d, want 1", s.Type, s.Executions)
		}
	}
	if ca.PullTable().String() == "" {
		t.Error("empty pull table")
	}
}

// TestPlannerStopSignal: any analysis returning stop=true surfaces
// through ConfigurableAnalysis.Execute.
func TestPlannerStopSignal(t *testing.T) {
	ctx := testCtx()
	ca := NewConfigurableAnalysis(ctx)
	quiet := &countingAnalysis{}
	stopper := &countingAnalysis{stop: true}
	ca.AddAnalysis("quiet", 1, quiet)
	ca.AddAnalysis("stopper", 1, stopper)

	da := &mockAdaptor{values: []float64{1}}
	stop, err := ca.Execute(da)
	if err != nil {
		t.Fatal(err)
	}
	if !stop {
		t.Error("stop signal not surfaced")
	}
	// Both analyses still executed (stop ends the loop after the step,
	// it does not preempt peers).
	if quiet.executions != 1 || stopper.executions != 1 {
		t.Errorf("executions = %d/%d, want 1/1", quiet.executions, stopper.executions)
	}
	for _, s := range ca.PullStats() {
		if s.Type == "stopper" && !s.Stopped {
			t.Error("stopper not marked in PullStats")
		}
		if s.Type == "quiet" && s.Stopped {
			t.Error("quiet wrongly marked stopped")
		}
	}
}
