package bench

import (
	"path/filepath"
	"strings"
	"testing"
)

// tiny returns the smallest meaningful in situ configuration.
func tiny(dir string) InSituConfig {
	return InSituConfig{
		Ranks: 2, Steps: 6, Interval: 3, Refine: 1, Order: 2,
		ImagePx: 32, OutputDir: dir,
	}
}

func TestRunInSituOriginal(t *testing.T) {
	res, err := RunInSitu(Original, tiny(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	if res.WallTime <= 0 {
		t.Error("no wall time measured")
	}
	if res.BytesWritten != 0 {
		t.Errorf("Original wrote %d bytes", res.BytesWritten)
	}
	if res.AggMemPeak <= 0 || res.MaxRankMemPeak <= 0 {
		t.Error("memory not accounted")
	}
	if res.AggMemPeak < res.MaxRankMemPeak {
		t.Error("aggregate < per-rank peak")
	}
}

func TestRunInSituCheckpointing(t *testing.T) {
	dir := t.TempDir()
	res, err := RunInSitu(Checkpointing, tiny(dir))
	if err != nil {
		t.Fatal(err)
	}
	// Steps 3 and 6 trigger on each of 2 ranks.
	if res.FilesWritten != 4 {
		t.Errorf("files = %d, want 4", res.FilesWritten)
	}
	if res.BytesWritten == 0 {
		t.Error("no checkpoint bytes")
	}
	matches, _ := filepath.Glob(filepath.Join(dir, "pb146.f*"))
	if len(matches) != 4 {
		t.Errorf("found %d field files", len(matches))
	}
}

func TestRunInSituCatalyst(t *testing.T) {
	dir := t.TempDir()
	res, err := RunInSitu(Catalyst, tiny(dir))
	if err != nil {
		t.Fatal(err)
	}
	// Two triggers x two pipelines = 4 images, written by rank 0.
	matches, _ := filepath.Glob(filepath.Join(dir, "*.png"))
	if len(matches) != 4 {
		t.Errorf("found %d images: %v", len(matches), matches)
	}
	if res.BytesWritten == 0 {
		t.Error("no image bytes accounted")
	}
}

func TestRunInSituValidation(t *testing.T) {
	if _, err := RunInSitu(Catalyst, InSituConfig{Ranks: 1}); err == nil {
		t.Error("expected OutputDir error")
	}
}

// TestFigure23Shapes runs the full (tiny) matrix and asserts the
// paper's qualitative results that do not depend on the clock:
// Catalyst uses more memory than Checkpointing, and Catalyst's storage
// footprint is far below Checkpointing's.
func TestFigure23Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment matrix")
	}
	dir := t.TempDir()
	base := tiny(dir)
	base.Steps = 8
	base.Interval = 2 // dense triggers so overheads exceed noise
	results, err := RunFig2And3([]int{1, 2}, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("results = %d", len(results))
	}
	// Wall-clock ordering (Original fastest) is cmd/figures' verdict
	// line, not an assertion here: `go test ./...` runs package binaries
	// concurrently, so sub-100ms wall times in this process carry
	// unbounded scheduler noise. Here only check the timers ran.
	for _, r := range results {
		if r.WallTime <= 0 {
			t.Errorf("%s at %d ranks: missing wall time", r.Mode, r.Ranks)
		}
	}
	// Catalyst memory above Checkpointing's, its storage at least 10x
	// below: the shape cmd/figures exits non-zero on.
	if err := CheckFig2And3(results); err != nil {
		t.Error(err)
	}
	if s := Fig2Verdict(results); strings.Count(s, "\n") != 2 {
		t.Errorf("verdict = %q, want one line per rank count", s)
	}
	// Table rendering sanity.
	if s := Fig2Table(results).String(); !strings.Contains(s, "Original") {
		t.Error("Fig2 table empty")
	}
	if s := Fig3Table(results).String(); !strings.Contains(s, "Catalyst") {
		t.Error("Fig3 table empty")
	}
	if s := StorageTable(results).String(); !strings.Contains(s, "Checkpointing") {
		t.Error("storage table empty")
	}
	if r := StorageRatio(results); r < 10 {
		t.Errorf("storage ratio = %v, want >= 10", r)
	}
}

func tinyTransit(dir string) InTransitConfig {
	return InTransitConfig{
		SimRanks: 4, ElemsPerRankZ: 1, NxNy: 4, Order: 2,
		Steps: 6, Interval: 3, ImagePx: 32, OutputDir: dir,
	}
}

func TestRunInTransitNoTransport(t *testing.T) {
	res, err := RunInTransit(NoTransport, tinyTransit(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanStepTime <= 0 {
		t.Error("no step time")
	}
	if res.EndpointSteps != 0 || res.EndpointBytes != 0 {
		t.Error("NoTransport should not reach an endpoint")
	}
}

func TestRunInTransitCheckpoint(t *testing.T) {
	dir := t.TempDir()
	res, err := RunInTransit(EndpointCheckpoint, tinyTransit(dir))
	if err != nil {
		t.Fatal(err)
	}
	// Steps 3 and 6 trigger -> endpoint processes 2 steps.
	if res.EndpointSteps != 2 {
		t.Errorf("endpoint steps = %d, want 2", res.EndpointSteps)
	}
	if res.EndpointBytes == 0 {
		t.Error("endpoint wrote nothing")
	}
	vtus, _ := filepath.Glob(filepath.Join(dir, "rbc_*.vtu"))
	if len(vtus) != 2 {
		t.Errorf("vtu files = %d, want 2", len(vtus))
	}
}

func TestRunInTransitCatalyst(t *testing.T) {
	dir := t.TempDir()
	res, err := RunInTransit(EndpointCatalyst, tinyTransit(dir))
	if err != nil {
		t.Fatal(err)
	}
	if res.EndpointSteps != 2 {
		t.Errorf("endpoint steps = %d, want 2", res.EndpointSteps)
	}
	pngs, _ := filepath.Glob(filepath.Join(dir, "*.png"))
	if len(pngs) != 4 {
		t.Errorf("images = %d, want 4 (2 steps x 2 pipelines)", len(pngs))
	}
}

// TestFigure56Shapes asserts the paper's in transit findings at tiny
// scale: transport modes carry sim-side memory overhead (the SST
// queue) over NoTransport, and all modes complete under weak scaling.
func TestFigure56Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment matrix")
	}
	dir := t.TempDir()
	results, err := RunFig5And6([]int{4, 8}, tinyTransit(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("results = %d", len(results))
	}
	// Transport adds sim-side memory over NoTransport, and every
	// endpoint processed every trigger.
	if err := CheckFig5And6(results); err != nil {
		t.Error(err)
	}
	if s := Fig5Table(results).String(); !strings.Contains(s, "NoTransport") {
		t.Error("Fig5 table empty")
	}
	if s := Fig6Table(results).String(); !strings.Contains(s, "Catalyst") {
		t.Error("Fig6 table empty")
	}
}

// TestQueueGrowthMechanism: the Figure 6 mechanism — a slow endpoint
// backs up the SST staging queue and raises simulation-side memory.
func TestQueueGrowthMechanism(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive mechanism demo")
	}
	cfg := tinyTransit(t.TempDir())
	cfg.Steps = 12
	q, err := QueueGrowthDemo(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Check(); err != nil {
		t.Error(err)
	}
	if q.Delay <= 0 {
		t.Errorf("derived delay = %v", q.Delay)
	}
	if s := QueueGrowthTable(q).String(); !strings.Contains(s, "slow (+") {
		t.Errorf("table does not print the derived delay:\n%s", s)
	}
}

// TestChecksRejectWrongShapes: the shape checks cmd/figures exits on
// fail on matrices that do not have the paper's shape.
func TestChecksRejectWrongShapes(t *testing.T) {
	insitu := func(catMem, catBytes int64) []InSituResult {
		return []InSituResult{
			{Mode: Original, Ranks: 2},
			{Mode: Checkpointing, Ranks: 2, AggMemPeak: 100, BytesWritten: 1000},
			{Mode: Catalyst, Ranks: 2, AggMemPeak: catMem, BytesWritten: catBytes},
		}
	}
	if err := CheckFig2And3(insitu(150, 50)); err != nil {
		t.Errorf("paper-shaped in situ matrix rejected: %v", err)
	}
	if CheckFig2And3(insitu(100, 50)) == nil {
		t.Error("Catalyst memory == Checkpointing's passed")
	}
	if CheckFig2And3(insitu(150, 101)) == nil {
		t.Error("Catalyst storage above a tenth of Checkpointing's passed")
	}

	transit := func(ckSteps int, catMem int64) []InTransitResult {
		return []InTransitResult{
			{Mode: NoTransport, SimRanks: 4, Triggers: 4, MemPerNode: 100},
			{Mode: EndpointCheckpoint, SimRanks: 4, Triggers: 4, EndpointSteps: ckSteps, MemPerNode: 200},
			{Mode: EndpointCatalyst, SimRanks: 4, Triggers: 4, EndpointSteps: 4, MemPerNode: catMem},
		}
	}
	if err := CheckFig5And6(transit(4, 200)); err != nil {
		t.Errorf("paper-shaped in transit matrix rejected: %v", err)
	}
	if CheckFig5And6(transit(3, 200)) == nil {
		t.Error("an endpoint that missed a trigger passed")
	}
	if CheckFig5And6(transit(4, 100)) == nil {
		t.Error("transport that added no memory passed")
	}

	same := InTransitResult{MemPerNode: 100}
	if (QueueGrowth{Fast: same, Slow: same}).Check() == nil {
		t.Error("a slow endpoint that raised no memory passed")
	}
}
