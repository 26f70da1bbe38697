package intransit

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nekrs-sensei/internal/adios"
	"nekrs-sensei/internal/mpirt"
	"nekrs-sensei/internal/sensei"
	"nekrs-sensei/internal/staging"

	_ "nekrs-sensei/internal/catalyst" // analysis type "catalyst"
)

// blockStep builds one synthetic timestep for block b: a unit hex
// cell shifted along x, with one point array "temperature". The first
// step (seq 0) carries the structure.
func blockStep(b, seq int) *adios.Step {
	vals := make([]float64, 8)
	for i := range vals {
		vals[i] = float64(b*100+seq*10+i) * 0.01
	}
	s := &adios.Step{
		Step:  int64(seq),
		Time:  float64(seq) * 0.1,
		Attrs: map[string]string{"mesh": "mesh"},
		Vars:  []adios.Variable{adios.NewF64("array/temperature", vals)},
	}
	if seq == 0 {
		x0 := float64(b)
		s.Attrs["structure"] = "1"
		s.Vars = append(s.Vars,
			adios.NewF64("points", []float64{
				x0, 0, 0, x0 + 1, 0, 0, x0 + 1, 1, 0, x0, 1, 0,
				x0, 0, 1, x0 + 1, 0, 1, x0 + 1, 1, 1, x0, 1, 1,
			}, 8, 3),
			adios.NewI64("connectivity", []int64{0, 1, 2, 3, 4, 5, 6, 7}),
			adios.NewI64("offsets", []int64{8}),
			adios.NewU8("types", []byte{12}),
		)
	}
	return s
}

// scriptedSource replays a fixed step sequence, then EOF.
type scriptedSource struct {
	steps []*adios.Step
	pos   int
}

func (s *scriptedSource) BeginStep() (*adios.Step, error) {
	if s.pos >= len(s.steps) {
		return nil, io.EOF
	}
	st := s.steps[s.pos]
	s.pos++
	return st, nil
}

// hubsWithConsumer builds one staging hub per block, each with the
// plain block consumer "ep" an endpoint rank will read.
func hubsWithConsumer(t *testing.T, blocks int) ([]*staging.Hub, []*staging.Consumer) {
	t.Helper()
	hubs := make([]*staging.Hub, blocks)
	cons := make([]*staging.Consumer, blocks)
	for b := range hubs {
		hubs[b] = staging.NewHub(nil)
		var err error
		if cons[b], err = hubs[b].Subscribe("ep", staging.Block, 4); err != nil {
			t.Fatal(err)
		}
	}
	return hubs, cons
}

// shardOf hands rank its ShardRange of the hubs' consumers — the attach
// rule of ShardSources, in process.
func shardOf(cons []*staging.Consumer, rank, ranks int) []StepSource {
	lo, hi := ShardRange(len(cons), ranks, rank)
	src := make([]StepSource, 0, hi-lo)
	for _, c := range cons[lo:hi] {
		src = append(src, c)
	}
	return src
}

// runGroupOverHubs publishes `steps` timesteps of `blocks` blocks
// through one staging hub per block and runs a Group of R ranks, each
// over the plain consumers of its own shard of the hubs. Returns the
// group and its stats.
func runGroupOverHubs(t *testing.T, blocks, ranks, steps int, configXML, outDir string) (*Group, GroupStats) {
	t.Helper()
	hubs, cons := hubsWithConsumer(t, blocks)
	g, err := NewGroup(GroupConfig{
		Ranks:     ranks,
		ConfigXML: []byte(configXML),
		OutputDir: outDir,
		Sources: func(rank, ranks int) ([]StepSource, func(), error) {
			return shardOf(cons, rank, ranks), nil, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		for s := 0; s < steps; s++ {
			for b, h := range hubs {
				if err := h.Publish(blockStep(b, s)); err != nil {
					done <- err
					return
				}
			}
		}
		for _, h := range hubs {
			h.Close()
		}
		done <- nil
	}()
	stats, err := g.Run()
	if err != nil {
		t.Fatalf("group run: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("producer: %v", err)
	}
	return g, stats
}

// histogramAllocsPerStep is what one step of histConfig allocated in
// the serial Endpoint.Run loop this runtime replaced (measured there
// with TestOneRankStepLoopAllocations' own method).
const histogramAllocsPerStep = 19

const histConfig = `<sensei>
  <analysis type="histogram" array="temperature" bins="6"/>
</sensei>`

// TestGroupShardedHistogramMatchesSerial: a histogram sharded over R
// endpoint ranks (block-range partition + allreduce merge) must equal
// the single-rank endpoint's histogram of the same stream.
func TestGroupShardedHistogramMatchesSerial(t *testing.T) {
	const blocks, steps = 4, 5
	results := map[int][]int64{}
	for _, ranks := range []int{1, 2, 4} {
		g, stats := runGroupOverHubs(t, blocks, ranks, steps, histConfig, t.TempDir())
		if stats.Steps != steps {
			t.Fatalf("ranks=%d: processed %d steps, want %d", ranks, stats.Steps, steps)
		}
		hist, ok := g.Analysis(0).FindAdaptor("histogram").(*sensei.Histogram)
		if !ok {
			t.Fatal("histogram adaptor missing")
		}
		_, counts := hist.Last()
		results[ranks] = counts
		var total int64
		for _, c := range counts {
			total += c
		}
		if want := int64(blocks * 8); total != want {
			t.Errorf("ranks=%d: histogram counted %d points, want %d", ranks, total, want)
		}
	}
	for _, ranks := range []int{2, 4} {
		if fmt.Sprint(results[ranks]) != fmt.Sprint(results[1]) {
			t.Errorf("ranks=%d counts %v != serial %v", ranks, results[ranks], results[1])
		}
	}
}

// TestGroupRenderOneImagePerStep: a render endpoint group composites
// each rank's shard via binary swap into exactly one PNG per step —
// including the non-power-of-two group size that exercises the
// compositor's fold pre-stage.
func TestGroupRenderOneImagePerStep(t *testing.T) {
	const blocks, steps = 4, 4
	for _, ranks := range []int{3, 4} {
		dir := t.TempDir()
		script := filepath.Join(dir, "render.xml")
		if err := os.WriteFile(script, []byte(`<catalyst>
  <image width="64" height="48" output="step_%06d.png" field="temperature">
    <slice normal="0,0,1" offset="0.5"/>
  </image>
</catalyst>`), 0o644); err != nil {
			t.Fatal(err)
		}
		cfg := fmt.Sprintf(`<sensei>
  <analysis type="catalyst" pipeline="script" filename="%s"/>
</sensei>`, script)

		_, stats := runGroupOverHubs(t, blocks, ranks, steps, cfg, dir)
		if stats.Steps != steps {
			t.Fatalf("ranks=%d: processed %d steps, want %d", ranks, stats.Steps, steps)
		}
		imgs, err := filepath.Glob(filepath.Join(dir, "step_*.png"))
		if err != nil {
			t.Fatal(err)
		}
		if len(imgs) != steps {
			t.Fatalf("ranks=%d: wrote %d images, want exactly one per step (%d): %v", ranks, len(imgs), steps, imgs)
		}
		for _, img := range imgs {
			if fi, err := os.Stat(img); err != nil || fi.Size() == 0 {
				t.Errorf("image %s missing or empty", img)
			}
		}
		if stats.Files != steps {
			t.Errorf("ranks=%d: storage counted %d files, want %d (only rank 0 writes)", ranks, stats.Files, steps)
		}
		if len(stats.Straggler.Ranks) != ranks || stats.Straggler.Ranks[0].Count != steps {
			t.Errorf("ranks=%d: straggler accounting incomplete: %+v", ranks, stats.Straggler)
		}
	}
}

// TestGroupRealignsSkewedStreams: ranks whose hubs shed different
// steps agree on a common step per round; lagging ranks skip forward
// and account the skips.
func TestGroupRealignsSkewedStreams(t *testing.T) {
	mk := func(seqs ...int) *scriptedSource {
		s := &scriptedSource{}
		for _, q := range seqs {
			s.steps = append(s.steps, blockStep(0, q))
		}
		return s
	}
	perRank := [][]StepSource{
		{mk(0, 1, 2, 3, 4)}, // rank 0 sees every step
		{mk(0, 2, 4)},       // rank 1's hub shed steps 1 and 3
	}
	g, err := NewGroup(GroupConfig{
		Ranks: 2,
		Sources: func(rank, _ int) ([]StepSource, func(), error) {
			return perRank[rank], nil, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := g.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Steps != 3 {
		t.Errorf("processed %d steps, want 3 (0, 2, 4)", stats.Steps)
	}
	if stats.Skipped[0] != 2 || stats.Skipped[1] != 0 {
		t.Errorf("skipped = %v, want [2 0]", stats.Skipped)
	}
}

// TestGroupAsymmetricAnalysisErrorDoesNotHang: a failure that strikes
// only rank 0 (the image write — only root writes) must stop the
// whole group through the per-step agreement instead of stranding the
// other ranks in their next collective.
func TestGroupAsymmetricAnalysisErrorDoesNotHang(t *testing.T) {
	dir := t.TempDir()
	script := filepath.Join(dir, "render.xml")
	if err := os.WriteFile(script, []byte(`<catalyst>
  <image width="32" height="32" output="step_%06d.png" field="temperature">
    <slice normal="0,0,1" offset="0.5"/>
  </image>
</catalyst>`), 0o644); err != nil {
		t.Fatal(err)
	}
	// The output "directory" is a file: rank 0's PNG write fails, the
	// other ranks' Execute succeeds.
	outFile := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(outFile, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := fmt.Sprintf(`<sensei>
  <analysis type="catalyst" pipeline="script" filename="%s"/>
</sensei>`, script)

	const blocks, ranks = 2, 2
	hubs, cons := hubsWithConsumer(t, blocks)
	g, err := NewGroup(GroupConfig{
		Ranks:     ranks,
		ConfigXML: []byte(cfg),
		OutputDir: outFile,
		Sources: func(rank, ranks int) ([]StepSource, func(), error) {
			lo, hi := ShardRange(blocks, ranks, rank)
			cleanup := func() {
				for _, c := range cons[lo:hi] {
					c.Close()
				}
			}
			return shardOf(cons, rank, ranks), cleanup, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	prodDone := make(chan struct{})
	go func() {
		defer close(prodDone)
		for s := 0; s < 8; s++ {
			for b, h := range hubs {
				if h.Publish(blockStep(b, s)) != nil {
					return
				}
			}
		}
	}()
	if _, err := g.Run(); err == nil {
		t.Fatal("expected rank 0's write error to surface")
	}
	// The producer must unblock too (consumers closed via cleanup).
	select {
	case <-prodDone:
	case <-time.After(10 * time.Second):
		t.Fatal("producer still blocked after the group failed")
	}
	for _, h := range hubs {
		h.Close()
	}
}

// TestGroupSourceErrorDoesNotHang: one rank failing to build sources
// stops the whole group instead of deadlocking the others.
func TestGroupSourceErrorDoesNotHang(t *testing.T) {
	g, err := NewGroup(GroupConfig{
		Ranks: 3,
		Sources: func(rank, _ int) ([]StepSource, func(), error) {
			if rank == 1 {
				return nil, nil, fmt.Errorf("rank 1 cannot connect")
			}
			return []StepSource{&scriptedSource{}}, nil, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(); err == nil {
		t.Fatal("expected the source error to surface")
	}
}

func TestShardRange(t *testing.T) {
	for _, tc := range []struct {
		n, ranks int
		want     [][2]int
	}{
		{4, 2, [][2]int{{0, 2}, {2, 4}}},
		{4, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}}},
		{5, 2, [][2]int{{0, 2}, {2, 5}}},
		{1, 2, [][2]int{{0, 0}, {0, 1}}},
	} {
		for r, want := range tc.want {
			lo, hi := ShardRange(tc.n, tc.ranks, r)
			if lo != want[0] || hi != want[1] {
				t.Errorf("ShardRange(%d,%d,%d) = [%d,%d), want [%d,%d)",
					tc.n, tc.ranks, r, lo, hi, want[0], want[1])
			}
		}
	}
}

// TestShardSources: the attach rule dials rank's ShardRange of the
// addresses and nothing else, refuses more ranks than streams by naming
// the relay, and closes what it opened when a later dial fails.
func TestShardSources(t *testing.T) {
	hubs := make([]*staging.Hub, 3)
	addrs := make([]string, 3)
	for b := range hubs {
		hubs[b] = staging.NewHub(nil)
		srv, err := staging.Serve(hubs[b], "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		defer hubs[b].Close()
		addrs[b] = srv.Addr()
	}
	attached := func() (n []int) {
		for _, h := range hubs {
			n = append(n, h.ActiveConsumers())
		}
		return n
	}
	hello := func(rank, src int) adios.ReaderOptions {
		return adios.ReaderOptions{Consumer: fmt.Sprintf("r%d-s%d", rank, src)}
	}

	sources, cleanup, err := ShardSources(addrs, hello)(1, 2) // ShardRange(3, 2, 1) = [1, 3)
	if err != nil || len(sources) != 2 || fmt.Sprint(attached()) != "[0 1 1]" {
		t.Fatalf("rank 1 of 2: %d sources (%v), hubs see %v consumers, want 2 on hubs 1 and 2", len(sources), err, attached())
	}
	if got := hubs[2].Stats()[0].Name; got != "r1-s2" {
		t.Errorf("hub 2's consumer is %q, want the hello of (rank 1, source 2)", got)
	}
	cleanup()

	if _, _, err := ShardSources(addrs, hello)(0, 4); err == nil || !strings.Contains(err.Error(), "relay -out-ranks") {
		t.Errorf("4 ranks over 3 streams: err = %v, want a refusal naming the relay", err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0") // an address nobody listens on
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	if _, _, err := ShardSources([]string{addrs[0], dead}, hello)(0, 1); err == nil {
		t.Fatal("dialing a dead address succeeded")
	}
	// A hub notices a closed connection when it next ships a step.
	if err := hubs[0].Publish(blockStep(0, 0)); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); hubs[0].ActiveConsumers() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the reader opened before the failed dial was left attached")
		}
	}
}

// TestEndOfStreamRule pins the one end-of-stream rule (StepSource): a
// run ends cleanly only when every source of every rank ends in the
// same round; a source that stops short of a step a peer delivered —
// found at the pull or while realigning, within a rank or across
// ranks — lost data and fails the run.
func TestEndOfStreamRule(t *testing.T) {
	mk := func(b int, seqs ...int) StepSource {
		s := &scriptedSource{}
		for _, q := range seqs {
			s.steps = append(s.steps, blockStep(b, q))
		}
		return s
	}
	for _, tc := range []struct {
		name    string
		perRank func() [][]StepSource
		steps   int
		wantErr string
	}{
		{"every source ends in the same round",
			func() [][]StepSource { return [][]StepSource{{mk(0, 0, 1, 2)}, {mk(1, 0, 2)}} }, 2, ""},
		{"a source ends while realigning inside a rank",
			func() [][]StepSource { return [][]StepSource{{mk(0, 0, 3), mk(1, 0, 1, 2)}} }, 1, "ended during resync"},
		{"a rank ends while realigning to its peer",
			func() [][]StepSource { return [][]StepSource{{mk(0, 0, 3)}, {mk(1, 0, 1, 2)}} }, 1, "ended during resync"},
		{"a rank ends at the pull while its peer delivers",
			func() [][]StepSource { return [][]StepSource{{mk(0, 0, 1, 2)}, {mk(1, 0, 1)}} }, 2, "while peer ranks still deliver"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			perRank := tc.perRank()
			g, err := NewGroup(GroupConfig{
				Ranks:   len(perRank),
				Sources: func(rank, _ int) ([]StepSource, func(), error) { return perRank[rank], nil, nil },
			})
			if err != nil {
				t.Fatal(err)
			}
			stats, err := g.Run()
			if tc.wantErr == "" && err != nil {
				t.Fatalf("clean end-of-stream failed: %v", err)
			}
			if tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
				t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
			}
			if stats.Steps != tc.steps {
				t.Errorf("processed %d steps, want %d", stats.Steps, tc.steps)
			}
		})
	}
}

// failingSource replays its script, then fails instead of ending.
type failingSource struct{ scriptedSource }

func (s *failingSource) BeginStep() (*adios.Step, error) {
	if st, err := s.scriptedSource.BeginStep(); err == nil {
		return st, nil
	}
	return nil, errors.New("connection reset")
}

// failOnSecond is an analysis with no collective of its own whose
// second Execute fails.
type failOnSecond struct{ execs int }

func (f *failOnSecond) Describe() sensei.Requirements { return sensei.NoRequirements() }
func (f *failOnSecond) Execute(*sensei.Step) (bool, error) {
	if f.execs++; f.execs == 2 {
		return false, errors.New("disk full")
	}
	return false, nil
}
func (f *failOnSecond) Finalize() error { return nil }

// TestEndpointsAsymmetricFailureDoesNotHang: two Endpoints on one
// 2-rank communicator (the sensei-endpoint -ranks 2 shape) run a
// reducing analysis; rank 0 alone fails on its second step — its
// source breaks, or its Execute does. Both must return, rank 0 with
// the error, instead of rank 1 waiting forever in the histogram's
// allreduce for a peer that left.
func TestEndpointsAsymmetricFailureDoesNotHang(t *testing.T) {
	script := func(b int) scriptedSource {
		return scriptedSource{steps: []*adios.Step{blockStep(b, 0), blockStep(b, 1), blockStep(b, 2)}}
	}
	for _, tc := range []struct {
		name, wantErr string
		arm           func(rank0 *Endpoint)
	}{
		{"rank 0's source fails", "connection reset", func(ep *Endpoint) {
			ep.rs.sources[0] = &failingSource{scriptedSource{steps: []*adios.Step{blockStep(0, 0)}}}
		}},
		{"rank 0's Execute fails", "disk full", func(ep *Endpoint) {
			ep.Analysis().AddAnalysis("failer", 1, &failOnSecond{})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			world := mpirt.NewWorld(2)
			type result struct {
				rank, steps int
				err         error
			}
			done := make(chan result, 2)
			for rank := 0; rank < 2; rank++ {
				src := script(rank)
				ep, err := NewEndpoint(ctxFor(world.Comm(rank), ""), []StepSource{&src}, []byte(histConfig))
				if err != nil {
					t.Fatal(err)
				}
				if rank == 0 {
					tc.arm(ep)
				}
				go func() {
					n, err := ep.Run()
					done <- result{rank, n, err}
				}()
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			for i := 0; i < 2; i++ {
				select {
				case r := <-done:
					if r.steps != 1 {
						t.Errorf("rank %d processed %d steps, want 1", r.rank, r.steps)
					}
					if r.rank == 0 && (r.err == nil || !strings.Contains(r.err.Error(), tc.wantErr)) {
						t.Errorf("rank 0 returned %v, want its own failure (%q)", r.err, tc.wantErr)
					}
					if r.rank == 1 && r.err != nil {
						t.Errorf("rank 1 returned %v, want nil (it stopped for its peer)", r.err)
					}
				case <-ctx.Done():
					t.Fatal("an endpoint is still blocked in a collective after its peer failed")
				}
			}
		})
	}
}

// TestOneRankStepLoopAllocations: on a one-rank communicator the step
// loop's agreements must cost nothing per step. The per-step figure is
// the allocation delta of two run lengths over the same setup; the
// budgets are what the serial loop this one replaced allocated.
func TestOneRankStepLoopAllocations(t *testing.T) {
	const n = 64
	steps := make([]*adios.Step, 2*n)
	for i := range steps {
		steps[i] = blockStep(0, i)
	}
	for _, tc := range []struct {
		name, config string
		budget       float64
	}{
		{"pure sink", "", 0},
		{"histogram", histConfig, histogramAllocsPerStep},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(n int) float64 {
				return testing.AllocsPerRun(3, func() {
					ep, err := NewEndpoint(ctxFor(mpirt.NewWorld(1).Comm(0), ""),
						[]StepSource{&scriptedSource{steps: steps[:n]}}, []byte(tc.config))
					if err != nil {
						t.Fatal(err)
					}
					if got, err := ep.Run(); err != nil || got != n {
						t.Fatalf("processed %d steps (%v), want %d", got, err, n)
					}
				})
			}
			perStep := (run(2*n) - run(n)) / n
			t.Logf("%.2f allocations per step", perStep)
			if perStep > tc.budget {
				t.Errorf("one-rank step loop allocates %.2f per step, budget %v", perStep, tc.budget)
			}
		})
	}
}
