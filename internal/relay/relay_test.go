package relay

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"nekrs-sensei/internal/adios"
	"nekrs-sensei/internal/faultnet"
	"nekrs-sensei/internal/intransit"
	"nekrs-sensei/internal/metrics"
	"nekrs-sensei/internal/mpirt"
	"nekrs-sensei/internal/sensei"
	"nekrs-sensei/internal/staging"
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

// servedHubs builds n producer-side hubs, each behind its own TCP
// staging server, and returns them with their contact addresses.
func servedHubs(t *testing.T, n int) ([]*staging.Hub, []string) {
	t.Helper()
	hubs := make([]*staging.Hub, n)
	addrs := make([]string, n)
	for i := range hubs {
		hubs[i] = staging.NewHub(nil)
		srv, err := staging.Serve(hubs[i], "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs[i] = srv.Addr()
	}
	return hubs, addrs
}

// publishScript feeds every hub its block's step sequence in lockstep
// and closes the hubs (clean end-of-stream) when done.
func publishScript(t *testing.T, hubs []*staging.Hub, steps int) <-chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		for s := 0; s < steps; s++ {
			for b, h := range hubs {
				if err := h.Publish(blockStep(b, s)); err != nil {
					done <- fmt.Errorf("publish block %d step %d: %w", b, s, err)
					return
				}
			}
		}
		for _, h := range hubs {
			h.Close()
		}
		done <- nil
	}()
	return done
}

// TestLivenessWithoutRetry: Liveness bounds the upstream wait with or
// without Retry. An upstream that goes silent — its link blackholed,
// so neither frames nor heartbeats arrive — ends Run with an error
// within a few liveness periods instead of leaving it waiting forever.
func TestLivenessWithoutRetry(t *testing.T) {
	hubs, addrs := servedHubs(t, 1)
	defer hubs[0].Close()
	link := faultnet.NewProfile()
	px, err := faultnet.NewProxy("127.0.0.1:0", addrs[0], link)
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	r, err := New([]string{px.Addr()}, Options{Liveness: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	link.SetBlackhole(true)
	defer link.SetBlackhole(false)
	run := make(chan error, 1)
	go func() { run <- r.Run() }()
	select {
	case err := <-run:
		if err == nil || !strings.Contains(err.Error(), "liveness") {
			t.Fatalf("Run = %v, want a liveness timeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run still waiting on a silent upstream 5s into a 200ms liveness bound")
	}
}

func TestMergeStepsRebasesGeometry(t *testing.T) {
	merged, err := adios.MergeSteps([]*adios.Step{blockStep(0, 0), blockStep(1, 0)})
	if err != nil {
		t.Fatal(err)
	}
	pts := merged.FindVar("points")
	if pts == nil || len(pts.F64) != 48 || pts.Shape[0] != 16 || pts.Shape[1] != 3 {
		t.Fatalf("merged points wrong: %+v", pts)
	}
	conn := merged.FindVar("connectivity")
	want := []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	if conn == nil || fmt.Sprint(conn.I64) != fmt.Sprint(want) {
		t.Fatalf("connectivity not rebased: %v", conn)
	}
	offs := merged.FindVar("offsets")
	if offs == nil || fmt.Sprint(offs.I64) != fmt.Sprint([]int64{8, 16}) {
		t.Fatalf("offsets not rebased: %v", offs)
	}
	if temp := merged.FindVar("array/temperature"); temp == nil || len(temp.F64) != 16 {
		t.Fatalf("temperature not concatenated: %v", temp)
	}
	if types := merged.FindVar("types"); types == nil || len(types.U8) != 2 {
		t.Fatalf("types not concatenated: %v", types)
	}

	// A single part passes through untouched.
	one := blockStep(0, 1)
	if got, err := adios.MergeSteps([]*adios.Step{one}); err != nil || got != one {
		t.Fatalf("single-part merge = %v, %v; want identity", got, err)
	}

	// A source missing a variable is a structural mismatch, not a
	// silent truncation.
	broken := blockStep(1, 1)
	broken.Vars[0].Name = "array/other"
	if _, err := adios.MergeSteps([]*adios.Step{blockStep(0, 1), broken}); err == nil {
		t.Fatal("expected a missing-variable error")
	}
}

func TestUnionRequirementsFold(t *testing.T) {
	// No declarations: the relay must be able to serve anything.
	if all := unionArrays(nil); all != nil {
		t.Fatalf("empty union = %v, want nil (all arrays)", all)
	}

	spec := func(name string, arrays ...string) Downstream {
		return Downstream{Spec: staging.ConsumerSpec{Name: name, Arrays: arrays}}
	}
	got := unionArrays([]Downstream{spec("a", "temperature", "pressure"), spec("b", "pressure")})
	if !slices.Equal(got, []string{"pressure", "temperature"}) {
		t.Fatalf("unioned arrays = %v, want [pressure temperature]", got)
	}
	// A consumer with no array subset widens the union to everything.
	if got := unionArrays([]Downstream{spec("a", "pressure"), spec("b")}); got != nil {
		t.Fatalf("union with an all-arrays consumer = %v, want nil (all arrays)", got)
	}
}

// TestRepartitionMatchesDirectMerge: the M×N acceptance property — at
// P=4 → R=2, each relay output stream must be byte-identical to a
// direct pull of its shard's sources merged rank-by-rank (what an
// endpoint rank would have assembled itself from the full streams),
// and must cost the endpoint rank its block range's share of the bytes
// (ideal 1/R; budget 0.6), not the full pull it replaces.
func TestRepartitionMatchesDirectMerge(t *testing.T) {
	const P, R, steps = 4, 2, 5
	hubs, addrs := servedHubs(t, P)
	r, err := New(addrs, Options{
		Name: "repart", OutRanks: R,
		Downstream: []Downstream{
			{Spec: staging.ConsumerSpec{Name: "pull", Policy: staging.Block, Depth: 4}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	runErr := make(chan error, 1)
	go func() { runErr <- r.Run() }()

	type result struct {
		frames   [][]byte
		received int64
		err      error
	}
	results := make([]result, R)
	var wg sync.WaitGroup
	for o := 0; o < R; o++ {
		rd, err := adios.OpenReaderWith(r.Addrs()[o], adios.ReaderOptions{Consumer: "pull"})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(o int, rd *adios.Reader) {
			defer wg.Done()
			defer rd.Close()
			for {
				st, err := rd.BeginStep()
				if errors.Is(err, io.EOF) {
					results[o].received = rd.BytesReceived()
					return
				}
				if err != nil {
					results[o].err = err
					return
				}
				results[o].frames = append(results[o].frames, adios.Marshal(st))
			}
		}(o, rd)
	}

	prodErr := publishScript(t, hubs, steps)
	wg.Wait()
	if err := <-prodErr; err != nil {
		t.Fatal(err)
	}
	if err := <-runErr; err != nil {
		t.Fatalf("relay run: %v", err)
	}
	if got := r.Status().Steps; got != steps {
		t.Errorf("relay relayed %d steps, want %d", got, steps)
	}

	var fullPull int64 // what a rank pulling all P full streams receives
	for b := 0; b < P; b++ {
		for s := 0; s < steps; s++ {
			fullPull += int64(len(adios.Marshal(blockStep(b, s))))
		}
	}
	for o := 0; o < R; o++ {
		if results[o].err != nil {
			t.Fatalf("output %d: %v", o, results[o].err)
		}
		t.Logf("output %d: %d of %d bytes (%.3f)", o, results[o].received, fullPull, float64(results[o].received)/float64(fullPull))
		if got := results[o].received; got == 0 || float64(got) > 0.6*float64(fullPull) {
			t.Errorf("output %d received %d bytes, want within 0.6 of the %d-byte full pull", o, got, fullPull)
		}
		if len(results[o].frames) != steps {
			t.Fatalf("output %d received %d steps, want %d", o, len(results[o].frames), steps)
		}
		lo, hi := intransit.ShardRange(P, R, o)
		for s := 0; s < steps; s++ {
			parts := make([]*adios.Step, hi-lo)
			for b := lo; b < hi; b++ {
				parts[b-lo] = blockStep(b, s)
			}
			merged, err := adios.MergeSteps(parts)
			if err != nil {
				t.Fatal(err)
			}
			if want := adios.Marshal(merged); string(results[o].frames[s]) != string(want) {
				t.Fatalf("output %d step %d: relayed bytes differ from the direct shard merge", o, s)
			}
		}
	}
	if st := r.Status(); st.Mode != "splice" || st.Upstream != P || st.OutRanks != R {
		t.Errorf("status = %+v, want splice mode with %d->%d topology", st, P, R)
	}
}

// scripted replays a fixed step sequence, then EOF (an in-memory
// StepSource for the direct-pull expectation).
type scripted struct {
	steps []*adios.Step
	pos   int
}

func (s *scripted) BeginStep() (*adios.Step, error) {
	if s.pos >= len(s.steps) {
		return nil, io.EOF
	}
	st := s.steps[s.pos]
	s.pos++
	return st, nil
}

const histConfig = `<sensei>
  <analysis type="histogram" array="temperature" bins="6"/>
</sensei>`

// TestGroupThroughRelay: an intransit.Group of R ranks attaches
// through a P→R repartitioning relay — one reader per rank, each to
// its own shard-ranged output — and its collective reductions must
// produce the same histogram as a direct single-rank pull of all P
// full streams.
func TestGroupThroughRelay(t *testing.T) {
	const P, R, steps = 4, 2, 5
	hubs, addrs := servedHubs(t, P)
	r, err := New(addrs, Options{
		Name: "gshard", OutRanks: R,
		Downstream: []Downstream{
			{Spec: staging.ConsumerSpec{Name: "ep", Policy: staging.Block, Depth: 4}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	runErr := make(chan error, 1)
	go func() { runErr <- r.Run() }()

	g, err := intransit.NewGroup(intransit.GroupConfig{
		Ranks:     R,
		ConfigXML: []byte(histConfig),
		OutputDir: t.TempDir(),
		// The relay already re-blocked: one output per rank.
		Sources: intransit.ShardSources(r.Addrs(), func(_, _ int) adios.ReaderOptions {
			return adios.ReaderOptions{Consumer: "ep"}
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	prodErr := publishScript(t, hubs, steps)
	stats, err := g.Run()
	if err != nil {
		t.Fatalf("group through relay: %v", err)
	}
	if err := <-prodErr; err != nil {
		t.Fatal(err)
	}
	if err := <-runErr; err != nil {
		t.Fatalf("relay run: %v", err)
	}
	if stats.Steps != steps {
		t.Fatalf("group processed %d steps, want %d", stats.Steps, steps)
	}
	hist, ok := g.Analysis(0).FindAdaptor("histogram").(*sensei.Histogram)
	if !ok {
		t.Fatal("histogram adaptor missing")
	}
	_, counts := hist.Last()

	// The direct expectation: one rank pulling every source in full.
	direct, err := intransit.NewGroup(intransit.GroupConfig{
		Ranks:     1,
		ConfigXML: []byte(histConfig),
		OutputDir: t.TempDir(),
		Sources: func(_, _ int) ([]intransit.StepSource, func(), error) {
			src := make([]intransit.StepSource, P)
			for b := range src {
				sc := &scripted{}
				for s := 0; s < steps; s++ {
					sc.steps = append(sc.steps, blockStep(b, s))
				}
				src[b] = sc
			}
			return src, nil, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := direct.Run(); err != nil {
		t.Fatal(err)
	}
	dhist := direct.Analysis(0).FindAdaptor("histogram").(*sensei.Histogram)
	_, want := dhist.Last()
	if fmt.Sprint(counts) != fmt.Sprint(want) {
		t.Errorf("sharded histogram %v != direct full pull %v", counts, want)
	}
}

// TestLossyLeafOverPlainTrunk: a subtree whose only consumer is lossy
// still gets plain frames on the trunk — the relay splices, it never
// decodes — and the leaf's quantizer runs on its own edge below the
// relay, so the leaf sees values within its bound.
func TestLossyLeafOverPlainTrunk(t *testing.T) {
	const P, steps, bound = 2, 4, 1e-3
	hubs, addrs := servedHubs(t, P)
	codecs := []string{"quantize:0.001"}
	r, err := New(addrs, Options{
		Name: "lossy", OutRanks: 1,
		Downstream: []Downstream{
			{Spec: staging.ConsumerSpec{Name: "leaf", Policy: staging.Block, Depth: 4, Codecs: codecs}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := r.Status(); st.Mode != "splice" {
		t.Fatalf("status = %+v, want the splice path", st)
	}
	runErr := make(chan error, 1)
	go func() { runErr <- r.Run() }()

	rd, err := adios.OpenReaderWith(r.Addrs()[0], adios.ReaderOptions{Consumer: "leaf", Codecs: codecs})
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	type got struct {
		seq  int64
		vals []float64
	}
	var rcvd []got
	rdErr := make(chan error, 1)
	go func() {
		for {
			st, err := rd.BeginStep()
			if errors.Is(err, io.EOF) {
				rdErr <- nil
				return
			}
			if err != nil {
				rdErr <- err
				return
			}
			v := st.FindVar("array/temperature")
			if v == nil {
				rdErr <- fmt.Errorf("step %d: temperature missing", st.Step)
				return
			}
			rcvd = append(rcvd, got{st.Step, append([]float64(nil), v.F64...)})
		}
	}()

	prodErr := publishScript(t, hubs, steps)
	if err := <-rdErr; err != nil {
		t.Fatal(err)
	}
	if err := <-prodErr; err != nil {
		t.Fatal(err)
	}
	if err := <-runErr; err != nil {
		t.Fatalf("relay run: %v", err)
	}
	if len(rcvd) != steps {
		t.Fatalf("leaf received %d steps, want %d", len(rcvd), steps)
	}
	for _, g := range rcvd {
		var want []float64
		for b := 0; b < P; b++ {
			v := blockStep(b, int(g.seq)).FindVar("array/temperature")
			want = append(want, v.F64...)
		}
		if len(g.vals) != len(want) {
			t.Fatalf("step %d: %d values, want %d", g.seq, len(g.vals), len(want))
		}
		for i := range want {
			if d := g.vals[i] - want[i]; d > bound || d < -bound {
				t.Fatalf("step %d value %d: %g vs %g exceeds bound %g", g.seq, i, g.vals[i], want[i], bound)
			}
		}
	}
}

// TestRealignKeepsSkippedGrid: sources whose structure steps arrive at
// different steps are realigned by skipping them; the outputs still get
// the grid — once, before the first data step, as the grid alone (the
// skipped steps' arrays are never published) — and then every aligned
// data step.
func TestRealignKeepsSkippedGrid(t *testing.T) {
	hubs, addrs := servedHubs(t, 2)
	r, err := New(addrs, Options{
		Name: "realign", OutRanks: 1,
		Downstream: []Downstream{{Spec: staging.ConsumerSpec{Name: "leaf", Policy: staging.Block, Depth: 4}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	runErr := make(chan error, 1)
	go func() { runErr <- r.Run() }()
	rd, err := adios.OpenReaderWith(r.Addrs()[0], adios.ReaderOptions{Consumer: "leaf"})
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()

	// Source 0 sends its grid at step 0, source 1 at step 1; both then
	// send steps 2 and 3.
	late := blockStep(1, 0)
	late.Step = 1
	script := [][]*adios.Step{
		{blockStep(0, 0), blockStep(0, 2), blockStep(0, 3)},
		{late, blockStep(1, 2), blockStep(1, 3)},
	}
	for b, h := range hubs {
		for _, st := range script[b] {
			if err := h.Publish(st); err != nil {
				t.Fatal(err)
			}
		}
		h.Close()
	}
	var got []*adios.Step
	for {
		st, err := rd.BeginStep()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, st)
	}
	if err := <-runErr; err != nil {
		t.Fatalf("relay run: %v", err)
	}
	if len(got) != 3 {
		t.Fatalf("leaf received %d steps, want the grid and steps 2, 3", len(got))
	}
	grid := got[0]
	if grid.Attrs["structure"] != "1" || grid.FindVar("array/temperature") != nil {
		t.Fatalf("first step = %+v, want the grid alone", grid)
	}
	if conn := grid.FindVar("connectivity"); conn == nil || len(conn.I64) != 16 || conn.I64[15] != 15 {
		t.Fatalf("grid connectivity = %v, want both blocks rebased", conn)
	}
	for k, st := range got[1:] {
		if st.Step != int64(k+2) || len(st.FindVar("array/temperature").F64) != 16 {
			t.Fatalf("data step %d = %+v, want step %d with both blocks", k, st, k+2)
		}
	}
	if st := r.Status(); st.Skipped != 2 || st.Steps != 2 {
		t.Errorf("status %+v, want 2 skipped and 2 relayed", st)
	}
}

// TestMidTreeCrashCleanEOF: killing a mid-tree relay must surface as
// a clean end-of-stream at the leaves of its subtree — io.EOF, never
// a raw connection error — while the tier above keeps running.
func TestMidTreeCrashCleanEOF(t *testing.T) {
	const P = 2
	hubs, addrs := servedHubs(t, P)
	r1, err := New(addrs, Options{Name: "t0"})
	if err != nil {
		t.Fatal(err)
	}
	run1 := make(chan error, 1)
	go func() { run1 <- r1.Run() }()
	r2, err := New(r1.Addrs(), Options{
		Name: "t1", OutRanks: 1,
		Downstream: []Downstream{
			{Spec: staging.ConsumerSpec{Name: "leaf", Policy: staging.Block, Depth: 2}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	run2 := make(chan error, 1)
	go func() { run2 <- r2.Run() }()

	rd, err := adios.OpenReaderWith(r2.Addrs()[0], adios.ReaderOptions{Consumer: "leaf"})
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()

	// Keep the producer streaming until the test ends.
	stop := make(chan struct{})
	prodDone := make(chan struct{})
	go func() {
		defer close(prodDone)
		for s := 0; ; s++ {
			select {
			case <-stop:
				return
			default:
			}
			for b, h := range hubs {
				if h.Publish(blockStep(b, s)) != nil {
					return
				}
			}
		}
	}()
	defer func() {
		close(stop)
		for _, h := range hubs {
			h.Close()
		}
		<-prodDone
	}()

	// Let a couple of steps flow end to end, then kill the mid-tier.
	for i := 0; i < 2; i++ {
		if _, err := rd.BeginStep(); err != nil {
			t.Fatalf("leaf step %d before the crash: %v", i, err)
		}
	}
	if err := r1.Close(); err != nil {
		t.Fatalf("mid-tier close: %v", err)
	}

	// The leaf drains whatever was in flight and then ends cleanly.
	deadline := time.After(15 * time.Second)
	leafErr := make(chan error, 1)
	go func() {
		for {
			if _, err := rd.BeginStep(); err != nil {
				leafErr <- err
				return
			}
		}
	}()
	select {
	case err := <-leafErr:
		if !errors.Is(err, io.EOF) {
			t.Fatalf("leaf ended with %v, want io.EOF", err)
		}
	case <-deadline:
		t.Fatal("leaf still blocked after the mid-tier died")
	}
	if err := <-run1; err != nil {
		t.Fatalf("closed relay run: %v", err)
	}
	// The subtree relay exits (cleanly on a full end-of-stream, or
	// reporting the truncation if its sources ended asymmetrically) —
	// what matters is that it exits and its leaves saw io.EOF.
	select {
	case <-run2:
	case <-time.After(15 * time.Second):
		t.Fatal("downstream relay still running after its upstream died")
	}
	r2.Close()
}

func leafCtx(out string) *sensei.Context {
	return &sensei.Context{
		Comm: mpirt.NewWorld(1).Comm(0), Acct: metrics.NewAccountant(),
		Timer: metrics.NewTimer(), Storage: metrics.NewStorageCounter(),
		OutputDir: out,
	}
}

// TestRelayTreePB146 is the end-to-end mesh: a 2-rank pb146
// simulation staging over TCP, two relay tiers (mirror, then a 2→1
// repartition), and histogram+render leaves at the bottom — with a
// direct endpoint on the producer hubs as the ground truth. The
// contact-dir rendezvous names every tier in one directory.
func TestRelayTreePB146(t *testing.T) {
	out := t.TempDir()
	cdir := filepath.Join(out, "contacts")
	const simRanks, steps, interval = 2, 12, 3
	const triggered = steps / interval

	senseiXML := fmt.Sprintf(`<sensei>
  <analysis type="staging" frequency="%d" contact="sim" contact-dir="%s"
            consumers="tier0:block:2:temperature,direct:block:2:temperature"
            arrays="pressure,temperature"/>
</sensei>`, interval, cdir)

	renderScript := filepath.Join(out, "render.xml")
	if err := os.WriteFile(renderScript, []byte(`<catalyst>
  <image width="64" height="48" output="relay_%06d.png" field="temperature">
    <slice normal="0,1,0" offset="0.5"/>
  </image>
</catalyst>`), 0o644); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	fail := func(format string, args ...any) {
		t.Errorf(format, args...)
	}

	// Tier 0: mirror fan-out on the producer hubs. Tier 1: repartition
	// the two mirrored streams into one merged stream for the leaves.
	var r1, r2 *Relay
	wg.Add(1)
	go func() {
		defer wg.Done()
		addrs, err := adios.Contact{Dir: cdir, Name: "sim"}.Read(30 * time.Second)
		if err != nil {
			fail("tier0 rendezvous: %v", err)
			return
		}
		r1, err = New(addrs, Options{
			Name: "tier0",
			Downstream: []Downstream{
				{Spec: staging.ConsumerSpec{Name: "tier1", Policy: staging.Block, Depth: 2, Arrays: []string{"temperature"}}},
			},
		})
		if err != nil {
			fail("tier0: %v", err)
			return
		}
		if got := r1.Status().Arrays; len(got) != 1 || got[0] != "temperature" {
			fail("tier0 requested %v upstream, want the subtree union [temperature]", got)
		}
		if err := (adios.Contact{Dir: cdir, Name: "tier0"}).Write(r1.Addrs(), ""); err != nil {
			fail("tier0 publish: %v", err)
			return
		}
		if err := r1.Run(); err != nil {
			fail("tier0 run: %v", err)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		addrs, err := adios.Contact{Dir: cdir, Name: "tier0"}.Read(30 * time.Second)
		if err != nil {
			fail("tier1 rendezvous: %v", err)
			return
		}
		r2, err = New(addrs, Options{
			Name: "tier1", OutRanks: 1,
			Downstream: []Downstream{
				{Spec: staging.ConsumerSpec{Name: "histogram", Policy: staging.Block, Depth: 2, Arrays: []string{"temperature"}}},
				{Spec: staging.ConsumerSpec{Name: "render", Policy: staging.Block, Depth: 2, Arrays: []string{"temperature"}}},
			},
		})
		if err != nil {
			fail("tier1: %v", err)
			return
		}
		if err := (adios.Contact{Dir: cdir, Name: "tier1"}).Write(r2.Addrs(), ""); err != nil {
			fail("tier1 publish: %v", err)
			return
		}
		if err := r2.Run(); err != nil {
			fail("tier1 run: %v", err)
		}
	}()

	// Leaves below tier 1, plus the ground-truth endpoint on the
	// producer hubs.
	leaf := func(name, entry, config string) (steps *int, hist **sensei.Histogram) {
		steps = new(int)
		hist = new(*sensei.Histogram)
		wg.Add(1)
		go func() {
			defer wg.Done()
			addrs, err := adios.Contact{Dir: cdir, Name: entry}.Read(30 * time.Second)
			if err != nil {
				fail("%s rendezvous: %v", name, err)
				return
			}
			var readers []*adios.Reader
			defer func() {
				for _, r := range readers {
					r.Close()
				}
			}()
			for _, addr := range addrs {
				r, err := adios.OpenReaderWith(addr, adios.ReaderOptions{Consumer: name})
				if err != nil {
					fail("%s attach: %v", name, err)
					return
				}
				readers = append(readers, r)
			}
			ep, err := intransit.NewEndpoint(leafCtx(out), intransit.Sources(readers...), []byte(config))
			if err != nil {
				fail("%s endpoint: %v", name, err)
				return
			}
			n, err := ep.Run()
			if err != nil {
				fail("%s run: %v", name, err)
				return
			}
			*steps = n
			if h, ok := ep.Analysis().FindAdaptor("histogram").(*sensei.Histogram); ok {
				*hist = h
			}
		}()
		return steps, hist
	}
	histCfg := `<sensei>
  <analysis type="histogram" array="temperature" bins="8"/>
</sensei>`
	renderCfg := fmt.Sprintf(`<sensei>
  <analysis type="catalyst" pipeline="script" filename="%s"/>
</sensei>`, renderScript)
	leafSteps, leafHist := leaf("histogram", "tier1", histCfg)
	renderSteps, _ := leaf("render", "tier1", renderCfg)
	directSteps, directHist := leaf("direct", "sim", histCfg)

	// The simulation: pb146 over the staging analysis, as in the
	// fanout example but behind the contact-dir rendezvous.
	runPB146Sim(t, simRanks, steps, senseiXML, out)
	wg.Wait()
	if t.Failed() {
		return
	}

	if *leafSteps != triggered || *directSteps != triggered || *renderSteps != triggered {
		t.Fatalf("steps: leaf=%d render=%d direct=%d, want %d each",
			*leafSteps, *renderSteps, *directSteps, triggered)
	}
	if *leafHist == nil || *directHist == nil {
		t.Fatal("histogram adaptors missing")
	}
	_, got := (*leafHist).Last()
	_, want := (*directHist).Last()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("relay-tree histogram %v != direct endpoint %v", got, want)
	}
	imgs, _ := filepath.Glob(filepath.Join(out, "relay_*.png"))
	if len(imgs) != triggered {
		t.Errorf("render leaf wrote %d images, want %d", len(imgs), triggered)
	}
	if st := r1.Status(); st.Steps != triggered || st.Mode != "splice" {
		t.Errorf("tier0 status %+v, want %d spliced steps", st, triggered)
	}
	if st := r2.Status(); st.Upstream != 2 || st.OutRanks != 1 {
		t.Errorf("tier1 status %+v, want a 2->1 repartition", st)
	}
}
