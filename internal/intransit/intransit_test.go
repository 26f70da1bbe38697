package intransit

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"nekrs-sensei/internal/adios"
	"nekrs-sensei/internal/core"
	"nekrs-sensei/internal/fluid"
	"nekrs-sensei/internal/mesh"
	"nekrs-sensei/internal/metrics"
	"nekrs-sensei/internal/mpirt"
	"nekrs-sensei/internal/occa"
	"nekrs-sensei/internal/sensei"

	"nekrs-sensei/internal/staging"

	_ "nekrs-sensei/internal/checkpoint" // register "checkpoint" analysis
)

func newSolver(t *testing.T, comm *mpirt.Comm, size int) *fluid.Solver {
	t.Helper()
	m, err := mesh.NewBox(mesh.BoxConfig{
		Nx: 2, Ny: 2, Nz: 2, Lx: 1, Ly: 1, Lz: 1, Order: 2,
	}, comm.Rank(), size)
	if err != nil {
		t.Fatal(err)
	}
	bc := map[mesh.Face]fluid.VelBC{}
	for _, f := range []mesh.Face{mesh.XMin, mesh.XMax, mesh.YMin, mesh.YMax, mesh.ZMin, mesh.ZMax} {
		bc[f] = fluid.VelBC{}
	}
	s, err := fluid.NewSolver(fluid.Config{
		Mesh: m, Comm: comm, Dev: occa.NewDevice(occa.CUDA, nil),
		Nu: 0.1, Kappa: 0.1, Dt: 1e-3, Temperature: true, VelBC: bc,
		InitialTemperature: func(x, y, z float64) float64 { return x + 10*y + 100*z },
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func ctxFor(comm *mpirt.Comm, dir string) *sensei.Context {
	return &sensei.Context{
		Comm: comm, Acct: metrics.NewAccountant(), Timer: metrics.NewTimer(),
		Storage: metrics.NewStorageCounter(), OutputDir: dir,
	}
}

// directAdaptor builds the simulation side of a direct stream the way
// the XML does: analysis type "adios", one reader, served by the hub.
func directAdaptor(t *testing.T, ctx *sensei.Context, attrs map[string]string) *staging.Adaptor {
	t.Helper()
	a, err := sensei.NewAnalysisAdaptor("adios", ctx, attrs)
	if err != nil {
		t.Fatal(err)
	}
	return a.(*staging.Adaptor)
}

// TestFullPipelineIntegrity streams two simulation ranks' data through
// SST into a single endpoint and verifies values arrive bit-exact; the
// endpoint finds the ranks through the contact file, whose addresses
// must come in rank order for the merge comparison to hold.
func TestFullPipelineIntegrity(t *testing.T) {
	const simRanks = 2
	const steps = 3

	contact := filepath.Join(t.TempDir(), "contact.txt")
	var endpointErr error
	var received [][]float64 // per step: merged temperature
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		addrs, err := adios.Contact{Name: contact}.Read(10 * time.Second)
		if err != nil || len(addrs) != simRanks {
			endpointErr = fmt.Errorf("contact = %v, %v", addrs, err)
			return
		}
		var readers []*adios.Reader
		for _, a := range addrs {
			r, err := adios.OpenReaderWith(a, adios.ReaderOptions{})
			if err != nil {
				endpointErr = err
				return
			}
			defer r.Close()
			readers = append(readers, r)
		}
		ctx := ctxFor(mpirt.NewWorld(1).Comm(0), "")
		ep, err := NewEndpoint(ctx, Sources(readers...), nil)
		if err != nil {
			endpointErr = err
			return
		}
		// Capture each step's merged temperature via a custom analysis.
		ep.ca.AddAnalysis("capture", 1, captureFunc(func(da sensei.DataAdaptor) error {
			g, err := da.Mesh("mesh", true)
			if err != nil {
				return err
			}
			if err := da.AddArray(g, "mesh", sensei.AssocPoint, "temperature"); err != nil {
				return err
			}
			arr := g.FindPointData("temperature")
			received = append(received, append([]float64(nil), arr.Data...))
			return nil
		}))
		if _, err := ep.Run(); err != nil {
			endpointErr = err
		}
	}()

	var sent [][]float64 // per step: concatenated rank temps (rank order)
	sentPerStep := make([][][]float64, steps)
	addrOf := make([]string, simRanks)
	mpirt.Run(simRanks, func(c *mpirt.Comm) {
		s := newSolver(t, c, simRanks)
		ctx := ctxFor(c, "")
		a, err := sensei.NewAnalysisAdaptor("adios", ctx, map[string]string{
			"arrays": "temperature", "contact": contact,
		})
		if err != nil {
			t.Error(err)
			return
		}
		send := a.(*staging.Adaptor)
		addrOf[c.Rank()] = send.Server().Addr()
		da := core.NewNekDataAdaptor(s, ctx.Acct)
		for step := 0; step < steps; step++ {
			s.Step()
			da.SetStep(step, s.Time())
			sendStep, err := sensei.Pull(da, send.Describe(), nil)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := send.Execute(sendStep); err != nil {
				t.Error(err)
				return
			}
			da.ReleaseData() //nolint:errcheck
			// Record what this rank sent.
			mirror := make([]float64, s.T.Len())
			s.T.CopyToHost(mirror)
			mu.Lock()
			if sentPerStep[step] == nil {
				sentPerStep[step] = make([][]float64, simRanks)
			}
			sentPerStep[step][c.Rank()] = mirror
			mu.Unlock()
		}
		if err := send.Finalize(); err != nil {
			t.Error(err)
		}
	})
	wg.Wait()
	if endpointErr != nil {
		t.Fatal(endpointErr)
	}
	if addrs, err := (adios.Contact{Name: contact}).Read(0); err != nil || !reflect.DeepEqual(addrs, addrOf) {
		t.Errorf("contact lists %v (%v), want the ranks' addresses in rank order %v", addrs, err, addrOf)
	}
	for step := range sentPerStep {
		var merged []float64
		for r := 0; r < simRanks; r++ {
			merged = append(merged, sentPerStep[step][r]...)
		}
		sent = append(sent, merged)
	}
	if len(received) != steps {
		t.Fatalf("endpoint saw %d steps, want %d", len(received), steps)
	}
	for step := range sent {
		if len(sent[step]) != len(received[step]) {
			t.Fatalf("step %d: %d vs %d values", step, len(sent[step]), len(received[step]))
		}
		for i := range sent[step] {
			if sent[step][i] != received[step][i] {
				t.Fatalf("step %d value %d: sent %v received %v", step, i, sent[step][i], received[step][i])
			}
		}
	}
}

var mu sync.Mutex

// captureFunc adapts a closure to sensei.Analysis: it declares nothing
// and reads the step through Step.Adaptor(), so a test can pull
// whatever the stream carries. It never requests a stop.
type captureFunc func(da sensei.DataAdaptor) error

func (f captureFunc) Describe() sensei.Requirements         { return sensei.NoRequirements() }
func (f captureFunc) Execute(st *sensei.Step) (bool, error) { return false, f(st.Adaptor()) }
func (f captureFunc) Finalize() error                       { return nil }

// TestEndpointVTUCheckpoint drives the paper's in transit
// Checkpointing measurement point end to end: sim -> SST -> endpoint
// writes VTU.
func TestEndpointVTUCheckpoint(t *testing.T) {
	dir := t.TempDir()
	const steps = 2

	addrCh := make(chan string, 1)
	var wg sync.WaitGroup
	var epErr error
	var processed int
	wg.Add(1)
	go func() {
		defer wg.Done()
		r, err := adios.OpenReaderWith(<-addrCh, adios.ReaderOptions{})
		if err != nil {
			epErr = err
			return
		}
		defer r.Close()
		ctx := ctxFor(mpirt.NewWorld(1).Comm(0), dir)
		cfg := `<sensei>
  <analysis type="checkpoint" mesh="mesh" prefix="rbc" frequency="1"/>
</sensei>`
		ep, err := NewEndpoint(ctx, Sources(r), []byte(cfg))
		if err != nil {
			epErr = err
			return
		}
		processed, epErr = ep.Run()
	}()

	comm := mpirt.NewWorld(1).Comm(0)
	s := newSolver(t, comm, 1)
	ctx := ctxFor(comm, "")
	send := directAdaptor(t, ctx, nil) // all arrays
	addrCh <- send.Server().Addr()
	da := core.NewNekDataAdaptor(s, ctx.Acct)
	for step := 0; step < steps; step++ {
		s.Step()
		da.SetStep(step, s.Time())
		sendStep, err := sensei.Pull(da, send.Describe(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := send.Execute(sendStep); err != nil {
			t.Fatal(err)
		}
		da.ReleaseData() //nolint:errcheck
	}
	if err := send.Finalize(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if epErr != nil {
		t.Fatal(epErr)
	}
	if processed != steps {
		t.Errorf("processed %d steps, want %d", processed, steps)
	}
	for _, name := range []string{"rbc_000000_r0000.vtu", "rbc_000001_r0000.vtu", "rbc_000000.pvtu"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("missing %s", name)
		}
	}
}

// TestStructureSentOnce: the grid structure travels only in the first
// step; later steps carry arrays only.
func TestStructureSentOnce(t *testing.T) {
	comm := mpirt.NewWorld(1).Comm(0)
	s := newSolver(t, comm, 1)
	ctx := ctxFor(comm, "")
	send := directAdaptor(t, ctx, map[string]string{"queue": "4", "arrays": "pressure"})
	r, err := adios.OpenReaderWith(send.Server().Addr(), adios.ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	da := core.NewNekDataAdaptor(s, ctx.Acct)
	for step := 0; step < 2; step++ {
		da.SetStep(step, 0)
		sendStep, err := sensei.Pull(da, send.Describe(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := send.Execute(sendStep); err != nil {
			t.Fatal(err)
		}
		da.ReleaseData() //nolint:errcheck
	}
	go send.Finalize() //nolint:errcheck
	s1, err := r.BeginStep()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := r.BeginStep()
	if err != nil {
		t.Fatal(err)
	}
	if s1.FindVar("points") == nil || s1.Attrs["structure"] != "1" {
		t.Error("first step missing structure")
	}
	if s2.FindVar("points") != nil || s2.Attrs["structure"] == "1" {
		t.Error("second step resent structure")
	}
	if s1.Bytes() <= s2.Bytes() {
		t.Errorf("structure step (%d B) should exceed array step (%d B)", s1.Bytes(), s2.Bytes())
	}
	// The structure step is sent whole: every grid variable beside the array.
	for _, name := range []string{"points", "connectivity", "offsets", "types", "array/pressure"} {
		if s1.FindVar(name) == nil {
			t.Errorf("structure step lacks %q", name)
		}
	}
	if _, err := r.BeginStep(); !errors.Is(err, io.EOF) {
		t.Errorf("want EOF after Finalize, got %v", err)
	}
	if got := ctx.Acct.CategoryInUse("staging-hub"); got != 0 {
		t.Errorf("staging-hub accounting after Finalize = %d, want 0", got)
	}
}

func TestStreamAdaptorErrors(t *testing.T) {
	comm := mpirt.NewWorld(1).Comm(0)
	a := NewStreamDataAdaptor(comm, 1)
	if _, err := a.Mesh("mesh", true); err == nil {
		t.Error("expected no-data error")
	}
	if _, err := a.MeshMetadata(0); err == nil {
		t.Error("expected no-data error")
	}
	// Arrays before structure.
	step := &adios.Step{Step: 1, Vars: []adios.Variable{adios.NewF64("array/p", []float64{1})}}
	if err := a.Ingest(0, step); err == nil {
		t.Error("expected structure-first error")
	}
}

// TestStreamAdaptorMergesBlocks verifies connectivity offsetting when
// merging blocks from two sources.
func TestStreamAdaptorMergesBlocks(t *testing.T) {
	comm := mpirt.NewWorld(1).Comm(0)
	a := NewStreamDataAdaptor(comm, 2)
	mkStep := func(origin float64) *adios.Step {
		pts := make([]float64, 24)
		for i := 0; i < 8; i++ {
			pts[3*i] = origin + float64(i%2)
			pts[3*i+1] = float64((i / 2) % 2)
			pts[3*i+2] = float64(i / 4)
		}
		return &adios.Step{
			Step:  0,
			Attrs: map[string]string{"structure": "1"},
			Vars: []adios.Variable{
				adios.NewF64("points", pts),
				adios.NewI64("connectivity", []int64{0, 1, 3, 2, 4, 5, 7, 6}),
				adios.NewI64("offsets", []int64{8}),
				adios.NewU8("types", []byte{12}),
				adios.NewF64("array/f", []float64{0, 1, 2, 3, 4, 5, 6, 7}),
			},
		}
	}
	if err := a.Ingest(0, mkStep(0)); err != nil {
		t.Fatal(err)
	}
	if err := a.Ingest(1, mkStep(10)); err != nil {
		t.Fatal(err)
	}
	if err := a.Seal(); err != nil {
		t.Fatal(err)
	}
	g, err := a.Mesh("mesh", true)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumPoints() != 16 || g.NumCells() != 2 {
		t.Fatalf("merged %d points %d cells", g.NumPoints(), g.NumCells())
	}
	// Second cell's connectivity must reference the second block.
	if g.Connectivity[8] != 8 {
		t.Errorf("offsetting failed: %v", g.Connectivity[8:])
	}
	if err := a.AddArray(g, "mesh", sensei.AssocPoint, "f"); err != nil {
		t.Fatal(err)
	}
	arr := g.FindPointData("f")
	if len(arr.Data) != 16 || arr.Data[8] != 0 {
		t.Errorf("merged array = %v", arr.Data)
	}
	md, err := a.MeshMetadata(0)
	if err != nil {
		t.Fatal(err)
	}
	if md.NumPoints != 16 || !md.HasArray("f") {
		t.Errorf("metadata = %+v", md)
	}
	if math.Abs(a.Time()-0) > 1e-12 || a.TimeStep() != 0 {
		t.Error("time metadata wrong")
	}
}

// stubSource replays a canned step sequence, then io.EOF.
type stubSource struct {
	steps []*adios.Step
	i     int
}

func (s *stubSource) BeginStep() (*adios.Step, error) {
	if s.i >= len(s.steps) {
		return nil, io.EOF
	}
	s.i++
	return s.steps[s.i-1], nil
}

// stubStep builds a one-hex-cell step; structure travels on step 0.
func stubStep(step int64, origin float64) *adios.Step {
	s := &adios.Step{Step: step, Time: float64(step), Attrs: map[string]string{}}
	if step == 0 {
		pts := make([]float64, 24)
		for i := 0; i < 8; i++ {
			pts[3*i] = origin + float64(i%2)
			pts[3*i+1] = float64((i / 2) % 2)
			pts[3*i+2] = float64(i / 4)
		}
		s.Attrs["structure"] = "1"
		s.Vars = append(s.Vars,
			adios.NewF64("points", pts),
			adios.NewI64("connectivity", []int64{0, 1, 3, 2, 4, 5, 7, 6}),
			adios.NewI64("offsets", []int64{8}),
			adios.NewU8("types", []byte{12}),
		)
	}
	s.Vars = append(s.Vars, adios.NewF64("array/f", []float64{
		float64(step), 1, 2, 3, 4, 5, 6, 7,
	}))
	return s
}

// TestEndpointResyncSkewedSources: hub sources under a drop policy
// shed steps independently, so two sources can deliver different step
// subsequences; the endpoint must realign on the common steps instead
// of merging mismatched timesteps.
func TestEndpointResyncSkewedSources(t *testing.T) {
	a := &stubSource{steps: []*adios.Step{stubStep(0, 0), stubStep(2, 0), stubStep(5, 0)}}
	b := &stubSource{steps: []*adios.Step{stubStep(0, 10), stubStep(3, 10), stubStep(5, 10)}}
	ctx := ctxFor(mpirt.NewWorld(1).Comm(0), "")
	ep, err := NewEndpoint(ctx, []StepSource{a, b}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var seen []int
	ep.ca.AddAnalysis("capture", 1, captureFunc(func(da sensei.DataAdaptor) error {
		g, err := da.Mesh("mesh", true)
		if err != nil {
			return err
		}
		if err := da.AddArray(g, "mesh", sensei.AssocPoint, "f"); err != nil {
			return err
		}
		arr := g.FindPointData("f")
		// Both blocks must carry the same step's data after resync.
		if arr.Data[0] != arr.Data[8] {
			t.Errorf("merged mismatched steps: %v vs %v", arr.Data[0], arr.Data[8])
		}
		seen = append(seen, da.TimeStep())
		return nil
	}))
	n, err := ep.Run()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || len(seen) != 2 || seen[0] != 0 || seen[1] != 5 {
		t.Errorf("processed %d steps %v, want the aligned steps [0 5]", n, seen)
	}
}

// TestStagingFanoutEndpoints runs the hub-based deployment shape in
// process: one simulation publishes into a staging hub and three
// endpoints with different backpressure policies consume it through
// the same StepSource seam as direct SST readers.
func TestStagingFanoutEndpoints(t *testing.T) {
	const steps = 6
	comm := mpirt.NewWorld(1).Comm(0)
	s := newSolver(t, comm, 1)
	ctx := ctxFor(comm, "")
	hub := staging.NewHub(ctx.Acct)
	send := staging.New(ctx, hub, "mesh", []string{"temperature"})

	specs := []struct {
		name   string
		policy staging.Policy
		depth  int
	}{
		{"sync", staging.Block, 2},
		{"lossy", staging.DropOldest, 2},
		{"viz", staging.DropOldest, 1},
	}
	processed := make([]int, len(specs))
	lastTemp := make([][]float64, len(specs))
	epErrs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		cons, err := hub.Subscribe(spec.name, spec.policy, spec.depth)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, cons *staging.Consumer) {
			defer wg.Done()
			epCtx := ctxFor(mpirt.NewWorld(1).Comm(0), "")
			ep, err := NewEndpoint(epCtx, []StepSource{cons}, nil)
			if err != nil {
				epErrs[i] = err
				return
			}
			ep.ca.AddAnalysis("capture", 1, captureFunc(func(da sensei.DataAdaptor) error {
				g, err := da.Mesh("mesh", true)
				if err != nil {
					return err
				}
				if err := da.AddArray(g, "mesh", sensei.AssocPoint, "temperature"); err != nil {
					return err
				}
				lastTemp[i] = append([]float64(nil), g.FindPointData("temperature").Data...)
				return nil
			}))
			processed[i], epErrs[i] = ep.Run()
		}(i, cons)
	}

	da := core.NewNekDataAdaptor(s, ctx.Acct)
	for step := 0; step < steps; step++ {
		s.Step()
		da.SetStep(step, s.Time())
		sendStep, err := sensei.Pull(da, send.Describe(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := send.Execute(sendStep); err != nil {
			t.Fatal(err)
		}
		da.ReleaseData() //nolint:errcheck
	}
	if err := send.Finalize(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, err := range epErrs {
		if err != nil {
			t.Fatalf("%s endpoint: %v", specs[i].name, err)
		}
	}

	if processed[0] != steps {
		t.Errorf("block endpoint processed %d steps, want %d", processed[0], steps)
	}
	for i := range specs {
		if processed[i] == 0 {
			t.Errorf("%s endpoint processed nothing", specs[i].name)
		}
	}
	// Every endpoint's final step is the simulation's final state —
	// bit-exact, since the hub shares the adaptor's buffers.
	final := make([]float64, s.T.Len())
	s.T.CopyToHost(final)
	for i := range specs {
		if len(lastTemp[i]) != len(final) {
			t.Fatalf("%s: %d values, want %d", specs[i].name, len(lastTemp[i]), len(final))
		}
		for j := range final {
			if lastTemp[i][j] != final[j] {
				t.Fatalf("%s: value %d: got %v want %v", specs[i].name, j, lastTemp[i][j], final[j])
			}
		}
	}
	if hub.Published() != steps {
		t.Errorf("hub published %d, want %d", hub.Published(), steps)
	}
}

func TestDirectAdaptorFactory(t *testing.T) {
	dir := t.TempDir()
	contact := filepath.Join(dir, "contact.txt")
	comm := mpirt.NewWorld(1).Comm(0)
	ctx := ctxFor(comm, "")
	send := directAdaptor(t, ctx, map[string]string{
		"address": "127.0.0.1:0", "queue": "4", "contact": contact,
	})
	addr := send.Server().Addr()
	addrs, err := adios.Contact{Name: contact}.Read(0)
	if err != nil || len(addrs) != 1 || addrs[0] != addr {
		t.Errorf("contact = %v, %v", addrs, err)
	}
	// Connect a sink so Finalize's end-of-stream delivery completes
	// without waiting for the close deadline.
	r, err := adios.OpenReaderWith(addr, adios.ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	done := make(chan error, 1)
	go func() {
		for {
			if _, err := r.BeginStep(); err != nil {
				done <- err
				return
			}
		}
	}()
	if err := send.Finalize(); err != nil {
		t.Error(err)
	}
	if err := <-done; !errors.Is(err, io.EOF) {
		t.Errorf("stream ended with %v, want EOF after Finalize", err)
	}
	if _, err := sensei.NewAnalysisAdaptor("adios", ctx, map[string]string{"queue": "bogus"}); err == nil {
		t.Error("expected queue error")
	}
}

// TestDirectSecondReaderRejected: a direct stream has one reader. A
// second one dialing while the first is attached must be told so in the
// handshake — not sit unanswered in the listen backlog for as long as
// the first stream lives.
func TestDirectSecondReaderRejected(t *testing.T) {
	send := directAdaptor(t, ctxFor(mpirt.NewWorld(1).Comm(0), ""), nil)
	addr := send.Server().Addr()
	first, err := adios.OpenReaderWith(addr, adios.ReaderOptions{Consumer: "whatever-name"})
	if err != nil {
		t.Fatalf("first reader (any announced name claims the stream): %v", err)
	}
	defer first.Close()
	got := make(chan error, 1)
	go func() {
		second, err := adios.OpenReaderWith(addr, adios.ReaderOptions{})
		if err == nil {
			second.Close()
		}
		got <- err
	}()
	select {
	case err := <-got:
		var rej *adios.RejectedError
		if !errors.As(err, &rej) || !strings.Contains(rej.Reason, "already attached") {
			t.Errorf("second reader: %v, want a handshake rejection \"already attached\"", err)
		}
	case <-time.After(2 * time.Second):
		t.Error("second reader's hello still unanswered after 2s")
	}
	go send.Finalize() //nolint:errcheck
	if _, err := first.BeginStep(); !errors.Is(err, io.EOF) {
		t.Errorf("first reader: %v, want EOF", err)
	}
}

// TestSendSubsetOnWire: a reader declaring an array subset in its
// hello makes the direct-stream adaptor pull and ship only those
// arrays (structure step excepted); an unadvertised array is rejected
// in the handshake and leaves the stream claimable.
func TestSendSubsetOnWire(t *testing.T) {
	comm := mpirt.NewWorld(1).Comm(0)
	s := newSolver(t, comm, 1)
	ctx := ctxFor(comm, "")
	send := directAdaptor(t, ctx, map[string]string{"queue": "8", "arrays": "pressure,temperature"})
	addr := send.Server().Addr()

	// Before any reader the declaration is the configured set.
	if n := len(send.Describe().Mesh("mesh").PointArrayNames()); n != 2 {
		t.Errorf("Describe before a reader names %d arrays, want 2", n)
	}
	// Handshake rejection: the requested array is not advertised.
	if _, err := adios.OpenReaderWith(addr, adios.ReaderOptions{
		Arrays: []string{"vorticity_x"},
	}); err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("want handshake rejection, got %v", err)
	}
	r, err := adios.OpenReaderWith(addr, adios.ReaderOptions{Arrays: []string{"pressure"}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// The declaration shrank to the reader's subset.
	if req := send.Describe(); req.Mesh("mesh") == nil ||
		len(req.Mesh("mesh").PointArrayNames()) != 1 {
		t.Errorf("Describe after subset hello = %v", send.Describe())
	}

	da := core.NewNekDataAdaptor(s, ctx.Acct)
	const steps = 2
	for step := 0; step < steps; step++ {
		s.Step()
		da.SetStep(step, s.Time())
		st, err := sensei.Pull(da, send.Describe(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if g, err := st.Mesh("mesh"); err != nil || g.FindPointData("temperature") != nil {
			t.Errorf("step %d: pull fetched the unrequested array (%v)", step, err)
		}
		if _, err := send.Execute(st); err != nil {
			t.Fatal(err)
		}
		da.ReleaseData() //nolint:errcheck
	}
	go send.Finalize() //nolint:errcheck
	for step := 0; step < steps; step++ {
		got, err := r.BeginStep()
		if err != nil {
			t.Fatal(err)
		}
		if got.FindVar("array/pressure") == nil {
			t.Errorf("step %d: requested array missing", step)
		}
		if got.FindVar("array/temperature") != nil {
			t.Errorf("step %d: unrequested array shipped", step)
		}
	}
	if _, err := r.BeginStep(); !errors.Is(err, io.EOF) {
		t.Errorf("want EOF, got %v", err)
	}
}

// stopAfter is a v2 analysis requesting a stop at the n-th execution.
type stopAfter struct {
	n, execs int
}

func (s *stopAfter) Describe() sensei.Requirements { return sensei.NoRequirements() }
func (s *stopAfter) Execute(st *sensei.Step) (bool, error) {
	s.execs++
	return s.execs >= s.n, nil
}
func (s *stopAfter) Finalize() error { return nil }

// TestEndpointStopSignal: an analysis returning stop=true ends the
// endpoint's Run cleanly after that step, without an error and
// without draining the rest of the stream.
func TestEndpointStopSignal(t *testing.T) {
	hub := staging.NewHub(nil)
	cons, err := hub.Subscribe("stop", staging.DropOldest, 8)
	if err != nil {
		t.Fatal(err)
	}
	ctx := ctxFor(mpirt.NewWorld(1).Comm(0), "")
	ep, err := NewEndpoint(ctx, []StepSource{cons}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ep.ca.AddAnalysis("stopper", 1, &stopAfter{n: 2})

	names := []string{"f"}
	for i := 0; i < 6; i++ {
		if err := hub.Publish(mkHubStep(i, names)); err != nil {
			t.Fatal(err)
		}
	}
	steps, err := ep.Run()
	if err != nil {
		t.Fatal(err)
	}
	if steps != 2 || !ep.Stopped() {
		t.Errorf("steps=%d stopped=%v, want 2 steps and stopped", steps, ep.Stopped())
	}
	hub.Close()
}

// mkHubStep builds a minimal valid stream step for hub-fed endpoints.
func mkHubStep(seq int, names []string) *adios.Step {
	s := &adios.Step{
		Step:  int64(seq),
		Time:  float64(seq),
		Attrs: map[string]string{"mesh": "mesh"},
	}
	if seq == 0 {
		s.Attrs["structure"] = "1"
		s.Vars = append(s.Vars,
			adios.NewF64("points", make([]float64, 3*8), 8, 3),
			adios.NewI64("connectivity", []int64{0, 1, 2, 3, 4, 5, 6, 7}),
			adios.NewI64("offsets", []int64{8}),
			adios.NewU8("types", []byte{12}),
		)
	}
	for _, n := range names {
		s.Vars = append(s.Vars, adios.NewF64("array/"+n, []float64{1, 2, 3, 4, 5, 6, 7, 8}))
	}
	return s
}

// TestStorageReuseVanishedArray: under storage reuse an array that
// stops arriving mid-stream must still be a hard AddArray error
// (missing key), not a silent zero-length delivery from a recycled
// buffer.
func TestStorageReuseVanishedArray(t *testing.T) {
	comm := mpirt.NewWorld(1).Comm(0)
	da := NewStreamDataAdaptor(comm, 1)

	structure := &adios.Step{
		Step: 0, Attrs: map[string]string{"structure": "1"},
		Vars: []adios.Variable{
			adios.NewF64("points", []float64{0, 0, 0, 1, 0, 0, 1, 1, 0, 0, 1, 0, 0, 0, 1, 1, 0, 1, 1, 1, 1, 0, 1, 1}),
			adios.NewI64("connectivity", []int64{0, 1, 2, 3, 4, 5, 6, 7}),
			adios.NewI64("offsets", []int64{8}),
			adios.NewU8("types", []byte{12}),
			adios.NewF64("array/p", []float64{1, 2, 3, 4, 5, 6, 7, 8}),
		},
	}
	if err := da.Ingest(0, structure); err != nil {
		t.Fatal(err)
	}
	if err := da.Seal(); err != nil {
		t.Fatal(err)
	}
	g, err := da.Mesh("mesh", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := da.AddArray(g, "mesh", sensei.AssocPoint, "p"); err != nil {
		t.Fatalf("step 0: %v", err)
	}
	if err := da.ReleaseData(); err != nil {
		t.Fatal(err)
	}

	// Step 1 no longer ships "p".
	next := &adios.Step{Step: 1, Attrs: map[string]string{}}
	if err := da.Ingest(0, next); err != nil {
		t.Fatal(err)
	}
	g, err = da.Mesh("mesh", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := da.AddArray(g, "mesh", sensei.AssocPoint, "p"); err == nil {
		t.Error("vanished array delivered silently under storage reuse")
	}

	// Step 2 ships it again: the parked buffer is recycled.
	again := &adios.Step{Step: 2, Attrs: map[string]string{},
		Vars: []adios.Variable{adios.NewF64("array/p", []float64{9, 10, 11, 12, 13, 14, 15, 16})}}
	if err := da.ReleaseData(); err != nil {
		t.Fatal(err)
	}
	if err := da.Ingest(0, again); err != nil {
		t.Fatal(err)
	}
	g, err = da.Mesh("mesh", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := da.AddArray(g, "mesh", sensei.AssocPoint, "p"); err != nil {
		t.Fatalf("step 2: %v", err)
	}
	if arr := g.FindPointData("p"); arr == nil || arr.Data[0] != 9 {
		t.Errorf("recycled array has wrong contents: %+v", arr)
	}
}

// TestLoneSourceIngestCopiesNothing: a rank with one source analyses
// that source's step arrays themselves; a rank with two concatenates
// them into storage of its own.
func TestLoneSourceIngestCopiesNothing(t *testing.T) {
	for _, sources := range []int{1, 2} {
		da := NewStreamDataAdaptor(mpirt.NewWorld(1).Comm(0), sources)
		steps := make([]*adios.Step, sources)
		for seq := 0; seq < 2; seq++ {
			for b := range steps {
				steps[b] = blockStep(b, seq)
				if err := da.Ingest(b, steps[b]); err != nil {
					t.Fatal(err)
				}
			}
			if err := da.Seal(); err != nil {
				t.Fatal(err)
			}
			g, err := da.Mesh("mesh", true)
			if err == nil {
				err = da.AddArray(g, "mesh", sensei.AssocPoint, "temperature")
			}
			if err != nil {
				t.Fatal(err)
			}
			got, lent := g.FindPointData("temperature").Data, steps[0].FindVar("array/temperature").F64
			if same := &got[0] == &lent[0]; same != (sources == 1) {
				t.Errorf("%d source(s), step %d: analysed array is the step's own = %v", sources, seq, same)
			}
			if len(got) != 8*sources {
				t.Errorf("%d source(s): merged %d values, want %d", sources, len(got), 8*sources)
			}
			if err := da.ReleaseData(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
