package archive

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"slices"
	"testing"
	"time"

	"nekrs-sensei/internal/adios"
	"nekrs-sensei/internal/intransit"
	"nekrs-sensei/internal/metrics"
	"nekrs-sensei/internal/mpirt"
	"nekrs-sensei/internal/sensei"
	"nekrs-sensei/internal/staging"
)

// hexStep builds one valid one-hex-cell step; structure travels on
// the first call (step 0).
func hexStep(step int64) *adios.Step {
	s := &adios.Step{Step: step, Time: 0.5 * float64(step), Attrs: map[string]string{"mesh": "mesh"}}
	if step == 0 {
		pts := make([]float64, 24)
		for i := 0; i < 8; i++ {
			pts[3*i] = float64(i % 2)
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
	f := make([]float64, 8)
	g := make([]float64, 8)
	for i := range f {
		f[i] = float64(step)*100 + float64(i)
		g[i] = -f[i]
	}
	s.Vars = append(s.Vars,
		adios.NewF64("array/f", f),
		adios.NewF64("array/g", g),
	)
	return s
}

// captureFunc adapts a closure to sensei.Analysis: it declares nothing
// and reads the step through Step.Adaptor().
type captureFunc func(da sensei.DataAdaptor) error

func (f captureFunc) Describe() sensei.Requirements         { return sensei.NoRequirements() }
func (f captureFunc) Execute(st *sensei.Step) (bool, error) { return false, f(st.Adaptor()) }
func (f captureFunc) Finalize() error                       { return nil }

// runEndpoint attaches one reader to addr under the given consumer
// options and captures, per executed step, the merged "f" array (and,
// with a non-nil wire, every frame received).
func runEndpoint(addr string, opts adios.ReaderOptions, wire adios.FrameSink) (perStep map[int][]float64, steps int, err error) {
	r, err := adios.OpenReaderWith(addr, opts)
	if err != nil {
		return nil, 0, err
	}
	defer r.Close()
	if wire != nil {
		r.SetRecord(wire)
	}
	ctx := &sensei.Context{
		Comm: mpirt.NewWorld(1).Comm(0), Acct: metrics.NewAccountant(),
		Timer: metrics.NewTimer(), Storage: metrics.NewStorageCounter(),
	}
	ep, err := intransit.NewEndpoint(ctx, intransit.Sources(r), nil)
	if err != nil {
		return nil, 0, err
	}
	perStep = map[int][]float64{}
	ep.Analysis().AddAnalysis("capture", 1, captureFunc(func(da sensei.DataAdaptor) error {
		g, err := da.Mesh("mesh", true)
		if err != nil {
			return err
		}
		if err := da.AddArray(g, "mesh", sensei.AssocPoint, "f"); err != nil {
			return err
		}
		arr := g.FindPointData("f")
		perStep[da.TimeStep()] = append([]float64(nil), arr.Data...)
		return nil
	}))
	steps, err = ep.Run()
	return perStep, steps, err
}

// recordLiveRun publishes steps through a hub with a recording
// consumer and a live endpoint attached over TCP, returning the live
// endpoint's captures and the archive directory.
func recordLiveRun(t *testing.T, steps int) (live map[int][]float64, dir string) {
	t.Helper()
	dir = t.TempDir()
	a, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	hub := staging.NewHub(nil)
	hub.SetAdvertised([]string{"f", "g"})
	rec, err := RecordHub(hub, "", 0, a)
	if err != nil {
		t.Fatal(err)
	}
	// Pre-declare the live consumer so it loses no steps; the binder
	// hands the declared subscription to the attaching reader.
	binder := staging.NewBinder(hub)
	if _, err := binder.Declare(staging.ConsumerSpec{Name: "hist", Policy: staging.Block, Depth: 2}); err != nil {
		t.Fatal(err)
	}
	srv, err := staging.Serve(hub, "127.0.0.1:0", binder.Resolve)
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		perStep map[int][]float64
		err     error
	}
	done := make(chan result, 1)
	go func() {
		perStep, _, err := runEndpoint(srv.Addr(), adios.ReaderOptions{Consumer: "hist"}, nil)
		done <- result{perStep, err}
	}()

	for s := 0; s < steps; s++ {
		if err := hub.Publish(hexStep(int64(s))); err != nil {
			t.Fatal(err)
		}
	}
	hub.Close()
	if err := rec.Wait(); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	return res.perStep, dir
}

// TestRecordReplayEndpointEquivalence is the acceptance shape: an
// unmodified endpoint consumer attached to a replay of a recorded run
// produces the same per-step analysis inputs as it did live.
func TestRecordReplayEndpointEquivalence(t *testing.T) {
	const steps = 6
	live, dir := recordLiveRun(t, steps)
	if len(live) != steps {
		t.Fatalf("live endpoint captured %d steps, want %d", len(live), steps)
	}

	a, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if a.Len() != steps {
		t.Fatalf("archive holds %d steps, want %d", a.Len(), steps)
	}
	// The recorded frames are the hub's own marshals, byte for byte.
	for id := 0; id < steps; id++ {
		got, err := a.ReadFrameInto(int64(id), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, adios.Marshal(hexStep(int64(id)))) {
			t.Fatalf("recorded frame %d differs from the published step's marshal", id)
		}
	}

	rp, err := NewReplay(a, ReplayOptions{
		Consumers: []staging.ConsumerSpec{{Name: "hist", Policy: staging.Block, Depth: 2}},
		From:      -1, To: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		perStep map[int][]float64
		err     error
	}
	done := make(chan result, 1)
	go func() {
		perStep, _, err := runEndpoint(rp.Addr(), adios.ReaderOptions{Consumer: "hist"}, nil)
		done <- result{perStep, err}
	}()
	if err := rp.Run(); err != nil {
		t.Fatal(err)
	}
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	if !reflect.DeepEqual(res.perStep, live) {
		t.Fatalf("replayed captures differ from live:\nlive:   %v\nreplay: %v", live, res.perStep)
	}
	if rp.Published() != steps {
		t.Fatalf("replay published %d, want %d", rp.Published(), steps)
	}
}

// TestRecordReplayEquivalenceCompressed re-runs the acceptance shape
// with a wire codec on the endpoint connection: the analysis inputs
// must match the plain run bit-for-bit under the lossless codecs and
// within the declared bound under the quantizer, live and replayed
// alike — and the archive must keep recording the producer's plain
// BP06 frames verbatim while a codec consumer is attached.
func TestRecordReplayEquivalenceCompressed(t *testing.T) {
	const steps = 6
	const bound = 1e-6
	// The reference inputs, straight from the generator.
	want := map[int][]float64{}
	for s := 0; s < steps; s++ {
		want[s] = hexStep(int64(s)).FindVar("array/f").F64
	}
	check := func(t *testing.T, got map[int][]float64, bound float64) {
		t.Helper()
		if len(got) != steps {
			t.Fatalf("captured %d steps, want %d", len(got), steps)
		}
		for s, w := range want {
			g := got[s]
			if len(g) != len(w) {
				t.Fatalf("step %d: %d values, want %d", s, len(g), len(w))
			}
			for i := range w {
				if bound == 0 {
					if w[i] != g[i] {
						t.Fatalf("step %d: value %d = %v, want %v exactly", s, i, g[i], w[i])
					}
				} else if e := abs(w[i] - g[i]); !(e <= bound) {
					t.Fatalf("step %d: value %d error %g exceeds %g", s, i, e, bound)
				}
			}
		}
	}

	for _, tc := range []struct {
		codec string
		bound float64
	}{
		{codec: "transpose-delta"},
		{codec: "quantize:1e-6", bound: bound},
	} {
		t.Run(tc.codec, func(t *testing.T) {
			dir := t.TempDir()
			a, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			hub := staging.NewHub(nil)
			rec, err := RecordHub(hub, "", 0, a)
			if err != nil {
				t.Fatal(err)
			}
			binder := staging.NewBinder(hub)
			if _, err := binder.Declare(staging.ConsumerSpec{Name: "hist", Policy: staging.Block, Depth: 2}); err != nil {
				t.Fatal(err)
			}
			srv, err := staging.Serve(hub, "127.0.0.1:0", binder.Resolve)
			if err != nil {
				t.Fatal(err)
			}
			type result struct {
				perStep map[int][]float64
				err     error
			}
			done := make(chan result, 1)
			go func() {
				perStep, _, err := runEndpoint(srv.Addr(), adios.ReaderOptions{
					Consumer: "hist", Codecs: []string{tc.codec},
				}, nil)
				done <- result{perStep, err}
			}()
			for s := 0; s < steps; s++ {
				if err := hub.Publish(hexStep(int64(s))); err != nil {
					t.Fatal(err)
				}
			}
			hub.Close()
			if err := rec.Wait(); err != nil {
				t.Fatal(err)
			}
			srv.Close()
			res := <-done
			if res.err != nil {
				t.Fatal(res.err)
			}
			check(t, res.perStep, tc.bound)

			// The archive tier is untouched by wire codecs: recorded
			// frames are the producer's plain marshals, byte for byte.
			for id := 0; id < steps; id++ {
				got, err := a.ReadFrameInto(int64(id), nil)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, adios.Marshal(hexStep(int64(id)))) {
					t.Fatalf("recorded frame %d is not the plain BP06 marshal", id)
				}
			}
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}

			// Replay with the same codec on the endpoint connection.
			a2, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer a2.Close()
			rp, err := NewReplay(a2, ReplayOptions{
				Consumers: []staging.ConsumerSpec{{Name: "hist", Policy: staging.Block, Depth: 2}},
				From:      -1, To: -1,
			})
			if err != nil {
				t.Fatal(err)
			}
			go func() {
				perStep, _, err := runEndpoint(rp.Addr(), adios.ReaderOptions{
					Consumer: "hist", Codecs: []string{tc.codec},
				}, nil)
				done <- result{perStep, err}
			}()
			if err := rp.Run(); err != nil {
				t.Fatal(err)
			}
			res = <-done
			if res.err != nil {
				t.Fatal(res.err)
			}
			check(t, res.perStep, tc.bound)
		})
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestReplayRangeAndSubset replays a recorded run restricted by step
// range and array subset: the endpoint analyses exactly the selected
// window, and the wire never carries the unrequested array. The
// structure record before the range still travels, as the grid alone,
// whether it was recorded on its own or on the first data step (as
// nekrs records it).
func TestReplayRangeAndSubset(t *testing.T) {
	const steps = 8
	grid := hexStep(0)
	grid.Vars = grid.Vars[:4] // the structure variables alone
	own := []*adios.Step{grid}
	firstData := []*adios.Step{hexStep(0)}
	for s := int64(1); s < steps; s++ {
		own = append(own, hexStep(s))
		firstData = append(firstData, hexStep(s))
	}
	for _, tc := range []struct {
		name     string
		recorded []*adios.Step
	}{
		{"structure record of its own", own},
		{"structure on the first data step", firstData},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, err := Open(t.TempDir(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			for _, s := range tc.recorded {
				if _, err := a.AppendFrame(adios.Marshal(s)); err != nil {
					t.Fatal(err)
				}
			}
			rp, err := NewReplay(a, ReplayOptions{
				Consumers: []staging.ConsumerSpec{{Name: "ep", Policy: staging.Block, Depth: 2}},
				From:      3, To: 5,
				Arrays: []string{"f"},
			})
			if err != nil {
				t.Fatal(err)
			}
			var wire frameLog
			type result struct {
				perStep map[int][]float64
				err     error
			}
			done := make(chan result, 1)
			go func() {
				perStep, _, err := runEndpoint(rp.Addr(), adios.ReaderOptions{Consumer: "ep"}, &wire)
				done <- result{perStep, err}
			}()
			if err := rp.Run(); err != nil {
				t.Fatal(err)
			}
			res := <-done
			if res.err != nil {
				t.Fatal(res.err)
			}
			var onWire []int64
			for _, frame := range wire {
				st, err := adios.Unmarshal(frame)
				if err != nil {
					t.Fatal(err)
				}
				if st.FindVar("array/g") != nil {
					t.Fatalf("step %d: unrequested array on the wire", st.Step)
				}
				if st.Step < 3 && st.FindVar("array/f") != nil {
					t.Fatalf("step %d before the range carries data", st.Step)
				}
				onWire = append(onWire, st.Step)
			}
			if want := []int64{0, 3, 4, 5}; !reflect.DeepEqual(onWire, want) {
				t.Fatalf("replayed steps %v, want %v", onWire, want)
			}
			var analysed []int
			for s := range res.perStep {
				analysed = append(analysed, s)
			}
			slices.Sort(analysed)
			if want := []int{3, 4, 5}; !reflect.DeepEqual(analysed, want) {
				t.Fatalf("endpoint analysed steps %v, want %v", analysed, want)
			}
		})
	}
}

// frameLog is a FrameSink keeping the received wire frames.
type frameLog [][]byte

func (l *frameLog) AppendFrame(frame []byte) (int64, error) {
	*l = append(*l, bytes.Clone(frame))
	return int64(len(*l) - 1), nil
}

// TestReplayPublishesFramesUndecoded: a replay hands the hub the bytes
// it read from disk, so a plain consumer is served without a single
// decode and receives each record's frame exactly as archived.
func TestReplayPublishesFramesUndecoded(t *testing.T) {
	const steps = 6
	_, dir := recordLiveRun(t, steps)
	a, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	rp, err := NewReplay(a, ReplayOptions{
		Consumers: []staging.ConsumerSpec{{Name: "ep", Policy: staging.Block, Depth: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var got frameLog
	done := make(chan error, 1)
	go func() {
		r, err := adios.OpenReaderWith(rp.Addr(), adios.ReaderOptions{Consumer: "ep"})
		if err != nil {
			done <- err
			return
		}
		defer r.Close()
		r.SetRecord(&got)
		for {
			st, err := r.BeginStep()
			if errors.Is(err, io.EOF) {
				done <- nil
				return
			}
			if err != nil {
				done <- err
				return
			}
			r.Recycle(st)
		}
	}()
	if err := rp.Run(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n := rp.Hub().DecodedVars(); n != 0 {
		t.Errorf("replay decoded %d variable(s) to serve a plain consumer, want 0", n)
	}
	if len(got) != a.Len() || len(got) != steps {
		t.Fatalf("received %d frames, archive holds %d, want %d", len(got), a.Len(), steps)
	}
	for id, frame := range got {
		want, err := a.ReadFrameInto(int64(id), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(frame, want) {
			t.Errorf("record %d: delivered frame differs from the archived one", id)
		}
	}
}

// TestReplayFixedPace sanity-checks fixed pacing actually spaces the
// publishes out.
func TestReplayFixedPace(t *testing.T) {
	_, dir := recordLiveRun(t, 5)
	a, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	pace, err := ParsePace("100/s")
	if err != nil {
		t.Fatal(err)
	}
	rp, err := NewReplay(a, ReplayOptions{
		Consumers: []staging.ConsumerSpec{{Name: "ep", Policy: staging.DropOldest, Depth: 2}},
		From:      -1, To: -1, Pace: pace,
	})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		r, err := adios.OpenReaderWith(rp.Addr(), adios.ReaderOptions{Consumer: "ep"})
		if err != nil {
			return
		}
		defer r.Close()
		for {
			if _, err := r.BeginStep(); err != nil {
				return
			}
		}
	}()
	start := time.Now()
	if err := rp.Run(); err != nil {
		t.Fatal(err)
	}
	// 5 steps at 100/s = 4 gaps of 10 ms.
	if wall := time.Since(start); wall < 35*time.Millisecond {
		t.Fatalf("fixed pace finished in %v, want >= 40ms-ish", wall)
	}
}

// TestParsePace covers the pacing grammar.
func TestParsePace(t *testing.T) {
	cases := []struct {
		in   string
		want string
		err  bool
	}{
		{"", "max", false},
		{"max", "max", false},
		{"realtime", "realtime", false},
		{"realtime:2x", "realtime:2x", false},
		{"realtime:0.5", "realtime:0.5x", false},
		{"12/s", "12/s", false},
		{"0/s", "", true},
		{"realtime:-1", "", true},
		{"warp9", "", true},
	}
	for _, c := range cases {
		p, err := ParsePace(c.in)
		if c.err != (err != nil) {
			t.Fatalf("ParsePace(%q) err = %v", c.in, err)
		}
		if err == nil && p.String() != c.want {
			t.Fatalf("ParsePace(%q) = %q, want %q", c.in, p.String(), c.want)
		}
	}
}
