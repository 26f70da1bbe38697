package staging

import (
	"bytes"
	"errors"
	"io"
	"math"
	"sync"
	"testing"

	"nekrs-sensei/internal/adios"
	"nekrs-sensei/internal/adios/adiostest"
)

// spliced returns recorded pb146 step i as the relay would publish
// it: both ranks' frames spliced into one.
func spliced(t *testing.T, pool *adios.FramePool, i int) *adios.Frame {
	t.Helper()
	ranks := adiostest.PB146Steps(t)[i]
	f, err := adios.SpliceFrames([][]byte{adios.Marshal(ranks[0]), adios.Marshal(ranks[1])}, pool)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// filterStep is the reference subset of s: only the named arrays, plus
// every non-array variable (e.g. the structure), payloads shared.
func filterStep(s *adios.Step, arrays []string) *adios.Step {
	out := &adios.Step{Step: s.Step, Time: s.Time, Attrs: s.Attrs}
	for i := range s.Vars {
		if adios.KeepVar(s.Vars[i].Name, arrays) {
			out.Vars = append(out.Vars, s.Vars[i])
		}
	}
	return out
}

// TestFramePublishedSubsetsAreMarshalIdentical: for every subset of
// the pb146 arrays, what a subset consumer of a frame-published entry
// ships — a cut along the scanned spans — is byte for byte the marshal
// of the decoded, filtered step; the subset that keeps everything is
// the published frame itself; and none of it decodes a variable.
func TestFramePublishedSubsetsAreMarshalIdentical(t *testing.T) {
	pool := adios.NewFramePool()
	for step := 0; step < 2; step++ {
		h := NewHub(nil)
		var cons []*Consumer
		for mask := 0; mask < 1<<len(adiostest.Arrays); mask++ {
			var arrays []string
			for b, name := range adiostest.Arrays {
				if mask&(1<<b) != 0 {
					arrays = append(arrays, name)
				}
			}
			c, err := h.SubscribeSpec(ConsumerSpec{Name: "c", Policy: Block, Depth: 1, Arrays: arrays})
			if err != nil {
				t.Fatal(err)
			}
			cons = append(cons, c)
		}
		f := spliced(t, pool, step)
		published := f.Bytes()
		decoded, err := adios.Unmarshal(published)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.PublishFrame(f); err != nil {
			t.Fatal(err)
		}
		for _, c := range cons {
			ref, err := c.Next()
			if err != nil {
				t.Fatal(err)
			}
			got, arrays := ref.Frame(), c.Arrays()
			want := published
			if arrays != nil {
				want = adios.Marshal(filterStep(decoded, arrays))
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("step %d subset %v: shipped frame differs from Marshal(filterStep(...)) (%d vs %d bytes)",
					step, arrays, len(got), len(want))
			}
			if whole := arrays == nil || len(arrays) == len(adiostest.Arrays); whole != (&got[0] == &published[0]) {
				t.Errorf("step %d subset %v: shares the published frame = %v", step, arrays, !whole)
			}
			ref.Release()
		}
		if n := h.DecodedVars(); n != 0 {
			t.Errorf("step %d: serving frames decoded %d variables", step, n)
		}
		h.Close()
	}
}

// TestFramePublishedStepDecodesWhatIsAsked: an in-process reader of a
// frame-published entry gets the decoded step of its subset — the
// values the frame carries — decoded once however often it asks.
func TestFramePublishedStepDecodesWhatIsAsked(t *testing.T) {
	h := NewHub(nil)
	defer h.Close()
	c, err := h.SubscribeSpec(ConsumerSpec{Name: "c", Policy: Block, Depth: 1, Arrays: []string{"pressure", "velocity_x"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.PublishFrame(spliced(t, adios.NewFramePool(), 0)); err != nil {
		t.Fatal(err)
	}
	ref, err := c.Next()
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Release()
	st := ref.Step()
	if ref.Step() != st || h.DecodedVars() != 2 {
		t.Fatalf("two Step calls decoded %d variables, want the subset's 2 once", h.DecodedVars())
	}
	ranks := adiostest.PB146Steps(t)[0]
	for _, name := range []string{"array/velocity_x", "array/pressure"} {
		want := append(append([]float64(nil), ranks[0].FindVar(name).F64...), ranks[1].FindVar(name).F64...)
		got := st.FindVar(name)
		if got == nil || len(got.F64) != len(want) {
			t.Fatalf("%s missing or of the wrong length", name)
		}
		for i := range want {
			if math.Float64bits(got.F64[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s[%d] = %v, want %v", name, i, got.F64[i], want[i])
			}
		}
	}
	if len(st.Vars) != 2 {
		t.Errorf("subset step carries %d variables, want 2", len(st.Vars))
	}
}

// TestCodedFormsSameOnFramePublishedHub: a quantize and a
// transpose-delta consumer receive from a frame-published hub the very
// frames a Publish-ed hub encodes — the last one after a resumed
// session's fresh decoder — and so decode to the same values bit for
// bit; the encoder's floats are the only ones decoded (the quantize
// leaf's one array of five), into storage the stream reuses.
func TestCodedFormsSameOnFramePublishedHub(t *testing.T) {
	pool := adios.NewFramePool()
	for _, tc := range []struct {
		name    string
		arrays  []string
		codecs  []string
		decoded int64 // variables the frame-published hub decodes over the three steps
	}{
		{"quantize", []string{"pressure"}, []string{"quantize:1e-6"}, 3 * 1},
		{"transpose-delta", nil, []string{"transpose-delta"}, 3 * 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			byStep, byFrame := NewHub(nil), NewHub(nil)
			defer byStep.Close()
			defer byFrame.Close()
			var cons [2]*Consumer
			var dec [2]*adios.StreamDecoder
			for i, h := range []*Hub{byStep, byFrame} {
				c, err := h.SubscribeSpec(ConsumerSpec{Name: "c", Policy: Block, Depth: 4, Arrays: tc.arrays, Codecs: tc.codecs})
				if err != nil {
					t.Fatal(err)
				}
				cons[i], dec[i] = c, adios.NewStreamDecoder()
			}
			for i := 0; i < 3; i++ {
				f := spliced(t, pool, i)
				whole, err := adios.Unmarshal(f.Bytes())
				if err != nil {
					t.Fatal(err)
				}
				if err := byStep.Publish(whole); err != nil {
					t.Fatal(err)
				}
				if err := byFrame.PublishFrame(f); err != nil {
					t.Fatal(err)
				}
				if i == 2 { // the reader reconnects: its decoder state is gone
					for j, h := range []*Hub{byStep, byFrame} {
						h.parkConsumer(cons[j], nil)
						h.resumeConsumer(cons[j], 0)
						dec[j] = adios.NewStreamDecoder()
					}
				}
				var frames [2][]byte
				var steps [2]adios.Step
				for j := range cons {
					ref, err := cons[j].Next()
					if err != nil {
						t.Fatal(err)
					}
					frames[j] = append([]byte(nil), ref.Frame()...)
					ref.Release()
					if err := dec[j].DecodeInto(frames[j], &steps[j]); err != nil {
						t.Fatalf("step %d hub %d: %v", i, j, err)
					}
				}
				fi, err := adios.ScanFrame(frames[1])
				if err != nil || !fi.Encoded {
					t.Fatalf("step %d: coded=%v (%v), want a coded frame", i, fi.Encoded, err)
				}
				if !bytes.Equal(frames[0], frames[1]) {
					t.Fatalf("step %d: frame-published hub ships a different coded frame (%d vs %d bytes)",
						i, len(frames[1]), len(frames[0]))
				}
				if !bytes.Equal(adios.Marshal(&steps[0]), adios.Marshal(&steps[1])) {
					t.Fatalf("step %d: decoded values differ between the two hubs", i)
				}
			}
			if got := byFrame.DecodedVars(); got != tc.decoded {
				t.Errorf("frame-published hub decoded %d variables for its encoder, want %d", got, tc.decoded)
			}
		})
	}
}

// TestPublishOwnsItsBytes is Publish's contract: the hub holds a copy
// of the step once Publish returns, so a producer that overwrites every
// published array straight away changes nothing any consumer receives.
// Full, subset, coded and spilled consumers each get the bytes Marshal
// gave before the overwrite, and no delivered Step aliases a producer
// slice.
func TestPublishOwnsItsBytes(t *testing.T) {
	names := []string{"a", "b", "c"}
	subset := []string{"a", "c"}
	stores := map[string]*memSpillStore{}
	h := hubWithSpill(stores)
	defer h.Close()
	cons := map[string]*Consumer{}
	for _, spec := range []ConsumerSpec{
		{Name: "full", Policy: Block, Depth: 8},
		{Name: "subset", Policy: Block, Depth: 8, Arrays: subset},
		{Name: "coded", Policy: Block, Depth: 8, Codecs: []string{"transpose-delta"}},
		{Name: "spilled", Policy: Spill, Depth: 1},
	} {
		c, err := h.SubscribeSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		cons[spec.Name] = c
	}
	const steps = 4
	var published []*adios.Step
	var whole, cut [][]byte
	for i := 0; i < steps; i++ {
		s := mkWideStep(i, names, 16)
		whole = append(whole, adios.Marshal(s))
		cut = append(cut, adios.Marshal(filterStep(s, subset)))
		if i == 0 { // the structure step travels whole
			cut[0] = whole[0]
		}
		if err := h.Publish(s); err != nil {
			t.Fatal(err)
		}
		for j := range s.Vars {
			for k := range s.Vars[j].F64 {
				s.Vars[j].F64[k] = -1
			}
		}
		published = append(published, s)
	}
	// Steps 1 and 2 leave the spilled consumer's one-step window; wait
	// until both are on disk, so its deliveries read the spill tier.
	waitFor(t, func() bool {
		st := stores["spilled"]
		st.mu.Lock()
		defer st.mu.Unlock()
		return len(st.frames) == steps-2
	})

	dec := adios.NewStreamDecoder()
	for name, c := range cons {
		want := whole
		if name == "subset" {
			want = cut
		}
		for i := 0; i < steps; i++ {
			ref, err := c.Next()
			if err != nil {
				t.Fatal(err)
			}
			got := ref.Frame()
			if name == "coded" {
				var st adios.Step
				if err := dec.DecodeInto(got, &st); err != nil {
					t.Fatalf("coded step %d: %v", i, err)
				}
				got = adios.Marshal(&st)
			}
			if !bytes.Equal(got, want[i]) {
				t.Errorf("%s step %d: delivered bytes are not the step as published", name, i)
			}
			st := ref.Step()
			if !bytes.Equal(adios.Marshal(st), want[i]) {
				t.Errorf("%s step %d: Step() is not the step as published", name, i)
			}
			for j := range st.Vars {
				v := &st.Vars[j]
				if p := published[i].FindVar(v.Name); len(v.F64) > 0 && &v.F64[0] == &p.F64[0] {
					t.Errorf("%s step %d: %s aliases the producer's array", name, i, v.Name)
				}
			}
			ref.Release()
		}
	}
}

// TestConcurrentPublishersKeepTheirNames: the hub scans each frame
// after the last one's layout, whoever published it, and cuts subsets
// by the scanned names. Two producers publishing differently named
// steps into one hub at once must each see their own arrays cut.
func TestConcurrentPublishersKeepTheirNames(t *testing.T) {
	h := NewHub(nil)
	c, err := h.SubscribeSpec(ConsumerSpec{Name: "c", Policy: Block, Depth: 4, Arrays: []string{"a", "y"}})
	if err != nil {
		t.Fatal(err)
	}
	const perProducer = 50
	var wg sync.WaitGroup
	for _, names := range [][]string{{"a", "b"}, {"x", "y", "z"}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= perProducer; i++ {
				if err := h.Publish(mkWideStep(i, names, 4)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		h.Close()
	}()
	for got := 0; ; got++ {
		ref, err := c.Next()
		if errors.Is(err, io.EOF) {
			if got != 2*perProducer {
				t.Errorf("delivered %d steps, want %d", got, 2*perProducer)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		st, err := adios.Unmarshal(ref.Frame())
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Vars) != 1 || st.Vars[0].Name != "array/a" && st.Vars[0].Name != "array/y" {
			t.Fatalf("step %d: subset cut holds %+v, want one of array/a, array/y", st.Step, st.Vars)
		}
		ref.Release()
	}
}
