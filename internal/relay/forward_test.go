package relay

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"

	"nekrs-sensei/internal/adios"
	"nekrs-sensei/internal/adios/adiostest"
	"nekrs-sensei/internal/staging"
)

// TestRelayForwardsBytes pins the forwarding budget on recorded pb146
// steps through a 2-to-1 splice relay: with only raw leaves below it
// the relay decodes nothing; a quantize leaf makes it decode that
// leaf's one array per step and no more; and either way a steady-state
// step allocates nothing of a payload's size — frames recycle through
// the pools and the encoder's floats land in storage its stream reuses.
func TestRelayForwardsBytes(t *testing.T) {
	const steps, warm = 60, 20
	recorded := adiostest.PB146Steps(t)
	raw := Downstream{Spec: staging.ConsumerSpec{Name: "hist", Policy: staging.Block, Depth: 2,
		Arrays: []string{"pressure", "temperature"}}}
	coded := Downstream{Spec: staging.ConsumerSpec{Name: "hist-q", Policy: staging.Block, Depth: 2,
		Arrays: []string{"pressure"}, Codecs: []string{"quantize:1e-06"}}}
	for _, tc := range []struct {
		name    string
		leaves  []Downstream
		decoded int64 // variables the relay's hub may decode over the run
	}{
		{"raw leaves only", []Downstream{raw}, 0},
		{"one quantize leaf", []Downstream{raw, coded}, steps},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hubs, addrs := servedHubs(t, 2)
			r, err := New(addrs, Options{OutRanks: 1, Downstream: tc.leaves})
			if err != nil {
				t.Fatal(err)
			}
			if mode := r.Status().Mode; mode != "splice" {
				t.Fatalf("relay runs in %s mode, the test needs the raw trunk", mode)
			}
			runErr := make(chan error, 1)
			go func() { runErr <- r.Run() }()

			warmed := make(chan struct{})
			leafErr := make(chan error, len(tc.leaves))
			for i, d := range tc.leaves {
				rd, err := adios.OpenReaderWith(r.Addrs()[0], adios.ReaderOptions{Consumer: d.Spec.Name,
					Arrays: d.Spec.Arrays, Codecs: d.Spec.Codecs})
				if err != nil {
					t.Fatal(err)
				}
				defer rd.Close()
				go func(first bool) {
					for n := 1; ; n++ {
						st, err := rd.BeginStep()
						if errors.Is(err, io.EOF) && n-1 == steps {
							leafErr <- nil
							return
						}
						if err != nil {
							leafErr <- fmt.Errorf("leaf stopped after %d of %d steps: %w", n-1, steps, err)
							return
						}
						rd.Recycle(st)
						if first && n == warm {
							close(warmed)
						}
					}
				}(i == 0)
			}

			var payload int64 // bytes of one spliced trunk step
			for _, rank := range recorded[0] {
				payload += rank.FindVar("array/pressure").Bytes() + rank.FindVar("array/temperature").Bytes()
			}
			var before, after runtime.MemStats
			for i := 1; i <= steps; i++ {
				for rank, h := range hubs {
					src := recorded[i%len(recorded)][rank]
					st := &adios.Step{Step: int64(i), Time: float64(i), Attrs: src.Attrs, Vars: src.Vars}
					if err := h.Publish(st); err != nil {
						t.Fatal(err)
					}
				}
				if i == warm+2 { // block:2 edges: step warm has left the relay by now
					<-warmed
					runtime.ReadMemStats(&before)
				}
			}
			runtime.ReadMemStats(&after)
			for _, h := range hubs {
				h.Close()
			}
			for range tc.leaves {
				if err := <-leafErr; err != nil {
					t.Fatal(err)
				}
			}
			if err := <-runErr; err != nil {
				t.Fatal(err)
			}
			if got := r.Hub(0).DecodedVars(); got != tc.decoded {
				t.Errorf("relay decoded %d variables over %d steps, want %d", got, steps, tc.decoded)
			}
			perStep := int64(after.TotalAlloc-before.TotalAlloc) / (steps - warm - 2)
			if perStep > payload/8 {
				t.Errorf("a steady-state step allocates %d bytes across the mesh; its trunk payload is %d", perStep, payload)
			}
			t.Logf("%d bytes allocated per steady-state step, trunk payload %d", perStep, payload)
		})
	}
}
