package catalyst

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"image"
	"image/draw"
	"image/png"
	"os"
	"path/filepath"
	"testing"

	"nekrs-sensei/internal/cases"
	"nekrs-sensei/internal/core"
	"nekrs-sensei/internal/mpirt"
	"nekrs-sensei/internal/nekrs"
	"nekrs-sensei/internal/sensei"
)

var printPins = flag.Bool("print-pins", false, "print the frame digests instead of asserting them")

// pb146Script and rbcScript are the benchmark's two image pipelines
// (benchmark/workload_sim.go, workload_live.go), verbatim.
func pb146Script(px int) string {
	return fmt.Sprintf(`<catalyst>
  <image width="%d" height="%d" output="pb146_slice_%%06d.png" colormap="viridis"
         camera="0,-1,0.3" field="velocity_z">
    <slice normal="0,1,0" offset="0.5"/>
  </image>
  <image width="%d" height="%d" output="pb146_temp_%%06d.png" colormap="coolwarm"
         camera="1,1,0.5" field="temperature">
    <contour field="temperature" iso="0.001"/>
  </image>
</catalyst>`, px, px, px, px)
}

func rbcScript(px int, gamma float64) string {
	return fmt.Sprintf(`<catalyst>
  <image width="%d" height="%d" output="rbc_side_%%06d.png" colormap="coolwarm"
         camera="0,-1,0.12" field="temperature">
    <slice normal="0,1,0" offset="%g"/>
  </image>
  <image width="%d" height="%d" output="rbc_w_%%06d.png" colormap="viridis"
         camera="1,1,1" field="velocity_z">
    <contour field="temperature" iso="0.5"/>
  </image>
</catalyst>`, px, px, gamma/2, px, px)
}

// pixelStep is the step the pinned frames are rendered at.
const pixelStep = 3

// stepped builds the case's solver on comm, advances it pixelStep
// steps and returns an adaptor for the pipelines writing under dir
// together with the pulled step to execute.
func stepped(comm *mpirt.Comm, c cases.Case, ps []Pipeline, dir string) (*Adaptor, *sensei.Step, error) {
	sim, err := nekrs.NewSim(comm, nil, c)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < pixelStep; i++ {
		sim.Solver.Step()
	}
	ctx := &sensei.Context{
		Comm: comm, Acct: sim.Acct, Timer: sim.Timer,
		Storage: sim.Storage, OutputDir: dir,
	}
	a := New(ctx, "mesh", ps)
	da := core.NewNekDataAdaptor(sim.Solver, sim.Acct)
	da.SetStep(pixelStep, float64(pixelStep)*c.Dt)
	st, err := sensei.Pull(da, a.Describe(), nil)
	return a, st, err
}

// renderCase runs the script once in situ on ranks ranks of the case
// and returns the written PNG paths in pipeline order.
func renderCase(t *testing.T, c cases.Case, ranks int, script string) []string {
	t.Helper()
	dir := t.TempDir()
	ps, err := ParsePipelines([]byte(script))
	if err != nil {
		t.Fatal(err)
	}
	err = mpirt.RunErr(ranks, func(comm *mpirt.Comm) error {
		a, st, err := stepped(comm, c, ps, dir)
		if err != nil {
			return err
		}
		_, err = a.Execute(st)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	paths := make([]string, len(ps))
	for i, p := range ps {
		paths[i] = filepath.Join(dir, fmt.Sprintf(p.Output, pixelStep))
	}
	return paths
}

// decodedDigest is the SHA-256 of the image's pixels as 8-bit
// non-premultiplied RGBA, whatever colour type the file stores.
func decodedDigest(t *testing.T, path string) string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	img, err := png.Decode(f)
	if err != nil {
		t.Fatalf("%s: %v", filepath.Base(path), err)
	}
	out := image.NewNRGBA(img.Bounds())
	draw.Draw(out, out.Bounds(), img, img.Bounds().Min, draw.Src)
	sum := sha256.Sum256(out.Pix)
	return hex.EncodeToString(sum[:])
}

// pinnedFrames are the digests of the decoded pixels the commit before
// the render hot path was rebuilt wrote for each configuration
// (go test ./internal/catalyst -run TestPinnedPixels -args -print-pins).
var pinnedFrames = map[string][2]string{
	"pb146/order3/ranks1": {
		"101762e082c42679196d011a2573282fe2100972bacfc0aaffab9d9e33f1ed12",
		"95a360dd1b107990d81eb5e502cdab5cec503a6e68804b8bddcff3a3ec567077",
	},
	"rbc/order3/ranks1": {
		"4f97e07c8cc2bd59e36234a2506d488f2733e243e239674d71f4e29375d85f10",
		"e719a8b1635dfe3364582d1fb4b3935e5d793a55ce4d21835518696bf2fad0c5",
	},
	"pb146/order3/ranks2": {
		"101762e082c42679196d011a2573282fe2100972bacfc0aaffab9d9e33f1ed12",
		"95a360dd1b107990d81eb5e502cdab5cec503a6e68804b8bddcff3a3ec567077",
	},
	"rbc/order3/ranks2": {
		"4f97e07c8cc2bd59e36234a2506d488f2733e243e239674d71f4e29375d85f10",
		"e719a8b1635dfe3364582d1fb4b3935e5d793a55ce4d21835518696bf2fad0c5",
	},
	"pb146/order5/ranks1": {
		"c718b43ba3bd3ea8f14c1c8b67ac1e5539e2dc685139340c42b86b3a2ba03ebe",
		"5c59526e3c6b4444017e30175e6fabfd479116a9c0913f7adf63cdb49e2f2ce0",
	},
	"rbc/order5/ranks1": {
		"24b2dd4b6cc8c9a6cf32315507987381a12f3ca13f2442b1562815d1484a4245",
		"8fba7e95adca7b2f5239ee434b18b844e07842b325ea1de4b475d65b241426f2",
	},
	"pb146/order5/ranks2": {
		"c718b43ba3bd3ea8f14c1c8b67ac1e5539e2dc685139340c42b86b3a2ba03ebe",
		"5c59526e3c6b4444017e30175e6fabfd479116a9c0913f7adf63cdb49e2f2ce0",
	},
	"rbc/order5/ranks2": {
		"24b2dd4b6cc8c9a6cf32315507987381a12f3ca13f2442b1562815d1484a4245",
		"8fba7e95adca7b2f5239ee434b18b844e07842b325ea1de4b475d65b241426f2",
	},
}

// TestPinnedPixels holds the images to the pixels the original
// rasteriser, compositor and stdlib PNG writer produced: the benchmark's
// two scripts on the real pb146 and RBC solvers, order 3 and 5, one
// rank and two.
func TestPinnedPixels(t *testing.T) {
	for _, order := range []int{3, 5} {
		px := 128
		if order == 5 {
			px = 512 // the benchmark's image size
		}
		for _, ranks := range []int{1, 2} {
			for _, cs := range []struct {
				name   string
				c      cases.Case
				script string
			}{
				{"pb146", cases.PB146(1, order), pb146Script(px)},
				{"rbc", cases.RBC(1e5, 0.71, 2, 4, 3, order), rbcScript(px, 2)},
			} {
				key := fmt.Sprintf("%s/order%d/ranks%d", cs.name, order, ranks)
				t.Run(key, func(t *testing.T) {
					if testing.Short() && order == 5 {
						t.Skip("order 5 frames skipped in -short")
					}
					var got [2]string
					for i, p := range renderCase(t, cs.c, ranks, cs.script) {
						got[i] = decodedDigest(t, p)
					}
					if *printPins {
						fmt.Printf("\t%q: {\n\t\t%q,\n\t\t%q,\n\t},\n", key, got[0], got[1])
						return
					}
					if want := pinnedFrames[key]; got != want {
						t.Errorf("decoded pixels changed:\n got  %v\n want %v", got, want)
					}
				})
			}
		}
	}
}

// BenchmarkCatalystExecute is one in situ trigger of the pb146-insitu
// benchmark workload: pb146 at order 5 on two ranks, the two 512²
// pipelines, images written to disk.
func BenchmarkCatalystExecute(b *testing.B) {
	dir := b.TempDir()
	ps, err := ParsePipelines([]byte(pb146Script(512)))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	err = mpirt.RunErr(2, func(comm *mpirt.Comm) error {
		a, st, err := stepped(comm, cases.PB146(1, 5), ps, dir)
		if err != nil {
			return err
		}
		if _, err := a.Execute(st); err != nil { // the first trigger makes the workspaces
			return err
		}
		comm.Barrier()
		if comm.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			if _, err := a.Execute(st); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
