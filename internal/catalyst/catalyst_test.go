package catalyst

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"nekrs-sensei/internal/core"
	"nekrs-sensei/internal/fluid"
	"nekrs-sensei/internal/mesh"
	"nekrs-sensei/internal/metrics"
	"nekrs-sensei/internal/mpirt"
	"nekrs-sensei/internal/occa"
	"nekrs-sensei/internal/sensei"
)

// newSolver builds a small box solver on the unit cube: 2×2×2 elements
// of order 3, or one element along x per rank on more than two ranks
// (three cannot split 2×2×2).
func newSolver(t *testing.T, comm *mpirt.Comm, size int) *fluid.Solver {
	t.Helper()
	m, err := mesh.NewBox(mesh.BoxConfig{
		Nx: max(2, size), Ny: 2, Nz: 2, Lx: 1, Ly: 1, Lz: 1, Order: 3,
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
		InitialTemperature: func(x, y, z float64) float64 { return z },
		InitialVelocity: func(x, y, z float64) (float64, float64, float64) {
			return math.Sin(math.Pi * x), 0, 0
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

const testScript = `<catalyst>
  <image width="64" height="64" output="slice_%06d.png" colormap="viridis"
         camera="1,1,1" field="velocity_x">
    <slice normal="0,0,1" offset="0.5"/>
  </image>
  <image width="64" height="64" output="iso_%06d.png" colormap="coolwarm"
         field="temperature">
    <contour field="temperature" iso="0.5"/>
  </image>
</catalyst>`

func TestParsePipelines(t *testing.T) {
	ps, err := ParsePipelines([]byte(testScript))
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 2 {
		t.Fatalf("pipelines = %d", len(ps))
	}
	if ps[0].Slice == nil || ps[0].Slice.Normal != [3]float64{0, 0, 1} || ps[0].Slice.Offset != 0.5 {
		t.Errorf("slice spec = %+v", ps[0].Slice)
	}
	if ps[1].Contour == nil || ps[1].Contour.Iso != 0.5 || ps[1].Contour.Field != "temperature" {
		t.Errorf("contour spec = %+v", ps[1].Contour)
	}
	if ps[0].Width != 64 || ps[0].Output != "slice_%06d.png" {
		t.Errorf("pipeline 0 = %+v", ps[0])
	}
}

func TestParsePipelinesErrors(t *testing.T) {
	cases := []string{
		`<catalyst></catalyst>`, // no images
		`<catalyst><image width="8" height="8" field="p"/></catalyst>`,                                      // no filter
		`<catalyst><image width="8" height="8"><slice normal="0,0,1"/></image></catalyst>`,                  // no field
		`<catalyst><image field="p"><slice normal="0,0,1"/><contour field="p" iso="1"/></image></catalyst>`, // both filters
		`<catalyst><image field="p" camera="1,2"><slice normal="0,0,1"/></image></catalyst>`,                // bad camera
		`<catalyst><image field="p" min="abc"><slice normal="0,0,1"/></image></catalyst>`,                   // bad min
		`<catalyst><image field="p"><slice normal="zero,0,1" offset="0.5"/></image></catalyst>`,             // bad normal
	}
	for i, c := range cases {
		if _, err := ParsePipelines([]byte(c)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestExecuteWritesImages(t *testing.T) {
	dir := t.TempDir()
	comm := mpirt.NewWorld(1).Comm(0)
	s := newSolver(t, comm, 1)
	acct := metrics.NewAccountant()
	ctx := &sensei.Context{
		Comm: comm, Acct: acct, Timer: metrics.NewTimer(),
		Storage: metrics.NewStorageCounter(), OutputDir: dir,
	}
	ps, err := ParsePipelines([]byte(testScript))
	if err != nil {
		t.Fatal(err)
	}
	a := New(ctx, "mesh", ps)
	da := core.NewNekDataAdaptor(s, acct)
	da.SetStep(100, 0.1)
	st, err := sensei.Pull(da, a.Describe(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Execute(st); err != nil {
		t.Fatal(err)
	}
	if a.ImagesWritten() != 2 {
		t.Errorf("images = %d, want 2", a.ImagesWritten())
	}
	for _, name := range []string{"slice_000100.png", "iso_000100.png"} {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("missing %s: %v", name, err)
			continue
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", name)
		}
	}
	if ctx.Storage.Files() != 2 || ctx.Storage.Bytes() == 0 {
		t.Errorf("storage: %d files, %d bytes", ctx.Storage.Files(), ctx.Storage.Bytes())
	}
	// Frames contain actual geometry.
	for i, fb := range a.LastFrames() {
		if fb.CoveredPixels() == 0 {
			t.Errorf("frame %d empty", i)
		}
	}
	// Transient buffers were freed but left a peak.
	if acct.CategoryInUse("catalyst-fb") != 0 {
		t.Error("framebuffer accounting leak")
	}
	if acct.CategoryPeak("catalyst-fb") == 0 {
		t.Error("framebuffer never accounted")
	}
}

// TestExecuteParallelComposite: pipeline i is composited to rank
// i mod size and written there, on every communicator size: each image
// is written once, by its root, which keeps exactly the frames of the
// pipelines it roots, and the ranks' storage adds up to the two files.
func TestExecuteParallelComposite(t *testing.T) {
	names := []string{"slice_000005.png", "iso_000005.png"} // pulled's step
	for _, size := range []int{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("ranks%d", size), func(t *testing.T) {
			dir := t.TempDir()
			files := make([]int, size)
			frames := make([][]string, len(names)) // per pipeline: the digests of the frames its roots kept
			mpirt.Run(size, func(c *mpirt.Comm) {
				a, ctx, st := pulled(t, c, size, testScript, dir)
				if _, err := a.Execute(st); err != nil {
					t.Error(err)
					return
				}
				var mine []int
				for i := c.Rank(); i < len(names); i += size {
					mine = append(mine, i)
				}
				if a.ImagesWritten() != len(mine) || len(a.LastFrames()) != len(mine) {
					t.Errorf("rank %d: %d images written and %d frames kept, want pipelines %v",
						c.Rank(), a.ImagesWritten(), len(a.LastFrames()), mine)
					return
				}
				for j, fb := range a.LastFrames() {
					digest := sha256.Sum256(fb.Color)
					frames[mine[j]] = append(frames[mine[j]], hex.EncodeToString(digest[:]))
				}
				// The composited slice must cover pixels from all ranks'
				// parts of the plane; one rank of two covers about half of
				// it (~235 px at 64x64), the full slice about 470.
				if c.Rank() == 0 && a.LastFrames()[0].CoveredPixels() < 400 {
					t.Errorf("composited coverage = %d, want the whole slice", a.LastFrames()[0].CoveredPixels())
				}
				files[c.Rank()] = ctx.Storage.Files()
			})
			total := 0
			for _, n := range files {
				total += n
			}
			if total != 2 {
				t.Errorf("files per rank %v, want 2 in all", files)
			}
			// Each pipeline's file holds the pixels of the one frame its
			// root kept.
			for i, name := range names {
				if len(frames[i]) != 1 {
					t.Errorf("pipeline %d: %d ranks kept its frame, want its root alone", i, len(frames[i]))
					continue
				}
				if got := decodedDigest(t, filepath.Join(dir, name)); got != frames[i][0] {
					t.Errorf("%s does not hold pipeline %d's composited frame", name, i)
				}
			}
		})
	}
}

func TestFactoryRegistered(t *testing.T) {
	dir := t.TempDir()
	script := filepath.Join(dir, "analysis.xml")
	if err := os.WriteFile(script, []byte(testScript), 0o644); err != nil {
		t.Fatal(err)
	}
	comm := mpirt.NewWorld(1).Comm(0)
	ctx := &sensei.Context{
		Comm: comm, Acct: metrics.NewAccountant(), Timer: metrics.NewTimer(),
		Storage: metrics.NewStorageCounter(), OutputDir: dir,
	}
	a, err := sensei.NewAnalysisAdaptor("catalyst", ctx, map[string]string{"filename": script})
	if err != nil {
		t.Fatal(err)
	}
	if a == nil {
		t.Fatal("nil adaptor")
	}
	if _, err := sensei.NewAnalysisAdaptor("catalyst", ctx, map[string]string{}); err == nil {
		t.Error("expected filename-required error")
	}
	if _, err := sensei.NewAnalysisAdaptor("catalyst", ctx, map[string]string{"filename": "/does/not/exist.xml"}); err == nil {
		t.Error("expected read error")
	}
	var found bool
	for _, n := range sensei.RegisteredTypes() {
		if n == "catalyst" {
			found = true
		}
	}
	if !found {
		t.Error("catalyst not registered")
	}
}
