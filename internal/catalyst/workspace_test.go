package catalyst

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nekrs-sensei/internal/core"
	"nekrs-sensei/internal/metrics"
	"nekrs-sensei/internal/mpirt"
	"nekrs-sensei/internal/render"
	"nekrs-sensei/internal/sensei"
)

// pulled builds the small test solver on comm, an adaptor for script
// writing under dir, and a step carrying the named arrays (the
// adaptor's own requirements when none are named).
func pulled(t *testing.T, comm *mpirt.Comm, size int, script, dir string, arrays ...string) (*Adaptor, *sensei.Context, *sensei.Step) {
	t.Helper()
	s := newSolver(t, comm, size)
	acct := metrics.NewAccountant()
	ctx := &sensei.Context{
		Comm: comm, Acct: acct, Timer: metrics.NewTimer(),
		Storage: metrics.NewStorageCounter(), OutputDir: dir,
	}
	ps, err := ParsePipelines([]byte(script))
	if err != nil {
		t.Fatal(err)
	}
	a := New(ctx, "mesh", ps)
	da := core.NewNekDataAdaptor(s, acct)
	da.SetStep(5, 0.005)
	req := a.Describe()
	if len(arrays) > 0 {
		req = sensei.RequireArrays("mesh", sensei.AssocPoint, arrays...)
	}
	st, err := sensei.Pull(da, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	return a, ctx, st
}

// accountedNothing reports whether the adaptor has given back all it
// told the accountant about.
func accountedNothing(t *testing.T, ctx *sensei.Context) {
	t.Helper()
	for _, cat := range []string{"catalyst-geom", "catalyst-fb"} {
		if n := ctx.Acct.CategoryInUse(cat); n != 0 {
			t.Errorf("%s: %d bytes still accounted after Execute returned", cat, n)
		}
	}
}

// failingFile accepts every write and fails to close, the way a file
// on a full or remote disk loses its buffered tail.
type failingFile struct{ io.Writer }

var errDiskFull = errors.New("no space left on device")

func (failingFile) Close() error { return errDiskFull }

// TestCloseErrorIsReturned: an image whose file does not close cleanly
// is an error, not an image — it is counted neither in ImagesWritten
// nor in the storage total — and the accountant gets its bytes back.
func TestCloseErrorIsReturned(t *testing.T) {
	a, ctx, st := pulled(t, mpirt.NewWorld(1).Comm(0), 1, testScript, t.TempDir())
	a.create = func(string) (io.WriteCloser, error) { return failingFile{io.Discard}, nil }
	if _, err := a.Execute(st); !errors.Is(err, errDiskFull) {
		t.Fatalf("Execute returned %v, want the close error", err)
	}
	if a.ImagesWritten() != 0 || ctx.Storage.Files() != 0 || ctx.Storage.Bytes() != 0 {
		t.Errorf("a failed image was counted: %d images, %d files, %d bytes",
			a.ImagesWritten(), ctx.Storage.Files(), ctx.Storage.Bytes())
	}
	accountedNothing(t, ctx)
}

// TestErrorPathsFreeAccounting: whichever way Execute fails — a color
// array or a contour array the step does not carry, after an earlier
// pipeline already rendered, or an output directory that cannot be
// made — the accountant's live total is back where it was.
func TestErrorPathsFreeAccounting(t *testing.T) {
	blocked := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(blocked, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	contourOnOther := strings.Replace(testScript, `<contour field="temperature"`, `<contour field="pressure"`, 1)
	for _, tc := range []struct {
		name, script, dir, want string
		arrays                  []string
	}{
		{"color array missing", testScript, t.TempDir(), `array "temperature" missing`, []string{"velocity_x"}},
		{"contour array missing", contourOnOther, t.TempDir(), `contour array "pressure" missing`, []string{"velocity_x", "temperature"}},
		{"output directory unmakeable", testScript, filepath.Join(blocked, "out"), "not a directory", nil},
	} {
		a, ctx, st := pulled(t, mpirt.NewWorld(1).Comm(0), 1, tc.script, tc.dir, tc.arrays...)
		if _, err := a.Execute(st); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Execute returned %v, want an error naming %q", tc.name, err, tc.want)
		}
		accountedNothing(t, ctx)
		if ctx.Acct.CategoryPeak("catalyst-geom") == 0 && tc.arrays != nil {
			t.Errorf("%s: the first pipeline should have rendered before the failure", tc.name)
		}
	}
}

// TestShortArrayRefused: a color or contour array that does not hold
// one value per point — as a malformed frame from a peer could carry —
// fails Execute by name before any pipeline draws it, and the
// accountant gets its bytes back.
func TestShortArrayRefused(t *testing.T) {
	for _, name := range []string{"velocity_x", "temperature"} {
		a, ctx, st := pulled(t, mpirt.NewWorld(1).Comm(0), 1, testScript, t.TempDir())
		g, err := st.Mesh("mesh")
		if err != nil {
			t.Fatal(err)
		}
		arr := g.FindPointData(name)
		arr.Data = arr.Data[:len(arr.Data)-1]
		if _, err := a.Execute(st); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q has %d values for %d points", name, len(arr.Data), g.NumPoints())) {
			t.Errorf("%s one value short: Execute returned %v", name, err)
		}
		accountedNothing(t, ctx)
	}
}

// TestUnwritableOutputDoesNotHang: on two ranks with two pipelines and
// an output directory that cannot be made, every rank returns the
// mkdir error. A write between two pipelines' composites would let the
// rank whose image failed return while its peer waits in the next
// composite for it forever; the deadline turns that hang into a
// failure.
func TestUnwritableOutputDoesNotHang(t *testing.T) {
	blocked := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(blocked, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	const size = 2
	errs := make([]error, size)
	done := make(chan struct{})
	go func() {
		defer close(done)
		mpirt.Run(size, func(c *mpirt.Comm) {
			a, _, st := pulled(t, c, size, testScript, filepath.Join(blocked, "out"))
			_, errs[c.Rank()] = a.Execute(st)
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("a rank is still blocked 30 s after the image writes failed")
	}
	for r, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "not a directory") {
			t.Errorf("rank %d: Execute returned %v, want the mkdir error", r, err)
		}
	}
}

// TestOutputDirMadeOnce: the output directory, parents included, is
// made when the first image is written and not looked at again: take
// it away and the next image fails instead of quietly re-creating it.
func TestOutputDirMadeOnce(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run", "images")
	a, _, st := pulled(t, mpirt.NewWorld(1).Comm(0), 1, testScript, dir)
	for i := 0; i < 2; i++ {
		if _, err := a.Execute(st); err != nil {
			t.Fatal(err)
		}
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*.png")); len(files) != 2 || a.ImagesWritten() != 4 {
		t.Fatalf("%d files and %d images written, want 2 (overwritten once) and 4", len(files), a.ImagesWritten())
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Execute(st); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("Execute after the directory was removed returned %v, want a not-exist error", err)
	}
}

// TestLastFramesPerPipeline: every pipeline keeps its own composited
// frame until the next Execute, which redraws the same frames in place.
func TestLastFramesPerPipeline(t *testing.T) {
	a, _, st := pulled(t, mpirt.NewWorld(1).Comm(0), 1, testScript, t.TempDir())
	if _, err := a.Execute(st); err != nil {
		t.Fatal(err)
	}
	first := append([]*render.Framebuffer(nil), a.LastFrames()...)
	if len(first) != 2 || first[0] == first[1] || first[0].CoveredPixels() == 0 || first[1].CoveredPixels() == 0 {
		t.Fatalf("frames after one Execute: %v", first)
	}
	if string(first[0].Color) == string(first[1].Color) {
		t.Error("the slice and the contour frame hold the same pixels")
	}
	slice := append([]uint8(nil), first[0].Color...)
	if _, err := a.Execute(st); err != nil {
		t.Fatal(err)
	}
	if again := a.LastFrames(); len(again) != 2 || again[0] != first[0] || again[1] != first[1] {
		t.Error("the second Execute did not reuse the pipelines' frames")
	}
	if string(first[0].Color) != string(slice) {
		t.Error("the same step rendered to different pixels the second time")
	}
}

// executeAllocBudget is what a steady-state Execute may allocate per
// image it writes: the path string, and what os.Create and Close
// allocate for the file (four on linux/amd64 with Go 1.24; the budget
// leaves room for another runtime). Filter, draw, composite and encode
// allocate nothing.
const executeAllocBudget = 8

// TestExecuteSteadyStateAllocs: after two warm executes, a trigger
// allocates only on the path that creates the image files, on one rank
// and on two (AllocsPerRun counts the whole process, so every rank).
func TestExecuteSteadyStateAllocs(t *testing.T) {
	const runs = 5
	for _, size := range []int{1, 2} {
		dir := t.TempDir()
		mpirt.Run(size, func(c *mpirt.Comm) {
			a, _, st := pulled(t, c, size, testScript, dir)
			execute := func() {
				if _, err := a.Execute(st); err != nil {
					t.Error(err)
				}
			}
			execute()
			execute()
			c.Barrier()
			if c.Rank() != 0 {
				for i := 0; i < runs+1; i++ { // AllocsPerRun warms up with one extra run
					execute()
				}
				return
			}
			images := float64(len(a.pipelines))
			if allocs := testing.AllocsPerRun(runs, execute); allocs > executeAllocBudget*images {
				t.Errorf("%d ranks: a steady-state Execute allocates %v times, budget %v", size, allocs, executeAllocBudget*images)
			} else {
				t.Logf("%d ranks: %v allocations per Execute (%v images)", size, allocs, images)
			}
		})
	}
}
