package catalyst

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"nekrs-sensei/internal/cases"
	"nekrs-sensei/internal/core"
	"nekrs-sensei/internal/isosurf"
	"nekrs-sensei/internal/mpirt"
	"nekrs-sensei/internal/nekrs"
	"nekrs-sensei/internal/sensei"
)

// renderCategories is everything an in situ pb146 rank tells its
// accountant: the solver's device fields and work arrays, the VTK
// grid's structure, the pulled arrays' host mirror and VTK copy, and
// the adaptor's framebuffer and soup.
var renderCategories = []string{
	"device", "solver-work", "vtk-structure", "sensei-mirror", "vtk-copy",
	"catalyst-fb", "catalyst-geom",
}

// TestRenderMemoryPlan: pb146 at order 5 on two ranks with the
// benchmark's two 512² pipelines, in situ every step for 8 steps.
// catalyst-geom peaks at one chunk's soup, whatever the surface cuts,
// and a rank's peak is the sum of its categories' peaks: every buffer
// is live at once while a pipeline draws, and nothing else is counted.
func TestRenderMemoryPlan(t *testing.T) {
	if testing.Short() {
		t.Skip("steps an order-5 case")
	}
	const steps = 8
	chunkSoup := int64(chunkCells * isosurf.MaxCellTriangles * (9 + 3) * 8)
	if chunkSoup != 294912 {
		t.Fatalf("a chunk's soup is %d bytes, want 294,912", chunkSoup)
	}
	dir := t.TempDir()
	script := filepath.Join(dir, "analysis.xml")
	if err := os.WriteFile(script, []byte(pb146Script(512)), 0o644); err != nil {
		t.Fatal(err)
	}
	config := fmt.Sprintf(`<sensei>
  <analysis type="catalyst" pipeline="script" filename="%s" frequency="1"/>
</sensei>`, script)
	err := mpirt.RunErr(2, func(comm *mpirt.Comm) error {
		sim, err := nekrs.NewSim(comm, nil, cases.PB146(1, 5))
		if err != nil {
			return err
		}
		ctx := &sensei.Context{
			Comm: comm, Acct: sim.Acct, Timer: sim.Timer,
			Storage: sim.Storage, OutputDir: dir,
		}
		bridge, err := core.Initialize(ctx, sim.Solver, []byte(config))
		if err != nil {
			return err
		}
		for i := 0; i < steps; i++ {
			st := sim.Solver.Step()
			if _, err := bridge.Update(st.Step, st.Time); err != nil {
				return err
			}
		}
		if err := bridge.Finalize(); err != nil {
			return err
		}
		acct := sim.Acct
		if got := acct.CategoryPeak("catalyst-geom"); got != chunkSoup {
			t.Errorf("rank %d: catalyst-geom peaks at %d bytes, want one chunk's %d", comm.Rank(), got, chunkSoup)
		}
		var sum int64
		for _, cat := range renderCategories {
			sum += acct.CategoryPeak(cat)
		}
		if got := acct.Categories(); len(got) != len(renderCategories) {
			t.Errorf("rank %d: categories %v, want %v", comm.Rank(), got, renderCategories)
		}
		if acct.Peak() != sum {
			t.Errorf("rank %d: peak %d bytes, categories' peaks sum to %d", comm.Rank(), acct.Peak(), sum)
		}
		for _, cat := range renderCategories {
			t.Logf("rank %d: %-13s %9d B", comm.Rank(), cat, acct.CategoryPeak(cat))
		}
		t.Logf("rank %d: peak          %9d B", comm.Rank(), acct.Peak())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
