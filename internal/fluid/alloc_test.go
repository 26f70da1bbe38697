package fluid_test

import (
	"testing"

	"nekrs-sensei/internal/cases"
	"nekrs-sensei/internal/mpirt"
	"nekrs-sensei/internal/occa"
)

// stepAllocBudget2Ranks is what a steady-state step may allocate on
// two ranks, summed over both: the solver itself allocates nothing,
// but a rank parking on the other in a collective may take a wait
// record from the runtime.
const stepAllocBudget2Ranks = 8

// TestStepDoesNotAllocate is the solver's allocation gate, like the
// wire's: once the Helmholtz diagonals of the BDF2 coefficient exist
// (third step), a pb146 step — advection, pressure and Helmholtz
// solves, gather-scatter, reductions, boundary values — allocates
// nothing on one rank and stays within stepAllocBudget2Ranks on two.
func TestStepDoesNotAllocate(t *testing.T) {
	const warmup, runs = 3, 5
	c := cases.PB146(1, 3)
	for _, tc := range []struct {
		ranks  int
		budget float64
	}{{1, 0}, {2, stepAllocBudget2Ranks}} {
		err := mpirt.RunErr(tc.ranks, func(comm *mpirt.Comm) error {
			s, err := c.NewSolver(comm, occa.NewDevice(occa.CUDA, nil), nil, nil)
			if err != nil {
				return err
			}
			for i := 0; i < warmup; i++ {
				s.Step()
			}
			if comm.Rank() != 0 {
				// AllocsPerRun calls its function once to warm up
				// and then runs times; keep the collectives matched.
				for i := 0; i < runs+1; i++ {
					s.Step()
				}
				return nil
			}
			// The count is the process's, so it includes the other
			// rank's allocations.
			allocs := testing.AllocsPerRun(runs, func() { s.Step() })
			t.Logf("%d rank(s): %v allocations per steady-state step", tc.ranks, allocs)
			if allocs > tc.budget {
				t.Errorf("%d rank(s): a steady-state step allocates %v times, budget %v", tc.ranks, allocs, tc.budget)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
