package fluid_test

import (
	"runtime"
	"testing"

	"nekrs-sensei/internal/cases"
	"nekrs-sensei/internal/mpirt"
	"nekrs-sensei/internal/occa"
)

// stepAllocBudget2Ranks is what a step may allocate on two ranks,
// summed over both: the solver itself allocates nothing, but a rank
// parking on the other in a collective may take a wait record from
// the runtime.
const stepAllocBudget2Ranks = 8

// TestStepDoesNotAllocate is the solver's allocation gate, like the
// wire's: a pb146 step — advection, pressure and Helmholtz solves,
// gather-scatter, reductions, boundary values — allocates nothing on
// one rank and stays within stepAllocBudget2Ranks on two. That holds
// for the second step, where b0/dt changes from BDF1's to BDF2's and
// the Helmholtz diagonals are rebuilt, for steady-state steps, and for
// a restart: LoadFields and the two steps after it, which rebuild the
// diagonals twice.
func TestStepDoesNotAllocate(t *testing.T) {
	const runs = 5
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
			// measure runs f n times on every rank, so the collectives
			// stay matched, and checks on rank 0 the allocations per
			// call: the count is the process's, so it includes the
			// other rank's. Like testing.AllocsPerRun it runs on one
			// P, but it makes no warm-up call, which would take the
			// very step to measure.
			measure := func(what string, n int, steps float64, f func()) {
				if comm.Rank() != 0 {
					for i := 0; i < n; i++ {
						f()
					}
					return
				}
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < n; i++ {
					f()
				}
				runtime.ReadMemStats(&after)
				allocs := float64(after.Mallocs-before.Mallocs) / float64(n)
				t.Logf("%d rank(s): %v allocations per %s", tc.ranks, allocs, what)
				if budget := tc.budget * steps; allocs > budget {
					t.Errorf("%d rank(s): %s allocates %v times, budget %v", tc.ranks, what, allocs, budget)
				}
			}
			step := func() { s.Step() }
			s.Step()
			measure("second step (b0/dt changes)", 1, 1, step)
			measure("steady-state step", runs, 1, step)
			restart := hostFields(s)
			measure("restart and the two steps after it", runs, 2, func() {
				if err := s.LoadFields(restart, s.Time(), s.StepCount()); err != nil {
					t.Error(err)
				}
				s.Step()
				s.Step()
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
