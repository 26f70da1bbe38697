package fluid_test

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
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
			// very step to measure. Over budget, every rank runs the
			// window again and rank 0 prints what allocated in it: the
			// count alone cannot tell the solver from another
			// goroutine of the test binary.
			measure := func(what string, n int, steps float64, f func()) {
				over := int64(0)
				if comm.Rank() == 0 {
					prev := runtime.GOMAXPROCS(1)
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					for i := 0; i < n; i++ {
						f()
					}
					runtime.ReadMemStats(&after)
					runtime.GOMAXPROCS(prev)
					allocs := float64(after.Mallocs-before.Mallocs) / float64(n)
					t.Logf("%d rank(s): %v allocations per %s", tc.ranks, allocs, what)
					if budget := tc.budget * steps; allocs > budget {
						t.Errorf("%d rank(s): %s allocates %v times, budget %v", tc.ranks, what, allocs, budget)
						over = 1
					}
				} else {
					for i := 0; i < n; i++ {
						f()
					}
				}
				if comm.AllreduceI64Scalar(over, mpirt.OpMax) == 0 {
					return
				}
				if comm.Rank() != 0 {
					for i := 0; i < n; i++ {
						f()
					}
					return
				}
				t.Logf("%d rank(s): allocating stacks of %s, re-measured:\n%s", tc.ranks, what, allocStacks(n, f))
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

// allocStacks runs f n times with every allocation of the process
// profiled (runtime.MemProfileRate = 1) and renders each stack that
// allocated in that window, most allocations first, without its
// runtime frames. Outside the window nothing is profiled, so its own
// bookkeeping does not show.
func allocStacks(n int, f func()) string {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 0
	// The profile publishes a cycle's allocations two collections
	// later.
	settle := func() map[[32]uintptr]int64 {
		runtime.GC()
		runtime.GC()
		recs := make([]runtime.MemProfileRecord, 256)
		for {
			k, ok := runtime.MemProfile(recs, true)
			if ok {
				recs = recs[:k]
				break
			}
			recs = make([]runtime.MemProfileRecord, 2*k)
		}
		out := make(map[[32]uintptr]int64, len(recs))
		for _, r := range recs {
			out[r.Stack0] += r.AllocObjects
		}
		return out
	}
	before := settle()
	runtime.MemProfileRate = 1
	for i := 0; i < n; i++ {
		f()
	}
	runtime.MemProfileRate = 0
	type site struct {
		count int64
		stack [32]uintptr
	}
	var sites []site
	for stack, count := range settle() {
		if d := count - before[stack]; d > 0 {
			sites = append(sites, site{d, stack})
		}
	}
	if len(sites) == 0 {
		return "  (no allocation in the re-measured window)\n"
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i].count > sites[j].count })
	var b strings.Builder
	for _, s := range sites {
		fmt.Fprintf(&b, "  %d allocation(s) at:\n", s.count)
		frames := runtime.CallersFrames(s.stack[:])
		for {
			fr, more := frames.Next()
			if fr.Function != "" && !strings.HasPrefix(fr.Function, "runtime.") && !strings.HasPrefix(fr.Function, "internal/runtime/") {
				fmt.Fprintf(&b, "    %s %s:%d\n", fr.Function, fr.File, fr.Line)
			}
			if !more {
				break
			}
		}
	}
	return b.String()
}
