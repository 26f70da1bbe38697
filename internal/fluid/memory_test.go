package fluid_test

import (
	"fmt"
	"math"
	"testing"

	"nekrs-sensei/internal/cases"
	"nekrs-sensei/internal/fluid"
	"nekrs-sensei/internal/mesh"
	"nekrs-sensei/internal/metrics"
	"nekrs-sensei/internal/mpirt"
	"nekrs-sensei/internal/occa"
)

// TestMemoryPlan pins what a solver holds, in arrays of n doubles per
// rank ("device" and "solver-work" together), plus one int32 per
// Dirichlet node of the velocity and of the scalar. Every case has 21
// arrays: U V W P, the histories u1 v1 w1 fu1 fv1 fw1, the work
// arrays fu fv fw ru rv rw scr1 scr2, invMult, and the Jacobi
// diagonals diagA diagHV. The scalar adds T t1 ft1 ft diagHT (5). A
// face with a Value adds its lifting fields (ub vb wb, or tb), and a
// Brinkman term its chi. An array added to the solver must be added
// here. The accountant's peak after steps and a restart equals the
// plan: a step allocates nothing it reports.
func TestMemoryPlan(t *testing.T) {
	for _, tc := range []struct {
		c      cases.Case
		arrays int
	}{
		{cases.PB146(1, 3), 21 + 5 + 1},                // scalar, chi
		{cases.RBC(1e5, 0.71, 2, 4, 3, 3), 21 + 5 + 1}, // scalar, tb
		{cases.LidCavity(400, 3, 3), 21 + 3},           // ub vb wb
		{cases.TaylorGreen(0.05, 3, 3), 21},
	} {
		for _, ranks := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/ranks=%d", tc.c.Name, ranks), func(t *testing.T) {
				err := mpirt.RunErr(ranks, func(comm *mpirt.Comm) error {
					acct := metrics.NewAccountant()
					s, err := tc.c.NewSolver(comm, occa.NewDevice(occa.CUDA, acct), acct, nil)
					if err != nil {
						return err
					}
					m := s.Mesh()
					dirichlet := dirichletCount(m, tc.c.VelBC)
					if tc.c.Temperature {
						dirichlet += dirichletCount(m, tc.c.TempBC)
					}
					want := int64(tc.arrays)*int64(m.NumNodes())*8 + int64(dirichlet)*4
					check := func(when string) error {
						got := acct.CategoryPeak("device") + acct.CategoryPeak("solver-work")
						if got != want || acct.Peak() != want {
							return fmt.Errorf("rank %d %s: device+solver-work peak %d B (all categories %d B), want %d arrays of %d nodes + %d Dirichlet nodes = %d B",
								comm.Rank(), when, got, acct.Peak(), tc.arrays, m.NumNodes(), dirichlet, want)
						}
						return nil
					}
					if err := check("after NewSolver"); err != nil {
						return err
					}
					for i := 0; i < 3; i++ {
						s.Step()
					}
					if err := s.LoadFields(hostFields(s), s.Time(), s.StepCount()); err != nil {
						return err
					}
					s.Step()
					s.Step()
					return check("after 5 steps and a restart")
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// dirichletCount counts the rank's nodes on the given faces.
func dirichletCount[V any](m *mesh.Mesh, faces map[mesh.Face]V) int {
	nodes := map[int]bool{}
	for f := range faces {
		for _, i := range m.BoundaryNodes(f) {
			nodes[i] = true
		}
	}
	return len(nodes)
}

// hostFields copies the primary fields to the host, a restart's input.
func hostFields(s *fluid.Solver) map[string][]float64 {
	fields := map[string][]float64{}
	for name, mem := range s.Fields() {
		fields[name] = append([]float64(nil), mem.Data()...)
	}
	return fields
}

// fieldBits returns the Float64bits of every primary field, in a fixed
// order.
func fieldBits(s *fluid.Solver) []uint64 {
	var bits []uint64
	fields := s.Fields()
	for _, name := range []string{"velocity_x", "velocity_y", "velocity_z", "pressure", "temperature"} {
		if mem := fields[name]; mem != nil {
			for _, v := range mem.Data() {
				bits = append(bits, math.Float64bits(v))
			}
		}
	}
	return bits
}

// TestDiagnosticsBetweenStepsChangeNoBit is the aliasing contract of
// the work arrays outside Step: Vorticity computes its gradients in
// fu fv fw and DivergenceL2 its divergence in scr1, so calling both
// after every step must leave every later field bit for bit as a run
// that does not call them.
func TestDiagnosticsBetweenStepsChangeNoBit(t *testing.T) {
	const steps = 6
	for _, c := range []cases.Case{
		cases.PB146(1, 3), cases.RBC(1e5, 0.71, 2, 4, 3, 3),
		cases.LidCavity(400, 3, 3), cases.TaylorGreen(0.05, 3, 3),
	} {
		for _, ranks := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/ranks=%d", c.Name, ranks), func(t *testing.T) {
				run := func(diagnose bool) [][]uint64 {
					bits := make([][]uint64, ranks)
					err := mpirt.RunErr(ranks, func(comm *mpirt.Comm) error {
						s, err := c.NewSolver(comm, occa.NewDevice(occa.CUDA, nil), nil, nil)
						if err != nil {
							return err
						}
						n := s.Mesh().NumNodes()
						wx, wy, wz := make([]float64, n), make([]float64, n), make([]float64, n)
						for i := 0; i < steps; i++ {
							s.Step()
							if diagnose {
								s.Vorticity(wx, wy, wz)
								s.DivergenceL2()
							}
						}
						bits[comm.Rank()] = fieldBits(s)
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
					return bits
				}
				plain, diagnosed := run(false), run(true)
				for r := range plain {
					for i := range plain[r] {
						if plain[r][i] != diagnosed[r][i] {
							t.Fatalf("rank %d value %d after %d steps: %#x with diagnostics between steps, %#x without",
								r, i, steps, diagnosed[r][i], plain[r][i])
						}
					}
				}
			})
		}
	}
}
