// Package adiostest hands the wire's tests and benchmarks real solver
// output to run on: synthetic ramps compress and copy nothing like a
// pressure field does.
package adiostest

import (
	"sync"
	"testing"

	"nekrs-sensei/internal/adios"
	"nekrs-sensei/internal/cases"
	"nekrs-sensei/internal/mpirt"
	"nekrs-sensei/internal/occa"
)

// Arrays are the five solver fields of a staged pb146 step, in the
// order its variables carry them (as "array/<name>").
var Arrays = []string{"velocity_x", "velocity_y", "velocity_z", "pressure", "temperature"}

const (
	ranks    = 2
	order    = 7
	warm     = 1 // steps before the first one kept
	pb146Len = 3
)

var pb146 = sync.OnceValues(func() ([][]*adios.Step, error) {
	steps := make([][]*adios.Step, pb146Len)
	for i := range steps {
		steps[i] = make([]*adios.Step, ranks)
	}
	c := cases.PB146(1, order)
	err := mpirt.RunErr(ranks, func(comm *mpirt.Comm) error {
		s, err := c.NewSolver(comm, occa.NewDevice(occa.CUDA, nil), nil, nil)
		if err != nil {
			return err
		}
		for i := 0; i < warm; i++ {
			s.Step()
		}
		fields := s.Fields()
		for i := range steps {
			s.Step()
			st := &adios.Step{Step: int64(s.StepCount()), Time: s.Time(), Attrs: map[string]string{"mesh": "mesh"}}
			for _, name := range Arrays {
				host := make([]float64, fields[name].Len())
				fields[name].CopyToHost(host)
				st.Vars = append(st.Vars, adios.NewF64("array/"+name, host))
			}
			steps[i][comm.Rank()] = st
		}
		return nil
	})
	return steps, err
})

// PB146Steps returns three consecutive steps of the pb146 case at the
// mesh-replay workload's size (order 7 on two ranks, 32 Ki points per
// rank array), as each rank would stage them: [step][rank]. They are
// solved once per process and shared; do not modify them.
func PB146Steps(tb testing.TB) [][]*adios.Step {
	tb.Helper()
	steps, err := pb146()
	if err != nil {
		tb.Fatalf("adiostest: solving pb146: %v", err)
	}
	return steps
}
