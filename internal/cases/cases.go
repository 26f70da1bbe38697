// Package cases defines the scientific workloads of the paper's
// evaluation: the pb146 pebble-bed reactor core (146 spherical pebbles,
// the NekRS example suite case used for the in situ study on Polaris)
// and Rayleigh-Bénard mesoscale convection (the in transit study on
// JUWELS Booster), plus the Taylor-Green vortex and lid-driven cavity
// used for validation.
//
// pb146's body-fitted pebble mesh is replaced by Brinkman penalization
// of 146 spheres inside a box — the same flow topology (forced flow
// through a bed of 146 spheres) without the proprietary mesh
// generator; see DESIGN.md for the substitution table.
package cases

import (
	"math"

	"nekrs-sensei/internal/fluid"
	"nekrs-sensei/internal/mesh"
	"nekrs-sensei/internal/metrics"
	"nekrs-sensei/internal/mpirt"
	"nekrs-sensei/internal/occa"
)

// Case bundles everything needed to set up a solver for one workload.
type Case struct {
	Name string
	Mesh mesh.BoxConfig

	Nu, Kappa   float64
	Dt          float64
	Temperature bool

	VelBC  map[mesh.Face]fluid.VelBC
	TempBC map[mesh.Face]fluid.TempBC

	Forcing            func(x, y, z, t, T float64) (float64, float64, float64)
	HeatSource         func(x, y, z, t float64) float64
	Brinkman           func(x, y, z float64) float64
	InitialVelocity    func(x, y, z float64) (float64, float64, float64)
	InitialTemperature func(x, y, z float64) float64

	PressureTol, VelocityTol, ScalarTol float64
}

// NewSolver builds this case's solver on the given communicator.
// Collective.
func (c *Case) NewSolver(comm *mpirt.Comm, dev *occa.Device, acct *metrics.Accountant, timer *metrics.Timer) (*fluid.Solver, error) {
	m, err := mesh.NewBox(c.Mesh, comm.Rank(), comm.Size())
	if err != nil {
		return nil, err
	}
	return fluid.NewSolver(fluid.Config{
		Mesh: m, Comm: comm, Dev: dev, Acct: acct, Timer: timer,
		Nu: c.Nu, Kappa: c.Kappa, Dt: c.Dt, Temperature: c.Temperature,
		VelBC: c.VelBC, TempBC: c.TempBC,
		Forcing: c.Forcing, HeatSource: c.HeatSource, Brinkman: c.Brinkman,
		InitialVelocity: c.InitialVelocity, InitialTemperature: c.InitialTemperature,
		PressureTol: c.PressureTol, VelocityTol: c.VelocityTol, ScalarTol: c.ScalarTol,
	})
}

// Sphere is one pebble.
type Sphere struct {
	X, Y, Z, R float64
}

// Contains reports whether the point is inside the sphere.
func (s Sphere) Contains(x, y, z float64) bool {
	dx, dy, dz := x-s.X, y-s.Y, z-s.Z
	return dx*dx+dy*dy+dz*dz < s.R*s.R
}

// PebbleRadius is the pb146 pebble radius in domain units.
const PebbleRadius = 0.088

// Pebbles returns the 146 deterministically packed pebble positions of
// the pb146 case: ten layers of a 4x4 lattice with alternate layers
// staggered diagonally (breaking straight flow channels), surplus
// positions of the top layer dropped. The stagger offset keeps every
// pebble inside the side walls and every inter-layer neighbour pair
// separated by more than one diameter.
func Pebbles() []Sphere {
	const r = PebbleRadius
	var out []Sphere
	layerZ0, layerDZ := 0.11, 0.195
	for layer := 0; len(out) < 146; layer++ {
		z := layerZ0 + float64(layer)*layerDZ
		off := 0.0
		if layer%2 == 1 {
			off = 0.03
		}
		for j := 0; j < 4 && len(out) < 146; j++ {
			for i := 0; i < 4 && len(out) < 146; i++ {
				x := 0.125 + float64(i)*0.25 + off
				y := 0.125 + float64(j)*0.25 + off
				out = append(out, Sphere{X: x, Y: y, Z: z, R: r})
			}
		}
	}
	return out
}

// pebbleGrid answers "is this point inside any pebble" by testing only
// the pebbles near it: a uniform grid of cells over the bed, each
// listing (CSR) the pebbles whose bounding box reaches into it. The
// solver asks once per node per step for the heat source, so testing
// all 146 spheres there costs more than the advection it feeds.
type pebbleGrid struct {
	pebbles  []Sphere
	inv      float64 // cells per unit length
	n        [3]int  // cells per axis
	off, idx []int32 // cell c's candidates are idx[off[c]:off[c+1]]
}

// pebbleCell is the cell edge: between one and two pebble radii, so a
// pebble reaches into at most 3 cells per axis and a cell sees a
// handful of pebbles.
const pebbleCell = 0.125

// newPebbleGrid covers the box [0,lx] x [0,ly] x [0,lz], which must
// contain every pebble entirely.
func newPebbleGrid(pebbles []Sphere, lx, ly, lz float64) *pebbleGrid {
	g := &pebbleGrid{pebbles: pebbles, inv: 1 / pebbleCell}
	for a, l := range [3]float64{lx, ly, lz} {
		g.n[a] = int(math.Ceil(l * g.inv))
	}
	cells := make([][]int32, g.n[0]*g.n[1]*g.n[2])
	for p, s := range pebbles {
		// A point the sphere contains lies strictly within R of the
		// centre along every axis; the margin covers the rounding of
		// the bounds, and cell() is monotone, so the cells of the
		// padded bounding box include the cell of every such point.
		r := s.R * (1 + 1e-9)
		lo, hi := g.cell(s.X-r, s.Y-r, s.Z-r), g.cell(s.X+r, s.Y+r, s.Z+r)
		for k := lo[2]; k <= hi[2]; k++ {
			for j := lo[1]; j <= hi[1]; j++ {
				for i := lo[0]; i <= hi[0]; i++ {
					c := (k*g.n[1]+j)*g.n[0] + i
					cells[c] = append(cells[c], int32(p))
				}
			}
		}
	}
	g.off = make([]int32, len(cells)+1)
	for c, list := range cells {
		g.idx = append(g.idx, list...)
		g.off[c+1] = int32(len(g.idx))
	}
	return g
}

// cell returns the grid coordinates of a point, clamped to the grid.
func (g *pebbleGrid) cell(x, y, z float64) [3]int {
	var c [3]int
	for a, v := range [3]float64{x, y, z} {
		i := int(math.Floor(v * g.inv))
		if i < 0 {
			i = 0
		} else if i >= g.n[a] {
			i = g.n[a] - 1
		}
		c[a] = i
	}
	return c
}

// contains reports whether any pebble contains the point: the answer
// of Sphere.Contains over all pebbles, from the candidates alone.
func (g *pebbleGrid) contains(x, y, z float64) bool {
	c := g.cell(x, y, z)
	cell := (c[2]*g.n[1]+c[1])*g.n[0] + c[0]
	for _, p := range g.idx[g.off[cell]:g.off[cell+1]] {
		if g.pebbles[p].Contains(x, y, z) {
			return true
		}
	}
	return false
}

// PB146 is the pebble-bed reactor case: forcing-driven flow through
// 146 penalized spheres in a [0,1]^2 x [0,2] column, periodic along
// the flow (z) with no-slip side walls, and a heated-pebble
// temperature field. refine scales the mesh (refine=1 -> 4x4x8
// elements) and order sets the polynomial order.
func PB146(refine, order int) Case {
	if refine < 1 {
		refine = 1
	}
	if order < 1 {
		order = 4
	}
	const lx, ly, lz = 1, 1, 2
	pebbles := newPebbleGrid(Pebbles(), lx, ly, lz)
	const chi = 1e4 // Brinkman drag inside pebbles
	brink := func(x, y, z float64) float64 {
		if pebbles.contains(x, y, z) {
			return chi
		}
		return 0
	}
	return Case{
		Name: "pb146",
		Mesh: mesh.BoxConfig{
			Nx: 4 * refine, Ny: 4 * refine, Nz: 8 * refine,
			Lx: lx, Ly: ly, Lz: lz,
			Order:    order,
			Periodic: [3]bool{false, false, true},
		},
		Nu: 5e-3, Kappa: 5e-3, Dt: 2e-3, Temperature: true,
		VelBC: map[mesh.Face]fluid.VelBC{
			mesh.XMin: {}, mesh.XMax: {}, mesh.YMin: {}, mesh.YMax: {},
		},
		TempBC: map[mesh.Face]fluid.TempBC{
			mesh.XMin: {}, mesh.XMax: {}, mesh.YMin: {}, mesh.YMax: {},
		},
		Forcing: func(x, y, z, t, T float64) (float64, float64, float64) {
			return 0, 0, 1 // constant pressure-gradient drive along the bed
		},
		// Pebbles act as volumetric heat sources (decay heat).
		HeatSource: func(x, y, z, t float64) float64 {
			if brink(x, y, z) > 0 {
				return 1
			}
			return 0
		},
		Brinkman:    brink,
		PressureTol: 1e-5, VelocityTol: 1e-7, ScalarTol: 1e-7,
	}
}

// RBC is the Rayleigh-Bénard convection mesoscale case in free-fall
// units: a Gamma x Gamma x 1 box heated from below, periodic sides,
// buoyancy f_z = T, nu = sqrt(Pr/Ra), kappa = 1/sqrt(Ra*Pr). nx/nz set
// the element counts (nx per horizontal axis).
func RBC(ra, pr, gamma float64, nx, nz, order int) Case {
	nu := math.Sqrt(pr / ra)
	kappa := 1 / math.Sqrt(ra*pr)
	return Case{
		Name: "rbc",
		Mesh: mesh.BoxConfig{
			Nx: nx, Ny: nx, Nz: nz,
			Lx: gamma, Ly: gamma, Lz: 1,
			Order:    order,
			Periodic: [3]bool{true, true, false},
		},
		Nu: nu, Kappa: kappa, Dt: 5e-3, Temperature: true,
		VelBC: map[mesh.Face]fluid.VelBC{
			mesh.ZMin: {}, mesh.ZMax: {},
		},
		TempBC: map[mesh.Face]fluid.TempBC{
			mesh.ZMin: {Value: func(x, y, z, t float64) float64 { return 1 }},
			mesh.ZMax: {Value: func(x, y, z, t float64) float64 { return 0 }},
		},
		// Boussinesq buoyancy with the hydrostatic contribution of the
		// conduction profile (1-z) absorbed into the pressure: forcing
		// by the deviation theta = T - (1-z) differs from forcing by T
		// only by a gradient field, but avoids a spurious discrete
		// hydrostatic residual flow.
		Forcing: func(x, y, z, t, T float64) (float64, float64, float64) {
			return 0, 0, T - (1 - z)
		},
		// Conduction profile with a deterministic multi-mode
		// perturbation to trigger the instability above critical Ra.
		InitialTemperature: func(x, y, z float64) float64 {
			pert := 0.01 * math.Sin(math.Pi*z) *
				(math.Cos(2*math.Pi*x/gamma) + math.Cos(2*math.Pi*y/gamma) +
					0.7*math.Sin(4*math.Pi*x/gamma)*math.Cos(2*math.Pi*y/gamma))
			return 1 - z + pert
		},
		PressureTol: 1e-5, VelocityTol: 1e-7, ScalarTol: 1e-7,
	}
}

// Nusselt computes the RBC Nusselt number from the solver state in
// free-fall units: Nu = 1 + <w T>/kappa, kappa = 1/sqrt(Ra*Pr) the
// case's diffusivity. Collective.
func Nusselt(s *fluid.Solver, kappa float64) float64 {
	return 1 + s.ScalarFlux()/kappa
}

// TaylorGreen is the periodic 2D Taylor-Green vortex in a [0,2pi]^3
// box, an exact Navier-Stokes solution with kinetic energy decaying as
// exp(-4 nu t) — the standard solver validation case.
func TaylorGreen(nu float64, n, order int) Case {
	L := 2 * math.Pi
	return Case{
		Name: "tgv",
		Mesh: mesh.BoxConfig{
			Nx: n, Ny: n, Nz: n,
			Lx: L, Ly: L, Lz: L,
			Order:    order,
			Periodic: [3]bool{true, true, true},
		},
		Nu: nu, Dt: 2e-3,
		InitialVelocity: func(x, y, z float64) (float64, float64, float64) {
			return math.Sin(x) * math.Cos(y), -math.Cos(x) * math.Sin(y), 0
		},
		PressureTol: 1e-7, VelocityTol: 1e-9,
	}
}

// LidCavity is the lid-driven cavity at the given Reynolds number: a
// unit box with the z=1 lid sliding in +x.
func LidCavity(re float64, n, order int) Case {
	bc := map[mesh.Face]fluid.VelBC{
		mesh.XMin: {}, mesh.XMax: {}, mesh.YMin: {}, mesh.YMax: {}, mesh.ZMin: {},
		mesh.ZMax: {Value: func(x, y, z, t float64) (float64, float64, float64) {
			return 1, 0, 0
		}},
	}
	return Case{
		Name: "cavity",
		Mesh: mesh.BoxConfig{
			Nx: n, Ny: n, Nz: n, Lx: 1, Ly: 1, Lz: 1, Order: order,
		},
		Nu: 1 / re, Dt: 2e-3,
		VelBC:       bc,
		PressureTol: 1e-6, VelocityTol: 1e-8,
	}
}
