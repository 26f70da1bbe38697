// Package fluid implements the incompressible Navier-Stokes solver the
// reproduction uses in place of NekRS: spectral-element discretization
// (GLL tensor-product operators from internal/tensor on meshes from
// internal/mesh), BDF2/EXT2 semi-implicit time splitting, a
// pressure-Poisson projection, Jacobi-preconditioned CG Helmholtz
// solves, an optional Boussinesq temperature equation, and Brinkman
// penalization for immersed solid geometry (the pb146 pebbles).
//
// The scheme is the classic P_N-P_N splitting: advection and forcing
// are extrapolated explicitly (EXTk), the pressure enforces the
// divergence constraint through a consistent Poisson solve, and the
// viscous terms are implicit (BDFk), exactly the structure of NekRS's
// default time stepper.
package fluid

import (
	"fmt"
	"sort"

	"nekrs-sensei/internal/gs"
	"nekrs-sensei/internal/krylov"
	"nekrs-sensei/internal/mesh"
	"nekrs-sensei/internal/metrics"
	"nekrs-sensei/internal/mpirt"
	"nekrs-sensei/internal/occa"
)

// VelBC is a Dirichlet velocity boundary condition on one box face.
// Presence of a face in Config.VelBC makes it Dirichlet; its Value
// function supplies the (possibly time-dependent) boundary velocity.
// A nil Value means homogeneous (no-slip).
type VelBC struct {
	Value func(x, y, z, t float64) (u, v, w float64)
}

// TempBC is a Dirichlet temperature boundary condition on one face.
// A nil Value means T = 0 on that face.
type TempBC struct {
	Value func(x, y, z, t float64) float64
}

// Config assembles everything the solver needs.
type Config struct {
	Mesh *mesh.Mesh
	Comm *mpirt.Comm
	Dev  *occa.Device

	Acct  *metrics.Accountant // may be nil
	Timer *metrics.Timer      // may be nil

	Nu    float64 // kinematic viscosity
	Kappa float64 // thermal diffusivity (used when Temperature is set)
	Dt    float64

	Temperature bool // solve the scalar (temperature) equation

	VelBC  map[mesh.Face]VelBC
	TempBC map[mesh.Face]TempBC

	// Forcing returns the momentum source at a point; T is the local
	// temperature (zero when the scalar is disabled), enabling
	// Boussinesq buoyancy. May be nil.
	Forcing func(x, y, z, t, T float64) (fx, fy, fz float64)
	// HeatSource returns the scalar source term. May be nil.
	HeatSource func(x, y, z, t float64) float64
	// Brinkman returns the penalization drag coefficient chi(x) >= 0;
	// chi >> 1 inside immersed solids drives the velocity to zero
	// there. May be nil. The drag is treated implicitly, so large chi
	// does not restrict the timestep.
	Brinkman func(x, y, z float64) float64

	PressureTol float64 // default 1e-6
	VelocityTol float64 // default 1e-9
	ScalarTol   float64 // default 1e-9
	MaxIter     int     // default 2000

	// InitialVelocity and InitialTemperature set the fields at t=0.
	// Nil means zero.
	InitialVelocity    func(x, y, z float64) (u, v, w float64)
	InitialTemperature func(x, y, z float64) float64
}

// StepStats reports per-step solver work and stability diagnostics.
type StepStats struct {
	Step          int
	Time          float64
	PressureIters int
	ViscousIters  [3]int
	ScalarIters   int
	CFL           float64
}

// Solver is the time-stepping Navier-Stokes solver for one rank.
type Solver struct {
	cfg  Config
	mesh *mesh.Mesh
	comm *mpirt.Comm
	dev  *occa.Device
	gsh  *gs.GS

	nq, np, nelt, n int

	// Primary fields live in device memory; SENSEI and checkpointing
	// must stage them to the host explicitly.
	U, V, W, P, T *occa.Memory

	// Histories (device): previous velocities/temperature and previous
	// explicit terms for the EXT2 extrapolation.
	u1, v1, w1, t1     []float64
	fu1, fv1, fw1, ft1 []float64

	// Dirichlet nodes (ascending) and, only where a face prescribes a
	// value, the lifting fields, zero off those faces.
	dirV, dirT     []int32
	ub, vb, wb, tb []float64

	invMult []float64
	nUnique float64

	brink []float64 // chi per node (0 in fluid)

	// Jacobi diagonals: pressure Laplacian and Helmholtz (velocity,
	// scalar); the Helmholtz diagonals depend on the BDF coefficient
	// and are rebuilt in place when it changes.
	diagA          []float64 // assembled diag of the weak Laplacian
	diagHV, diagHT []float64
	diagB0         float64 // b0/dt the Helmholtz diagonals were built with

	// Work arrays. DESIGN.md ("Workspace aliasing") maps which array
	// plays which role in each phase of Step.
	fu, fv, fw, ft []float64
	ru, rv, rw     []float64
	scr1, scr2     []float64

	// CG workspaces of arrays free while the solve runs: fu fv fw
	// scr1 for the pressure and scalar, and fv fw scr1 with the
	// component's spent right-hand side for the velocity.
	cgPS  krylov.Workspace
	cgVel [3]krylov.Workspace

	// Element kernels, built once, and their operands (operators.go).
	kHelmholtz, kGradient, kAdvect, kDivergence *occa.Kernel
	helm                                        helmholtzArgs
	grad                                        gradientArgs
	adv                                         advectArgs
	div                                         divergenceArgs

	// Assembled operators of the three kinds of solve and the global
	// sum their inner products reduce with, built once so a step
	// creates no closures. b0dt is the BDF coefficient over dt of the
	// step in progress, which the Helmholtz operators read.
	pOp, vOp, tOp *assembledOp
	allSum        func(partial []float64)
	b0dt          float64

	// Dirichlet faces that prescribe a value, in face order, with
	// their node lists: what refreshBoundaryValues evaluates.
	velFaces  []velFace
	tempFaces []tempFace

	time float64
	step int

	// bootstrap forces BDF1/EXT1 on the next step (first step and
	// after restarts, where no BDF history exists).
	bootstrap bool
}

// velFace and tempFace are one Dirichlet face with a prescribed value
// and the local nodes on it.
type velFace struct {
	value func(x, y, z, t float64) (u, v, w float64)
	nodes []int
}

type tempFace struct {
	value func(x, y, z, t float64) float64
	nodes []int
}

// assembledOp is the operator of one kind of CG solve: the gathered
// Helmholtz operator gs(visc*A_L + (b0/dt + chi) B) with Dirichlet
// rows masked — or, with mass unset, the gathered weak Laplacian of
// the pressure Poisson problem.
type assembledOp struct {
	s        *Solver
	visc     float64
	mass     bool
	brinkman bool
	dir      []int32 // Dirichlet rows; nil for the pressure
}

// Apply implements krylov.Operator.
func (o *assembledOp) Apply(out, in []float64) {
	s := o.s
	if o.mass {
		s.helmholtzLocal(in, out, o.visc, s.b0dt, o.brinkman)
	} else {
		s.localLaplacian(in, out)
	}
	s.gsh.Sum(out)
	zeroRows(out, o.dir)
}

// zeroRows masks v: the product with a 0/1 mask, formed only at the
// Dirichlet nodes dir where it is 0, since v*1 keeps v's bits.
func zeroRows(v []float64, dir []int32) {
	for _, i := range dir {
		v[i] *= 0
	}
}

// NewSolver builds a solver; collective over cfg.Comm.
func NewSolver(cfg Config) (*Solver, error) {
	if cfg.Mesh == nil || cfg.Comm == nil || cfg.Dev == nil {
		return nil, fmt.Errorf("fluid: Mesh, Comm and Dev are required")
	}
	if cfg.Dt <= 0 {
		return nil, fmt.Errorf("fluid: Dt must be positive")
	}
	if cfg.Nu <= 0 {
		return nil, fmt.Errorf("fluid: Nu must be positive")
	}
	if cfg.Temperature && cfg.Kappa <= 0 {
		return nil, fmt.Errorf("fluid: Kappa must be positive when Temperature is enabled")
	}
	if cfg.PressureTol == 0 {
		cfg.PressureTol = 1e-6
	}
	if cfg.VelocityTol == 0 {
		cfg.VelocityTol = 1e-9
	}
	if cfg.ScalarTol == 0 {
		cfg.ScalarTol = 1e-9
	}
	if cfg.MaxIter == 0 {
		cfg.MaxIter = 2000
	}
	for f := range cfg.VelBC {
		if cfg.Mesh.Cfg.Periodic[f.Axis()] {
			return nil, fmt.Errorf("fluid: velocity BC on periodic face %v", f)
		}
	}
	for f := range cfg.TempBC {
		if cfg.Mesh.Cfg.Periodic[f.Axis()] {
			return nil, fmt.Errorf("fluid: temperature BC on periodic face %v", f)
		}
	}

	m := cfg.Mesh
	s := &Solver{
		cfg: cfg, mesh: m, comm: cfg.Comm, dev: cfg.Dev,
		nq: m.Nq, np: m.Np, nelt: m.Nelt, n: m.NumNodes(),
	}
	s.gsh = gs.New(cfg.Comm, m.GlobalID)

	n := s.n
	s.U = cfg.Dev.Malloc("velocity_x", n)
	s.V = cfg.Dev.Malloc("velocity_y", n)
	s.W = cfg.Dev.Malloc("velocity_z", n)
	s.P = cfg.Dev.Malloc("pressure", n)
	if cfg.Temperature {
		s.T = cfg.Dev.Malloc("temperature", n)
	}

	alloc := func(k int) []float64 {
		cfg.Acct.Alloc("solver-work", int64(k)*8)
		return make([]float64, k)
	}
	s.u1, s.v1, s.w1 = alloc(n), alloc(n), alloc(n)
	s.fu1, s.fv1, s.fw1 = alloc(n), alloc(n), alloc(n)
	s.fu, s.fv, s.fw = alloc(n), alloc(n), alloc(n)
	s.ru, s.rv, s.rw = alloc(n), alloc(n), alloc(n)
	s.scr1, s.scr2 = alloc(n), alloc(n)
	s.diagA, s.diagHV = alloc(n), alloc(n)
	if cfg.Temperature {
		s.t1, s.ft1, s.ft = alloc(n), alloc(n), alloc(n)
		s.diagHT = alloc(n)
	}
	s.cgPS = krylov.Workspace{R: s.fu, Z: s.fv, P: s.fw, Q: s.scr1}
	for c, r := range [3][]float64{s.ru, s.rv, s.rw} {
		s.cgVel[c] = krylov.Workspace{R: s.fv, Z: s.fw, P: r, Q: s.scr1}
	}

	// Multiplicity weights for global inner products.
	s.invMult = alloc(n)
	mult := s.gsh.Multiplicity()
	for i := range s.invMult {
		s.invMult[i] = 1 / mult[i]
	}
	var uniq float64
	for _, w := range s.invMult {
		uniq += w
	}
	s.nUnique = s.comm.AllreduceF64Scalar(uniq, mpirt.OpSum)

	s.buildKernels()
	s.buildMasks()
	if len(s.velFaces) > 0 {
		s.ub, s.vb, s.wb = alloc(n), alloc(n), alloc(n)
	}
	if len(s.tempFaces) > 0 {
		s.tb = alloc(n)
	}
	s.buildBrinkman()
	s.allSum = func(partial []float64) { s.comm.AllreduceF64InPlace(partial, mpirt.OpSum) }
	s.pOp = &assembledOp{s: s}
	s.vOp = &assembledOp{s: s, visc: cfg.Nu, mass: true, brinkman: true, dir: s.dirV}
	if cfg.Temperature {
		s.tOp = &assembledOp{s: s, visc: cfg.Kappa, mass: true, dir: s.dirT}
	}
	s.laplacianDiagLocal(s.diagA)
	s.gsh.Sum(s.diagA)
	s.applyInitialConditions()
	s.refreshBoundaryValues(0)
	return s, nil
}

// sortedFaces returns map keys in deterministic order.
func sortedFaces[V any](m map[mesh.Face]V) []mesh.Face {
	fs := make([]mesh.Face, 0, len(m))
	for f := range m {
		fs = append(fs, f)
	}
	sort.Slice(fs, func(i, j int) bool { return fs[i] < fs[j] })
	return fs
}

// buildMasks lists the Dirichlet nodes and keeps, for the faces that
// prescribe a value, the node lists refreshBoundaryValues walks every
// step (faces in ascending order, so where two meet the later one
// wins, on every step alike).
func (s *Solver) buildMasks() {
	velBC := sortedFaces(s.cfg.VelBC)
	for _, f := range velBC {
		if value := s.cfg.VelBC[f].Value; value != nil {
			s.velFaces = append(s.velFaces, velFace{value, s.mesh.BoundaryNodes(f)})
		}
	}
	s.dirV = s.dirichletNodes(velBC)
	if s.cfg.Temperature {
		tempBC := sortedFaces(s.cfg.TempBC)
		for _, f := range tempBC {
			if value := s.cfg.TempBC[f].Value; value != nil {
				s.tempFaces = append(s.tempFaces, tempFace{value, s.mesh.BoundaryNodes(f)})
			}
		}
		s.dirT = s.dirichletNodes(tempBC)
	}
}

// dirichletNodes returns, ascending, the nodes of the faces, combined
// over the ranks that share a node in a 0/1 mask formed in scr1 (which
// no step has used yet).
func (s *Solver) dirichletNodes(faces []mesh.Face) []int32 {
	mask, k := s.scr1, 0
	for i := range mask {
		mask[i] = 1
	}
	for _, f := range faces {
		for _, i := range s.mesh.BoundaryNodes(f) {
			mask[i] = 0
		}
	}
	s.gsh.Min(mask)
	for _, m := range mask {
		if m == 0 {
			k++
		}
	}
	s.cfg.Acct.Alloc("solver-work", int64(k)*4)
	dir := make([]int32, 0, k)
	for i, m := range mask {
		if m == 0 {
			dir = append(dir, int32(i))
		}
	}
	return dir
}

func (s *Solver) buildBrinkman() {
	if s.cfg.Brinkman == nil {
		return
	}
	s.brink = make([]float64, s.n)
	s.cfg.Acct.Alloc("solver-work", int64(s.n)*8)
	m := s.mesh
	for i := 0; i < s.n; i++ {
		chi := s.cfg.Brinkman(m.X[i], m.Y[i], m.Z[i])
		if chi < 0 {
			panic("fluid: negative Brinkman coefficient")
		}
		s.brink[i] = chi
	}
}

func (s *Solver) applyInitialConditions() {
	m := s.mesh
	u, v, w := s.U.Data(), s.V.Data(), s.W.Data()
	if ic := s.cfg.InitialVelocity; ic != nil {
		for i := 0; i < s.n; i++ {
			u[i], v[i], w[i] = ic(m.X[i], m.Y[i], m.Z[i])
		}
	}
	if s.cfg.Temperature {
		if ic := s.cfg.InitialTemperature; ic != nil {
			tt := s.T.Data()
			for i := 0; i < s.n; i++ {
				tt[i] = ic(m.X[i], m.Y[i], m.Z[i])
			}
		}
	}
	copy(s.u1, u)
	copy(s.v1, v)
	copy(s.w1, w)
	if s.cfg.Temperature {
		copy(s.t1, s.T.Data())
	}
}

// refreshBoundaryValues fills the Dirichlet lifting fields at time t.
// They are zero off the faces that prescribe a value, and stay so.
func (s *Solver) refreshBoundaryValues(t float64) {
	m := s.mesh
	for _, f := range s.velFaces {
		for _, i := range f.nodes {
			s.ub[i], s.vb[i], s.wb[i] = f.value(m.X[i], m.Y[i], m.Z[i], t)
		}
	}
	for _, f := range s.tempFaces {
		for _, i := range f.nodes {
			s.tb[i] = f.value(m.X[i], m.Y[i], m.Z[i], t)
		}
	}
}

// Time reports the current simulation time.
func (s *Solver) Time() float64 { return s.time }

// StepCount reports the number of completed steps.
func (s *Solver) StepCount() int { return s.step }

// Mesh returns the rank-local mesh.
func (s *Solver) Mesh() *mesh.Mesh { return s.mesh }

// Comm returns the solver's communicator.
func (s *Solver) Comm() *mpirt.Comm { return s.comm }

// Device returns the solver's compute device.
func (s *Solver) Device() *occa.Device { return s.dev }

// GS returns the solver's gather-scatter handle.
func (s *Solver) GS() *gs.GS { return s.gsh }

// Fields enumerates the primary device-resident fields by name, the
// set the SENSEI data adaptor exposes.
func (s *Solver) Fields() map[string]*occa.Memory {
	f := map[string]*occa.Memory{
		"velocity_x": s.U,
		"velocity_y": s.V,
		"velocity_z": s.W,
		"pressure":   s.P,
	}
	if s.T != nil {
		f["temperature"] = s.T
	}
	return f
}

// solverOptions describes a solve to krylov.CG: the solver's
// multiplicity-weighted inner product, reduced over the communicator,
// and for the all-Neumann pressure problem the null-space projection.
func (s *Solver) solverOptions(tol float64, diag []float64, project bool) krylov.Options {
	return krylov.Options{
		Tol:        tol,
		MaxIter:    s.cfg.MaxIter,
		Diag:       diag,
		Weight:     s.invMult,
		AllSum:     s.allSum,
		RemoveMean: project,
		Count:      s.nUnique,
	}
}

// LoadFields overwrites the primary fields from host data (a restart
// from checkpoint), sets the simulation clock, and re-bootstraps the
// time integrator: the BDF history is not part of a Nek-style field
// file, so the next step uses BDF1/EXT1 exactly as NekRS does after a
// restart.
func (s *Solver) LoadFields(fields map[string][]float64, time float64, step int) error {
	for name, data := range fields {
		mem := s.Fields()[name]
		if mem == nil {
			return fmt.Errorf("fluid: restart field %q unknown", name)
		}
		if len(data) != mem.Len() {
			return fmt.Errorf("fluid: restart field %q has %d values, want %d", name, len(data), mem.Len())
		}
		mem.CopyFromHost(data)
	}
	copy(s.u1, s.U.Data())
	copy(s.v1, s.V.Data())
	copy(s.w1, s.W.Data())
	for i := range s.fu1 {
		s.fu1[i], s.fv1[i], s.fw1[i] = 0, 0, 0
	}
	if s.cfg.Temperature {
		copy(s.t1, s.T.Data())
		for i := range s.ft1 {
			s.ft1[i] = 0
		}
	}
	s.time = time
	s.step = step
	s.bootstrap = true
	return nil
}
