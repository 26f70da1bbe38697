package fluid

import (
	"math"
	"math/rand"
	"testing"

	"nekrs-sensei/internal/krylov"
	"nekrs-sensei/internal/mesh"
	"nekrs-sensei/internal/metrics"
	"nekrs-sensei/internal/mpirt"
	"nekrs-sensei/internal/occa"
)

// newTestSolver builds a single-rank solver on a world of size 1. A
// size-1 communicator can be driven from the test goroutine directly —
// collectives complete immediately.
func newTestSolver(t *testing.T, cfg Config) *Solver {
	t.Helper()
	cfg.Comm = mpirt.NewWorld(1).Comm(0)
	if cfg.Dev == nil {
		cfg.Dev = occa.NewDevice(occa.CUDA, nil)
	}
	s, err := NewSolver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func boxMesh(t *testing.T, nx, ny, nz, order int, lx, ly, lz float64, per [3]bool) *mesh.Mesh {
	t.Helper()
	m, err := mesh.NewBox(mesh.BoxConfig{
		Nx: nx, Ny: ny, Nz: nz, Lx: lx, Ly: ly, Lz: lz, Order: order, Periodic: per,
	}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// velocityMask is the 0/1 float mask of the velocity's free nodes:
// 0 at s.dirV, 1 elsewhere.
func velocityMask(s *Solver) []float64 {
	mask := make([]float64, s.n)
	for i := range mask {
		mask[i] = 1
	}
	for _, i := range s.dirV {
		mask[i] = 0
	}
	return mask
}

func allDirichletVel() map[mesh.Face]VelBC {
	bc := make(map[mesh.Face]VelBC)
	for _, f := range []mesh.Face{mesh.XMin, mesh.XMax, mesh.YMin, mesh.YMax, mesh.ZMin, mesh.ZMax} {
		bc[f] = VelBC{}
	}
	return bc
}

func TestBDFCoefficients(t *testing.T) {
	b0, b1, b2, e0, e1 := bdfCoefficients(0)
	if b0 != 1 || b1 != 1 || b2 != 0 || e0 != 1 || e1 != 0 {
		t.Errorf("step 0: %v %v %v %v %v", b0, b1, b2, e0, e1)
	}
	b0, b1, b2, e0, e1 = bdfCoefficients(5)
	if b0 != 1.5 || b1 != 2 || b2 != -0.5 || e0 != 2 || e1 != -1 {
		t.Errorf("step 5: %v %v %v %v %v", b0, b1, b2, e0, e1)
	}
	// Consistency: a linear-in-time solution must be reproduced
	// exactly: b0*u(t+dt) - b1*u(t) - b2*u(t-dt) = dt * u'.
	u := func(tm float64) float64 { return 3 + 2*tm }
	lhs := 1.5*u(2.1) - 2*u(2.0) + 0.5*u(1.9)
	if math.Abs(lhs-0.1*2) > 1e-12 {
		t.Errorf("BDF2 linear consistency: %v", lhs)
	}
}

func TestGradientExactOnLinears(t *testing.T) {
	m := boxMesh(t, 2, 2, 2, 4, 1.0, 2.0, 0.5, [3]bool{})
	s := newTestSolver(t, Config{Mesh: m, Nu: 1, Dt: 0.01, VelBC: allDirichletVel()})
	u := make([]float64, s.n)
	for i := range u {
		u[i] = 2*m.X[i] - 3*m.Y[i] + 5*m.Z[i] + 1
	}
	gx := make([]float64, s.n)
	gy := make([]float64, s.n)
	gz := make([]float64, s.n)
	s.gradient(u, gx, gy, gz)
	for i := range u {
		if math.Abs(gx[i]-2) > 1e-10 || math.Abs(gy[i]+3) > 1e-10 || math.Abs(gz[i]-5) > 1e-10 {
			t.Fatalf("gradient at %d = (%v,%v,%v), want (2,-3,5)", i, gx[i], gy[i], gz[i])
		}
	}
}

func TestDivergenceExactOnLinears(t *testing.T) {
	m := boxMesh(t, 2, 2, 2, 3, 1, 1, 1, [3]bool{})
	s := newTestSolver(t, Config{Mesh: m, Nu: 1, Dt: 0.01, VelBC: allDirichletVel()})
	ax := make([]float64, s.n)
	ay := make([]float64, s.n)
	az := make([]float64, s.n)
	for i := range ax {
		ax[i] = 3 * m.X[i]
		ay[i] = -2 * m.Y[i]
		az[i] = 7 * m.Z[i]
	}
	out := make([]float64, s.n)
	s.divergence(ax, ay, az, out)
	for i := range out {
		if math.Abs(out[i]-8) > 1e-9 {
			t.Fatalf("div at %d = %v, want 8", i, out[i])
		}
	}
}

// TestLaplacianAnnihilatesLinears: the assembled weak Laplacian of a
// linear function vanishes at interior nodes.
func TestLaplacianAnnihilatesLinears(t *testing.T) {
	m := boxMesh(t, 3, 3, 3, 3, 1, 1, 1, [3]bool{})
	s := newTestSolver(t, Config{Mesh: m, Nu: 1, Dt: 0.01, VelBC: allDirichletVel()})
	u := make([]float64, s.n)
	for i := range u {
		u[i] = 1 + m.X[i] + 2*m.Y[i] - m.Z[i]
	}
	out := make([]float64, s.n)
	s.localLaplacian(u, out)
	s.gsh.Sum(out)
	mask := velocityMask(s)
	for i := range out {
		if mask[i] == 1 && math.Abs(out[i]) > 1e-10 {
			t.Fatalf("interior A u at %d = %v, want 0", i, out[i])
		}
	}
}

// TestAnisotropicBoxGeometry: on a box whose element edges differ on
// every axis, the one block of geometric factors all elements share is
// exact on one rank and on two: the volume, and the weak Laplacian's
// energy of a quadratic, u^T A_L u = ∫|∇u|². An isotropic mesh cannot
// tell the axes' h apart; this one fails if two of them are swapped in
// the shared block.
func TestAnisotropicBoxGeometry(t *testing.T) {
	cfg := mesh.BoxConfig{Nx: 4, Ny: 3, Nz: 2, Lx: 2, Ly: 0.9, Lz: 3, Order: 3} // h = 0.5, 0.3, 1.5
	lx, ly, lz := cfg.Lx, cfg.Ly, cfg.Lz
	vol := lx * ly * lz
	// u = x² + 2y² + 3z², ∇u = (2x, 4y, 6z).
	energy := vol * (4*lx*lx + 16*ly*ly + 36*lz*lz) / 3
	for _, ranks := range []int{1, 2} {
		mpirt.Run(ranks, func(c *mpirt.Comm) {
			m, err := mesh.NewBox(cfg, c.Rank(), ranks)
			if err != nil {
				t.Error(err)
				return
			}
			if len(m.G) != 6*m.Np || len(m.RX) != 9*m.Np {
				t.Errorf("len(G) = %d, len(RX) = %d, want %d and %d", len(m.G), len(m.RX), 6*m.Np, 9*m.Np)
				return
			}
			s, err := NewSolver(Config{Mesh: m, Comm: c, Dev: occa.NewDevice(occa.CUDA, nil), Nu: 1, Dt: 0.01})
			if err != nil {
				t.Error(err)
				return
			}
			u, au := make([]float64, s.n), make([]float64, s.n)
			for i := range u {
				x, y, z := m.X[i], m.Y[i], m.Z[i]
				u[i] = x*x + 2*y*y + 3*z*z
			}
			s.localLaplacian(u, au)
			var e float64
			for i := range u {
				e += u[i] * au[i]
			}
			if got := c.AllreduceF64Scalar(e, mpirt.OpSum); math.Abs(got-energy) > 1e-12*energy {
				t.Errorf("ranks=%d: u^T A_L u = %.15g, want %.15g", ranks, got, energy)
			}
			if got := c.AllreduceF64Scalar(m.LocalVolume(), mpirt.OpSum); math.Abs(got-vol) > 1e-14*vol {
				t.Errorf("ranks=%d: volume = %.17g, want %.17g", ranks, got, vol)
			}
		})
	}
}

// TestLaplacianSymmetric: <A u, v> = <u, A v> for continuous fields —
// the property CG depends on.
func TestLaplacianSymmetric(t *testing.T) {
	m := boxMesh(t, 2, 2, 2, 4, 1, 1, 1, [3]bool{})
	s := newTestSolver(t, Config{Mesh: m, Nu: 1, Dt: 0.01, VelBC: allDirichletVel()})
	rng := rand.New(rand.NewSource(1))
	mkContinuous := func() []float64 {
		u := make([]float64, s.n)
		for i := range u {
			u[i] = rng.NormFloat64()
		}
		// Make C0 by averaging duplicates.
		s.gsh.Sum(u)
		for i := range u {
			u[i] *= s.invMult[i]
		}
		return u
	}
	u := mkContinuous()
	v := mkContinuous()
	au := make([]float64, s.n)
	av := make([]float64, s.n)
	s.localLaplacian(u, au)
	s.gsh.Sum(au)
	s.localLaplacian(v, av)
	s.gsh.Sum(av)
	dot := func(a, b []float64) float64 {
		var sum float64
		for i := range a {
			sum += s.invMult[i] * a[i] * b[i]
		}
		return sum
	}
	lhs := dot(au, v)
	rhs := dot(u, av)
	if math.Abs(lhs-rhs) > 1e-8*(1+math.Abs(lhs)) {
		t.Errorf("asymmetry: %v vs %v", lhs, rhs)
	}
}

// TestPoissonManufactured solves -lap(u) = f with homogeneous
// Dirichlet BCs and a manufactured solution; spectral accuracy is
// expected at moderate order.
func TestPoissonManufactured(t *testing.T) {
	m := boxMesh(t, 2, 2, 2, 6, 1, 1, 1, [3]bool{})
	s := newTestSolver(t, Config{Mesh: m, Nu: 1, Dt: 0.01, VelBC: allDirichletVel()})

	exact := func(x, y, z float64) float64 {
		return math.Sin(math.Pi*x) * math.Sin(math.Pi*y) * math.Sin(math.Pi*z)
	}
	// rhs = gs(B*f), masked; operator = masked assembled Laplacian.
	rhs := make([]float64, s.n)
	for i := range rhs {
		f := 3 * math.Pi * math.Pi * exact(m.X[i], m.Y[i], m.Z[i])
		rhs[i] = m.B[i] * f
	}
	s.gsh.Sum(rhs)
	mask := velocityMask(s)
	for i := range rhs {
		rhs[i] *= mask[i]
	}
	op := krylov.OperatorFunc(func(out, in []float64) {
		s.localLaplacian(in, out)
		s.gsh.Sum(out)
		for i := range out {
			out[i] *= mask[i]
		}
	})
	diag := append([]float64(nil), s.diagA...)
	for i := range diag {
		if mask[i] == 0 {
			diag[i] = 1
		}
	}
	x := make([]float64, s.n)
	res := krylov.CG(op, rhs, x, &s.cgPS, s.solverOptions(1e-12, diag, false))
	if !res.Converged {
		t.Fatalf("CG: %+v", res)
	}
	var maxErr float64
	for i := range x {
		if e := math.Abs(x[i] - exact(m.X[i], m.Y[i], m.Z[i])); e > maxErr {
			maxErr = e
		}
	}
	if maxErr > 5e-5 {
		t.Errorf("max error %g, want < 5e-5 (spectral)", maxErr)
	}
}

// TestHeatDecay: with zero velocity, T = sin(pi z) decays at rate
// exp(-kappa pi^2 t) between z Dirichlet walls.
func TestHeatDecay(t *testing.T) {
	kappa := 0.5
	m := boxMesh(t, 3, 3, 3, 4, 1, 1, 1, [3]bool{true, true, false})
	s := newTestSolver(t, Config{
		Mesh: m, Nu: 1, Kappa: kappa, Dt: 2e-3,
		Temperature: true,
		TempBC: map[mesh.Face]TempBC{
			mesh.ZMin: {}, mesh.ZMax: {},
		},
		InitialTemperature: func(x, y, z float64) float64 { return math.Sin(math.Pi * z) },
	})
	const steps = 50
	for i := 0; i < steps; i++ {
		s.Step()
	}
	tEnd := s.Time()
	want := math.Exp(-kappa * math.Pi * math.Pi * tEnd)
	// Probe the midplane value via the maximum of T.
	var tMax float64
	for _, v := range s.T.Data() {
		if v > tMax {
			tMax = v
		}
	}
	if relErr := math.Abs(tMax-want) / want; relErr > 0.01 {
		t.Errorf("decay: got %v, want %v (rel err %g)", tMax, want, relErr)
	}
}

// TestTaylorGreenDecay: the 2D Taylor-Green vortex is an exact
// Navier-Stokes solution with kinetic energy decaying as exp(-4 nu t).
// It is the witness examples/quickstart prints: at t = 0.1 the solver
// is within 1e-5 relative of the analytic decay (it reads 4.2e-6),
// on every architecture, unlike the bit-level TestPinnedTrajectories.
func TestTaylorGreenDecay(t *testing.T) {
	nu := 0.1
	L := 2 * math.Pi
	m := boxMesh(t, 3, 3, 3, 4, L, L, L, [3]bool{true, true, true})
	dt := 2e-3
	s := newTestSolver(t, Config{
		Mesh: m, Nu: nu, Dt: dt,
		InitialVelocity: func(x, y, z float64) (float64, float64, float64) {
			return math.Sin(x) * math.Cos(y), -math.Cos(x) * math.Sin(y), 0
		},
		PressureTol: 1e-8,
	})
	ke0 := s.KineticEnergy()
	// The interpolated initial field carries spatial truncation error;
	// the solver must not grow it.
	div0 := s.DivergenceL2()
	const steps = 50
	var lastCFL float64
	for i := 0; i < steps; i++ {
		st := s.Step()
		lastCFL = st.CFL
	}
	keEnd := s.KineticEnergy()
	want := math.Exp(-4 * nu * s.Time())
	got := keEnd / ke0
	if relErr := math.Abs(got-want) / want; relErr > 1e-5 {
		t.Errorf("KE ratio = %v, want %v (rel err %g)", got, want, relErr)
	}
	if div := s.DivergenceL2(); div > 2*div0 {
		t.Errorf("divergence grew: %g -> %g", div0, div)
	}
	if lastCFL <= 0 || lastCFL > 1 {
		t.Errorf("CFL = %v out of expected range", lastCFL)
	}
	// w remains ~zero (up to truncation error) for the 2D solution.
	var wMax float64
	for _, v := range s.W.Data() {
		if a := math.Abs(v); a > wMax {
			wMax = a
		}
	}
	if wMax > 1e-3 {
		t.Errorf("w grew to %g, want ~0", wMax)
	}
}

// TestBrinkmanSuppressesVelocity: a forced periodic flow with a
// penalized slab must have near-zero velocity inside the solid.
func TestBrinkmanSuppressesVelocity(t *testing.T) {
	if testing.Short() {
		t.Skip("long numerical integration")
	}
	m := boxMesh(t, 3, 3, 3, 4, 1, 1, 1, [3]bool{true, true, false})
	const chi = 1e5
	s := newTestSolver(t, Config{
		Mesh: m, Nu: 0.05, Dt: 1e-3,
		VelBC: map[mesh.Face]VelBC{mesh.ZMin: {}, mesh.ZMax: {}},
		Forcing: func(x, y, z, tm, T float64) (float64, float64, float64) {
			return 1, 0, 0
		},
		Brinkman: func(x, y, z float64) float64 {
			if x > 0.4 && x < 0.6 {
				return chi
			}
			return 0
		},
	})
	for i := 0; i < 40; i++ {
		s.Step()
	}
	u := s.U.Data()
	var inMax, outMax float64
	for i := range u {
		a := math.Abs(u[i])
		if m.X[i] > 0.45 && m.X[i] < 0.55 {
			if a > inMax {
				inMax = a
			}
		} else if m.X[i] < 0.3 || m.X[i] > 0.7 {
			if a > outMax {
				outMax = a
			}
		}
	}
	if outMax < 1e-4 {
		t.Fatalf("flow never developed: outMax = %g", outMax)
	}
	if inMax > outMax/50 {
		t.Errorf("solid velocity %g vs fluid %g: penalization too weak", inMax, outMax)
	}
}

// TestDirichletLifting: a moving-lid boundary value is imposed exactly
// and drives interior flow.
func TestDirichletLifting(t *testing.T) {
	m := boxMesh(t, 2, 2, 2, 4, 1, 1, 1, [3]bool{})
	bc := allDirichletVel()
	bc[mesh.ZMax] = VelBC{Value: func(x, y, z, tm float64) (float64, float64, float64) {
		return 1, 0, 0 // lid slides in +x
	}}
	s := newTestSolver(t, Config{Mesh: m, Nu: 0.1, Dt: 1e-3, VelBC: bc})
	for i := 0; i < 10; i++ {
		s.Step()
	}
	u := s.U.Data()
	for _, i := range m.BoundaryNodes(mesh.ZMax) {
		if math.Abs(u[i]-1) > 1e-12 {
			t.Fatalf("lid velocity = %v, want exactly 1", u[i])
		}
	}
	for _, i := range m.BoundaryNodes(mesh.ZMin) {
		if math.Abs(u[i]) > 1e-12 {
			t.Fatalf("bottom wall velocity = %v, want 0", u[i])
		}
	}
	if ke := s.KineticEnergy(); ke <= 0 {
		t.Errorf("no interior flow developed: KE = %v", ke)
	}
}

// TestSerialParallelConsistency: the same problem on 1 and 4 ranks
// must produce the same kinetic energy trajectory.
func TestSerialParallelConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("long numerical integration")
	}
	cfg := mesh.BoxConfig{Nx: 4, Ny: 3, Nz: 3, Lx: 2 * math.Pi, Ly: 2 * math.Pi, Lz: 2 * math.Pi,
		Order: 3, Periodic: [3]bool{true, true, true}}
	run := func(size int) []float64 {
		var kes []float64
		mpirt.Run(size, func(c *mpirt.Comm) {
			m, err := mesh.NewBox(cfg, c.Rank(), size)
			if err != nil {
				t.Error(err)
				return
			}
			s, err := NewSolver(Config{
				Mesh: m, Comm: c, Dev: occa.NewDevice(occa.CUDA, nil),
				Nu: 0.05, Dt: 2e-3, PressureTol: 1e-10, VelocityTol: 1e-12,
				InitialVelocity: func(x, y, z float64) (float64, float64, float64) {
					return math.Sin(x) * math.Cos(y), -math.Cos(x) * math.Sin(y), 0
				},
			})
			if err != nil {
				t.Error(err)
				return
			}
			var local []float64
			for i := 0; i < 10; i++ {
				s.Step()
				local = append(local, s.KineticEnergy())
			}
			if c.Rank() == 0 {
				kes = local
			}
		})
		return kes
	}
	ke1 := run(1)
	ke4 := run(4)
	for i := range ke1 {
		if relErr := math.Abs(ke1[i]-ke4[i]) / ke1[i]; relErr > 1e-8 {
			t.Errorf("step %d: serial %v vs parallel %v (rel %g)", i, ke1[i], ke4[i], relErr)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	m := boxMesh(t, 2, 2, 2, 2, 1, 1, 1, [3]bool{})
	c := mpirt.NewWorld(1).Comm(0)
	dev := occa.NewDevice(occa.Serial, nil)
	cases := []Config{
		{Mesh: m, Comm: c, Dev: dev, Nu: 1},                             // no dt
		{Mesh: m, Comm: c, Dev: dev, Dt: 0.1},                           // no nu
		{Mesh: nil, Comm: c, Dev: dev, Nu: 1, Dt: 0.1},                  // no mesh
		{Mesh: m, Comm: c, Dev: dev, Nu: 1, Dt: 0.1, Temperature: true}, // no kappa
	}
	for i, cfg := range cases {
		if _, err := NewSolver(cfg); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestBCOnPeriodicFaceRejected(t *testing.T) {
	m := boxMesh(t, 3, 3, 3, 2, 1, 1, 1, [3]bool{true, false, false})
	c := mpirt.NewWorld(1).Comm(0)
	dev := occa.NewDevice(occa.Serial, nil)
	_, err := NewSolver(Config{
		Mesh: m, Comm: c, Dev: dev, Nu: 1, Dt: 0.1,
		VelBC: map[mesh.Face]VelBC{mesh.XMin: {}},
	})
	if err == nil {
		t.Error("expected error for BC on periodic face")
	}
}

func TestFieldsExposesPrimaries(t *testing.T) {
	m := boxMesh(t, 2, 2, 2, 2, 1, 1, 1, [3]bool{})
	acct := metrics.NewAccountant()
	s := newTestSolver(t, Config{
		Mesh: m, Nu: 1, Kappa: 1, Dt: 0.01, Temperature: true,
		VelBC: allDirichletVel(), Acct: acct,
		Dev: occa.NewDevice(occa.CUDA, acct),
	})
	f := s.Fields()
	for _, name := range []string{"velocity_x", "velocity_y", "velocity_z", "pressure", "temperature"} {
		if f[name] == nil {
			t.Errorf("missing field %q", name)
		}
	}
	if acct.CategoryInUse("device") == 0 {
		t.Error("device fields not accounted")
	}
	if acct.CategoryInUse("solver-work") == 0 {
		t.Error("work arrays not accounted")
	}
}

// TestVolumeDiagnostics checks integral helpers against closed forms.
func TestVolumeDiagnostics(t *testing.T) {
	m := boxMesh(t, 2, 3, 2, 3, 2, 1, 3, [3]bool{})
	s := newTestSolver(t, Config{Mesh: m, Nu: 1, Dt: 0.01, VelBC: allDirichletVel()})
	if v := s.Volume(); math.Abs(v-6) > 1e-12 {
		t.Errorf("volume = %v, want 6", v)
	}
	one := make([]float64, s.n)
	xfld := make([]float64, s.n)
	for i := range one {
		one[i] = 1
		xfld[i] = m.X[i]
	}
	if got := s.VolumeIntegral(one); math.Abs(got-6) > 1e-12 {
		t.Errorf("integral(1) = %v", got)
	}
	// integral of x over [0,2]x[0,1]x[0,3] = 2*3 = 6... (mean x=1, V=6).
	if got := s.VolumeIntegral(xfld); math.Abs(got-6) > 1e-12 {
		t.Errorf("integral(x) = %v, want 6", got)
	}
	if got := s.VolumeAverage(xfld); math.Abs(got-1) > 1e-12 {
		t.Errorf("avg(x) = %v, want 1", got)
	}
}

// TestScalarAdvection: with uniform velocity u=(1,0,0) in a periodic
// box, a temperature profile translates unchanged: T(x,t) = T0(x - t).
// Exercises the advection operator and EXT2 extrapolation against an
// exact solution (kappa is chosen tiny so diffusion is negligible).
func TestScalarAdvection(t *testing.T) {
	if testing.Short() {
		t.Skip("long numerical integration")
	}
	L := 2 * math.Pi
	m := boxMesh(t, 4, 3, 3, 5, L, L, L, [3]bool{true, true, true})
	profile := func(x float64) float64 { return math.Sin(x) + 0.3*math.Cos(2*x) }
	dt := 2e-3
	s := newTestSolver(t, Config{
		Mesh: m, Nu: 1e-8, Kappa: 1e-8, Dt: dt, Temperature: true,
		InitialVelocity: func(x, y, z float64) (float64, float64, float64) {
			return 1, 0, 0
		},
		InitialTemperature: func(x, y, z float64) float64 { return profile(x) },
	})
	const steps = 100
	for i := 0; i < steps; i++ {
		s.Step()
	}
	tEnd := s.Time()
	tp := s.T.Data()
	var maxErr float64
	for i := range tp {
		want := profile(m.X[i] - tEnd)
		if e := math.Abs(tp[i] - want); e > maxErr {
			maxErr = e
		}
	}
	// Second-order time integration over 100 steps.
	if maxErr > 5e-4 {
		t.Errorf("advection max error %g after t=%.3f", maxErr, tEnd)
	}
	// Velocity must remain exactly uniform (pressure gradient zero).
	u := s.U.Data()
	for i := range u {
		if math.Abs(u[i]-1) > 1e-6 {
			t.Fatalf("uniform flow disturbed: u[%d] = %v", i, u[i])
		}
	}
}

// TestTimeDependentBC: an oscillating lid is imposed exactly at every
// step.
func TestTimeDependentBC(t *testing.T) {
	m := boxMesh(t, 2, 2, 2, 3, 1, 1, 1, [3]bool{})
	bc := allDirichletVel()
	bc[mesh.ZMax] = VelBC{Value: func(x, y, z, tm float64) (float64, float64, float64) {
		return math.Sin(10 * tm), 0, 0
	}}
	s := newTestSolver(t, Config{Mesh: m, Nu: 0.1, Dt: 1e-2, VelBC: bc})
	for i := 0; i < 5; i++ {
		s.Step()
		want := math.Sin(10 * s.Time())
		u := s.U.Data()
		for _, idx := range m.BoundaryNodes(mesh.ZMax) {
			if math.Abs(u[idx]-want) > 1e-12 {
				t.Fatalf("step %d: lid u = %v, want %v", i+1, u[idx], want)
			}
		}
	}
}
