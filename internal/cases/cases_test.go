package cases

import (
	"math"
	"math/rand"
	"testing"

	"nekrs-sensei/internal/mesh"
	"nekrs-sensei/internal/metrics"
	"nekrs-sensei/internal/mpirt"
	"nekrs-sensei/internal/occa"
)

func TestPebblesCountAndPlacement(t *testing.T) {
	pebbles := Pebbles()
	if len(pebbles) != 146 {
		t.Fatalf("pebble count = %d, want 146", len(pebbles))
	}
	for i, p := range pebbles {
		if p.X < p.R || p.X > 1-p.R || p.Y < p.R || p.Y > 1-p.R {
			t.Errorf("pebble %d pokes through a side wall: %+v", i, p)
		}
		if p.Z < p.R || p.Z > 2-p.R {
			t.Errorf("pebble %d outside the column: %+v", i, p)
		}
	}
}

func TestPebblesDoNotOverlap(t *testing.T) {
	pebbles := Pebbles()
	for i := 0; i < len(pebbles); i++ {
		for j := i + 1; j < len(pebbles); j++ {
			a, b := pebbles[i], pebbles[j]
			d := math.Sqrt((a.X-b.X)*(a.X-b.X) + (a.Y-b.Y)*(a.Y-b.Y) + (a.Z-b.Z)*(a.Z-b.Z))
			if d < a.R+b.R {
				t.Fatalf("pebbles %d and %d overlap: centers %.3f apart, radii sum %.3f",
					i, j, d, a.R+b.R)
			}
		}
	}
}

func TestPebblesDeterministic(t *testing.T) {
	a := Pebbles()
	b := Pebbles()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("pebble layout not deterministic")
		}
	}
}

func TestSphereContains(t *testing.T) {
	s := Sphere{X: 1, Y: 2, Z: 3, R: 0.5}
	if !s.Contains(1.1, 2.1, 3.1) {
		t.Error("inside point reported outside")
	}
	if s.Contains(1.6, 2, 3) {
		t.Error("outside point reported inside")
	}
}

func TestPB146SolidFraction(t *testing.T) {
	// Riemann-sum the Brinkman indicator over a tight box around each
	// pebble: every point inside any pebble must be penalized, so the
	// total matches the analytic pebble volume (overlap-freedom is
	// checked separately above).
	c := PB146(1, 3)
	const h = 0.004
	var got float64
	for _, p := range Pebbles() {
		lo := [3]float64{p.X - p.R - h, p.Y - p.R - h, p.Z - p.R - h}
		hi := [3]float64{p.X + p.R + h, p.Y + p.R + h, p.Z + p.R + h}
		for x := lo[0] + h/2; x < hi[0]; x += h {
			for y := lo[1] + h/2; y < hi[1]; y += h {
				for z := lo[2] + h/2; z < hi[2]; z += h {
					if p.Contains(x, y, z) && c.Brinkman(x, y, z) > 0 {
						got += h * h * h
					}
				}
			}
		}
	}
	want := 146 * 4.0 / 3 * math.Pi * math.Pow(PebbleRadius, 3)
	if relErr := math.Abs(got-want) / want; relErr > 0.02 {
		t.Errorf("solid volume = %v, analytic %v (rel err %.3f)", got, want, relErr)
	}
}

// TestPebbleGridMatchesAllPebbles: the candidate table gives the answer
// of testing all 146 spheres — on every node of the order-6 mesh the
// benchmark runs and on 1e5 random points, a tenth of them outside the
// domain and a tenth within 1e-6 of a pebble surface.
func TestPebbleGridMatchesAllPebbles(t *testing.T) {
	all := Pebbles()
	bruteForce := func(x, y, z float64) bool {
		for _, p := range all {
			if p.Contains(x, y, z) {
				return true
			}
		}
		return false
	}
	c := PB146(1, 6)
	inside := 0
	check := func(x, y, z float64) {
		t.Helper()
		want := bruteForce(x, y, z)
		if want {
			inside++
		}
		if got := c.Brinkman(x, y, z) > 0; got != want {
			t.Fatalf("Brinkman(%v, %v, %v) > 0 is %v, all-pebbles test says %v", x, y, z, got, want)
		}
		if got := c.HeatSource(x, y, z, 0) > 0; got != want {
			t.Fatalf("HeatSource(%v, %v, %v) > 0 is %v, all-pebbles test says %v", x, y, z, got, want)
		}
	}
	m, err := mesh.NewBox(c.Mesh, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.X {
		check(m.X[i], m.Y[i], m.Z[i])
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100000; i++ {
		switch i % 10 {
		case 0: // around and outside the domain
			check(-0.2+1.4*rng.Float64(), -0.2+1.4*rng.Float64(), -0.2+2.4*rng.Float64())
		case 1: // hugging a pebble surface
			p := all[rng.Intn(len(all))]
			dx, dy, dz := rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
			r := p.R * (1 + 1e-6*(2*rng.Float64()-1)) / math.Sqrt(dx*dx+dy*dy+dz*dz)
			check(p.X+r*dx, p.Y+r*dy, p.Z+r*dz)
		default:
			check(rng.Float64(), rng.Float64(), 2*rng.Float64())
		}
	}
	if inside == 0 {
		t.Fatal("no test point fell inside a pebble")
	}
}

func TestPB146FlowDevelops(t *testing.T) {
	if testing.Short() {
		t.Skip("long numerical integration")
	}
	c := PB146(1, 3)
	comm := mpirt.NewWorld(1).Comm(0)
	s, err := c.NewSolver(comm, occa.NewDevice(occa.CUDA, nil), metrics.NewAccountant(), metrics.NewTimer())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 15; i++ {
		s.Step()
	}
	if ke := s.KineticEnergy(); ke <= 0 {
		t.Errorf("no flow developed: KE = %v", ke)
	}
	// The pebbles are heated: mean temperature must rise.
	tbar := s.VolumeAverage(s.T.Data())
	if tbar <= 0 {
		t.Errorf("no heating: mean T = %v", tbar)
	}
	// Velocity inside a pebble stays far below the bulk.
	pebbles := Pebbles()
	m := s.Mesh()
	w := s.W.Data()
	var inMax, outMax float64
	for i := range w {
		inside := false
		for _, p := range pebbles {
			if p.Contains(m.X[i], m.Y[i], m.Z[i]) {
				inside = true
				break
			}
		}
		a := math.Abs(w[i])
		if inside && a > inMax {
			inMax = a
		}
		if !inside && a > outMax {
			outMax = a
		}
	}
	if outMax == 0 || inMax > outMax/2 {
		t.Errorf("penalization ineffective: in %v out %v", inMax, outMax)
	}
}

// TestRBCStability: below the critical Rayleigh number (1708) the
// conduction state damps perturbations; above it convection grows.
func TestRBCStability(t *testing.T) {
	if testing.Short() {
		t.Skip("long numerical integration")
	}
	run := func(ra float64, steps int) (ke0, keEnd float64) {
		c := RBC(ra, 0.71, 2, 4, 3, 4)
		c.Dt = 2e-2
		comm := mpirt.NewWorld(1).Comm(0)
		s, err := c.NewSolver(comm, occa.NewDevice(occa.CUDA, nil), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Skip the buoyant adjustment transient of the perturbed
		// conduction state before sampling.
		for i := 0; i < 20; i++ {
			s.Step()
		}
		ke0 = s.KineticEnergy()
		for i := 0; i < steps; i++ {
			s.Step()
		}
		return ke0, s.KineticEnergy()
	}
	// Growth/decay rates are slow in free-fall units, so integrate to
	// t ~ 4 and demand a clear factor.
	ke0, keEnd := run(300, 200) // strongly subcritical (Ra_c ~ 1708)
	if keEnd > 0.8*ke0 {
		t.Errorf("subcritical RBC did not decay: %g -> %g", ke0, keEnd)
	}
	ke0, keEnd = run(1e5, 200) // strongly supercritical
	if keEnd < 5*ke0 {
		t.Errorf("supercritical RBC did not grow: %g -> %g", ke0, keEnd)
	}
}

func TestRBCNondimensionalization(t *testing.T) {
	c := RBC(1e4, 0.7, 2, 4, 3, 4)
	wantNu := math.Sqrt(0.7 / 1e4)
	wantKappa := 1 / math.Sqrt(1e4*0.7)
	if math.Abs(c.Nu-wantNu) > 1e-15 || math.Abs(c.Kappa-wantKappa) > 1e-15 {
		t.Errorf("nu=%v kappa=%v", c.Nu, c.Kappa)
	}
	// Free-fall units: Pr = nu/kappa, Ra = 1/(nu*kappa).
	if pr := c.Nu / c.Kappa; math.Abs(pr-0.7) > 1e-12 {
		t.Errorf("Pr = %v", pr)
	}
	if ra := 1 / (c.Nu * c.Kappa); math.Abs(ra-1e4) > 1e-6 {
		t.Errorf("Ra = %v", ra)
	}
}

func TestRBCBoundaryTemperatures(t *testing.T) {
	c := RBC(2000, 1, 2, 4, 3, 3)
	comm := mpirt.NewWorld(1).Comm(0)
	s, err := c.NewSolver(comm, occa.NewDevice(occa.CUDA, nil), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Step()
	m := s.Mesh()
	tp := s.T.Data()
	for i := range tp {
		if m.Z[i] == 0 && math.Abs(tp[i]-1) > 1e-12 {
			t.Fatalf("bottom T = %v, want 1", tp[i])
		}
		if math.Abs(m.Z[i]-1) < 1e-14 && math.Abs(tp[i]) > 1e-12 {
			t.Fatalf("top T = %v, want 0", tp[i])
		}
	}
}

func TestNusseltConductionState(t *testing.T) {
	// Zero velocity, conduction profile: Nu = 1 exactly.
	c := RBC(2000, 1, 2, 4, 3, 3)
	c.InitialTemperature = func(x, y, z float64) float64 { return 1 - z }
	comm := mpirt.NewWorld(1).Comm(0)
	s, err := c.NewSolver(comm, occa.NewDevice(occa.CUDA, nil), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if nu := Nusselt(s, c.Kappa); math.Abs(nu-1) > 1e-10 {
		t.Errorf("conduction Nu = %v, want 1", nu)
	}
}

func TestTaylorGreenCaseSetup(t *testing.T) {
	c := TaylorGreen(0.1, 3, 4)
	comm := mpirt.NewWorld(1).Comm(0)
	s, err := c.NewSolver(comm, occa.NewDevice(occa.CUDA, nil), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// KE of the analytic field over [0,2pi]^3 is 2 pi^3 up to
	// interpolation error.
	want := 2 * math.Pow(math.Pi, 3)
	if ke := s.KineticEnergy(); math.Abs(ke-want)/want > 0.01 {
		t.Errorf("initial KE = %v, want %v", ke, want)
	}
}

func TestLidCavitySetup(t *testing.T) {
	c := LidCavity(100, 2, 3)
	comm := mpirt.NewWorld(1).Comm(0)
	s, err := c.NewSolver(comm, occa.NewDevice(occa.CUDA, nil), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Step()
	if ke := s.KineticEnergy(); ke <= 0 {
		t.Error("lid did not drive flow")
	}
}

func TestCaseParallelConstruction(t *testing.T) {
	c := PB146(1, 2)
	const size = 4
	mpirt.Run(size, func(comm *mpirt.Comm) {
		s, err := c.NewSolver(comm, occa.NewDevice(occa.CUDA, nil), nil, nil)
		if err != nil {
			t.Error(err)
			return
		}
		vol := s.Volume()
		if math.Abs(vol-2) > 1e-12 {
			t.Errorf("volume = %v, want 2", vol)
		}
	})
}
