package fluid

import (
	"math"
	"time"

	"nekrs-sensei/internal/krylov"
	"nekrs-sensei/internal/metrics"
	"nekrs-sensei/internal/mpirt"
)

// bdfCoefficients returns (b0, b1, b2, e0, e1): the BDF terms of
// (b0 u^{n+1} - b1 u^n - b2 u^{n-1})/dt and the EXT extrapolation
// weights for the explicit terms. The first step bootstraps with
// BDF1/EXT1.
func bdfCoefficients(step int) (b0, b1, b2, e0, e1 float64) {
	if step == 0 {
		return 1, 1, 0, 1, 0
	}
	return 1.5, 2, -0.5, 2, -1
}

// computeExplicitTerms evaluates F^n = -(u·grad)u + f(x,t,T) into
// fu/fv/fw and, when enabled, F_T^n = -(u·grad)T + q into ft.
func (s *Solver) computeExplicitTerms(t float64) {
	m := s.mesh

	// Advection of each velocity component.
	s.advect(s.U.Data(), s.fu)
	s.advect(s.V.Data(), s.fv)
	s.advect(s.W.Data(), s.fw)

	if s.cfg.Forcing != nil {
		var tp []float64
		if s.T != nil {
			tp = s.T.Data()
		}
		for i := 0; i < s.n; i++ {
			tv := 0.0
			if tp != nil {
				tv = tp[i]
			}
			fx, fy, fz := s.cfg.Forcing(m.X[i], m.Y[i], m.Z[i], t, tv)
			s.fu[i] += fx
			s.fv[i] += fy
			s.fw[i] += fz
		}
	}

	if s.cfg.Temperature {
		s.advect(s.T.Data(), s.ft)
		if s.cfg.HeatSource != nil {
			for i := 0; i < s.n; i++ {
				s.ft[i] += s.cfg.HeatSource(m.X[i], m.Y[i], m.Z[i], t)
			}
		}
	}
}

// bdfRHS forms the BDF/EXT right-hand side r = (b1 u^n + b2 u^{n-1})/dt
// + e0 F^n + e1 F^{n-1} of one field and rotates its histories in the
// same sweep: u1 <- u^n, f1 <- F^n. r may be f.
func bdfRHS(r, u, u1, f, f1 []float64, b1, b2, e0, e1, dt float64) {
	u, u1, f, f1 = u[:len(r)], u1[:len(r)], f[:len(r)], f1[:len(r)]
	for i := range r {
		ui, fi := u[i], f[i]
		r[i] = (b1*ui+b2*u1[i])/dt + e0*fi + e1*f1[i]
		u1[i], f1[i] = ui, fi
	}
}

// helmholtzSolve solves op's system for the field f with Dirichlet
// lifting: b = gs(B r - H_L bc) masked, in scr2; x, which may be r,
// starts from f's interior part, (f - bc) masked; then f = x + bc.
// Without a lifting field bc is zero: H_L bc is +0 everywhere and
// subtracting it changes no bit, so it is skipped, and f - +0 is f.
func (s *Solver) helmholtzSolve(op *assembledOp, f, r, bc, x []float64, ws *krylov.Workspace, opts krylov.Options) int {
	b := s.mesh.B
	if bc != nil {
		s.helmholtzLocal(bc, s.scr1, op.visc, s.b0dt, op.brinkman)
		for i := 0; i < s.n; i++ {
			s.scr2[i] = b[i]*r[i] - s.scr1[i]
			x[i] = f[i] - bc[i]
		}
	} else {
		for i := 0; i < s.n; i++ {
			s.scr2[i] = b[i] * r[i]
		}
		copy(x, f)
	}
	s.gsh.Sum(s.scr2)
	zeroRows(s.scr2, op.dir)
	zeroRows(x, op.dir)
	iters := krylov.CG(op, s.scr2, x, ws, opts).Iters
	addLift(f, x, bc)
	return iters
}

// addLift sets f = x + bc. Without a lifting field the sum is still
// formed, as x + 0: adding the zero lift turns -0 into +0.
func addLift(f, x, bc []float64) {
	if bc == nil {
		for i := range x {
			f[i] = x[i] + 0
		}
		return
	}
	for i := range x {
		f[i] = x[i] + bc[i]
	}
}

// Step advances the solution by one timestep and returns solve
// statistics. Collective over the communicator. A steady-state step
// allocates nothing.
func (s *Solver) Step() StepStats {
	timer := s.cfg.Timer
	stepBegin := time.Now()

	dt := s.cfg.Dt
	tNew := s.time + dt
	effStep := s.step
	if s.bootstrap {
		effStep = 0
		s.bootstrap = false
	}
	b0, b1, b2, e0, e1 := bdfCoefficients(effStep)
	b0dt := b0 / dt
	s.b0dt = b0dt

	u, v, w := s.U.Data(), s.V.Data(), s.W.Data()

	// Explicit terms and BDF/EXT right-hand side r_i.
	begin := stepBegin
	s.computeExplicitTerms(s.time)
	bdfRHS(s.ru, u, s.u1, s.fu, s.fu1, b1, b2, e0, e1, dt)
	bdfRHS(s.rv, v, s.v1, s.fv, s.fv1, b1, b2, e0, e1, dt)
	bdfRHS(s.rw, w, s.w1, s.fw, s.fw1, b1, b2, e0, e1, dt)
	if s.cfg.Temperature {
		bdfRHS(s.ft, s.T.Data(), s.t1, s.ft, s.ft1, b1, b2, e0, e1, dt)
	}
	begin = lap(timer, "advection", begin)

	// Pressure Poisson: A p = -gs(B div r), all-Neumann with mean
	// projection.
	s.divergence(s.ru, s.rv, s.rw, s.scr1)
	b := s.mesh.B
	for i := 0; i < s.n; i++ {
		s.scr2[i] = -b[i] * s.scr1[i]
	}
	s.gsh.Sum(s.scr2)
	pRes := krylov.CG(s.pOp, s.scr2, s.P.Data(), &s.cgPS, s.solverOptions(s.cfg.PressureTol, s.diagA, true))
	begin = lap(timer, "pressure", begin)

	// Velocity Helmholtz solves with Dirichlet lifting. grad p goes
	// into fu fv fw (F^n was rotated into fu1… above) and is folded
	// into the right-hand sides: r - grad p, rounded once as before.
	s.gradient(s.P.Data(), s.fu, s.fv, s.fw)
	for i := 0; i < s.n; i++ {
		s.ru[i] -= s.fu[i]
		s.rv[i] -= s.fv[i]
		s.rw[i] -= s.fw[i]
	}
	s.refreshBoundaryValues(tNew)
	s.buildHelmholtzDiags(b0dt)

	var viscIters [3]int
	rs, bcs := [3][]float64{s.ru, s.rv, s.rw}, [3][]float64{s.ub, s.vb, s.wb}
	hOpts := s.solverOptions(s.cfg.VelocityTol, s.diagHV, false)
	for c, vel := range [3][]float64{u, v, w} {
		viscIters[c] = s.helmholtzSolve(s.vOp, vel, rs[c], bcs[c], s.fu, &s.cgVel[c], hOpts)
	}
	begin = lap(timer, "viscous", begin)

	// Scalar (temperature) Helmholtz: ft is its rhs, then its x.
	scalarIters := 0
	if s.cfg.Temperature {
		scalarIters = s.helmholtzSolve(s.tOp, s.T.Data(), s.ft, s.tb, s.ft, &s.cgPS,
			s.solverOptions(s.cfg.ScalarTol, s.diagHT, false))
		lap(timer, "scalar", begin)
	}

	s.time = tNew
	s.step++
	stats := StepStats{
		Step:          s.step,
		Time:          s.time,
		PressureIters: pRes.Iters,
		ViscousIters:  viscIters,
		ScalarIters:   scalarIters,
		CFL:           s.CFL(),
	}
	timer.Add("step", time.Since(stepBegin))
	return stats
}

// lap charges the time since begin to the named phase and returns the
// start of the next one. Phases are timed with Add and a plain
// time.Time, because a stop closure per phase would allocate on the
// step's zero-allocation path.
func lap(timer *metrics.Timer, phase string, begin time.Time) time.Time {
	now := time.Now()
	timer.Add(phase, now.Sub(begin))
	return now
}

// CFL estimates the advective CFL number of the current state.
func (s *Solver) CFL() float64 {
	u, v, w := s.U.Data(), s.V.Data(), s.W.Data()
	var vmax float64
	for i := 0; i < s.n; i++ {
		sp := math.Abs(u[i]) + math.Abs(v[i]) + math.Abs(w[i])
		if sp > vmax {
			vmax = sp
		}
	}
	vmax = s.comm.AllreduceF64Scalar(vmax, mpirt.OpMax)
	return vmax * s.cfg.Dt / s.mesh.MinSpacing()
}
