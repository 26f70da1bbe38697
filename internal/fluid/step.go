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
// same sweep: u1 <- u^n, f1 <- F^n.
func bdfRHS(r, u, u1, f, f1 []float64, b1, b2, e0, e1, dt float64) {
	u, u1, f, f1 = u[:len(r)], u1[:len(r)], f[:len(r)], f1[:len(r)]
	for i := range r {
		ui, fi := u[i], f[i]
		r[i] = (b1*ui+b2*u1[i])/dt + e0*fi + e1*f1[i]
		u1[i], f1[i] = ui, fi
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
		bdfRHS(s.rt, s.T.Data(), s.t1, s.ft, s.ft1, b1, b2, e0, e1, dt)
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
	pRes := krylov.CG(s.pOp, s.scr2, s.P.Data(), &s.cg, s.solverOptions(s.cfg.PressureTol, s.diagA, true))
	begin = lap(timer, "pressure", begin)

	// Velocity Helmholtz solves with Dirichlet lifting.
	s.gradient(s.P.Data(), s.gx, s.gy, s.gz)
	s.refreshBoundaryValues(tNew)
	s.buildHelmholtzDiags(b0dt)

	var viscIters [3]int
	comps := [3]struct {
		vel, r, grad, bc []float64
	}{
		{u, s.ru, s.gx, s.ub},
		{v, s.rv, s.gy, s.vb},
		{w, s.rw, s.gz, s.wb},
	}
	hOpts := s.solverOptions(s.cfg.VelocityTol, s.diagHV, false)
	for c := range comps {
		cm := &comps[c]
		// rhs = gs(B (r - grad p) - H_L bc) * mask. Without a
		// prescribed boundary value bc is identically zero, H_L bc
		// is +0 everywhere and subtracting it changes no bit, so the
		// operator application is skipped.
		if len(s.velFaces) > 0 {
			s.helmholtzLocal(cm.bc, s.scr1, s.cfg.Nu, b0dt, true)
			for i := 0; i < s.n; i++ {
				s.scr2[i] = b[i]*(cm.r[i]-cm.grad[i]) - s.scr1[i]
			}
		} else {
			for i := 0; i < s.n; i++ {
				s.scr2[i] = b[i] * (cm.r[i] - cm.grad[i])
			}
		}
		s.gsh.Sum(s.scr2)
		for i := 0; i < s.n; i++ {
			s.scr2[i] *= s.maskV[i]
		}
		// Warm start from the previous solution's interior part.
		x := s.fu // reuse as solve buffer; histories were rotated above
		for i := 0; i < s.n; i++ {
			x[i] = (cm.vel[i] - cm.bc[i]) * s.maskV[i]
		}
		res := krylov.CG(s.vOp, s.scr2, x, &s.cg, hOpts)
		viscIters[c] = res.Iters
		for i := 0; i < s.n; i++ {
			cm.vel[i] = x[i] + cm.bc[i]
		}
	}
	begin = lap(timer, "viscous", begin)

	// Scalar (temperature) Helmholtz.
	scalarIters := 0
	if s.cfg.Temperature {
		tp := s.T.Data()
		if len(s.tempFaces) > 0 {
			s.helmholtzLocal(s.tb, s.scr1, s.cfg.Kappa, b0dt, false)
			for i := 0; i < s.n; i++ {
				s.scr2[i] = b[i]*s.rt[i] - s.scr1[i]
			}
		} else {
			for i := 0; i < s.n; i++ {
				s.scr2[i] = b[i] * s.rt[i]
			}
		}
		s.gsh.Sum(s.scr2)
		for i := 0; i < s.n; i++ {
			s.scr2[i] *= s.maskT[i]
		}
		x := s.ft
		for i := 0; i < s.n; i++ {
			x[i] = (tp[i] - s.tb[i]) * s.maskT[i]
		}
		res := krylov.CG(s.tOp, s.scr2, x, &s.cg, s.solverOptions(s.cfg.ScalarTol, s.diagHT, false))
		scalarIters = res.Iters
		for i := 0; i < s.n; i++ {
			tp[i] = x[i] + s.tb[i]
		}
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
// start of the next one. (Timer.Start would allocate a closure per
// phase.)
func lap(timer *metrics.Timer, phase string, begin time.Time) time.Time {
	now := time.Now()
	timer.Add(phase, now.Sub(begin))
	return now
}

// Run advances n steps, invoking hook (if non-nil) after each step.
func (s *Solver) Run(n int, hook func(StepStats)) {
	for i := 0; i < n; i++ {
		st := s.Step()
		if hook != nil {
			hook(st)
		}
	}
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
