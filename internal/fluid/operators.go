package fluid

import "nekrs-sensei/internal/tensor"

// The element-local operators below make one pass over the mesh: each
// element's three reference derivatives live in element-sized scratch
// on the kernel's stack while the metric terms are applied, so an
// operator application reads its input and the geometric factors once
// and writes its output once. Every output value is formed by the same
// floating-point operations in the same order as the textbook
// formulation (derivative sweeps over the whole mesh, then pointwise
// sweeps) that operators_test.go keeps as the reference. The metric
// terms are the reference element's (mesh.G, mesh.RX), the same block
// for every element.

// stackElem is the node count of the largest element (Nq = 8) whose
// scratch is carved from the kernel's stack frame; larger elements
// take theirs from the heap, once per launch.
const stackElem = 512

// elemScratch returns 3*np values of scratch, on the caller's stack
// when they fit. Scratch belongs to one kernel invocation, so a device
// that splits a launch across workers hands each its own.
func elemScratch(stack *[3 * stackElem]float64, np int) []float64 {
	if 3*np <= len(stack) {
		return stack[:3*np]
	}
	return make([]float64, 3*np)
}

// derivs3 computes the three reference derivatives of one element into
// the thirds of w.
func derivs3(d []float64, nq int, ue, w []float64) (ur, us, ut []float64) {
	np := len(ue)
	ur, us, ut = w[:np:np], w[np:2*np:2*np], w[2*np:3*np:3*np]
	tensor.DerivR(d, nq, ue, ur)
	tensor.DerivS(d, nq, ue, us)
	tensor.DerivT(d, nq, ue, ut)
	return ur, us, ut
}

// Kernel operands. A launch body may run on the device's worker
// goroutines, so it escapes and a closure per call would cost a heap
// allocation per operator application; the bodies are built into
// occa kernels once (NewSolver) and read their operands from here.
type (
	helmholtzArgs struct {
		in, out  []float64
		visc, h0 float64
		chi      []float64 // Brinkman drag per node, or nil
		mass     bool      // false: the bare weak Laplacian
	}
	gradientArgs struct {
		in, outx, outy, outz []float64
	}
	advectArgs struct {
		in, out []float64
	}
	divergenceArgs struct {
		ax, ay, az, out []float64
	}
)

func (s *Solver) buildKernels() {
	s.kHelmholtz = s.dev.BuildKernel("helmholtz", s.helmholtzElems)
	s.kGradient = s.dev.BuildKernel("gradient", s.gradientElems)
	s.kAdvect = s.dev.BuildKernel("advect", s.advectElems)
	s.kDivergence = s.dev.BuildKernel("divergence", s.divergenceElems)
}

// localLaplacian applies the unassembled weak Laplacian A_L = D^T G D
// element by element: out_e = Dr^T(Grr ur + Grs us + Grt ut) + ... .
// It overwrites out; in must not alias out.
func (s *Solver) localLaplacian(in, out []float64) {
	s.helm = helmholtzArgs{in: in, out: out}
	s.kHelmholtz.Run(s.nelt)
}

// helmholtzLocal applies the unassembled Helmholtz operator
// visc*A_L + (h0 + chi) B (chi only when withBrinkman) into out.
func (s *Solver) helmholtzLocal(in, out []float64, visc, h0 float64, withBrinkman bool) {
	s.helm = helmholtzArgs{in: in, out: out, visc: visc, h0: h0, mass: true}
	if withBrinkman {
		s.helm.chi = s.brink
	}
	s.kHelmholtz.Run(s.nelt)
}

func (s *Solver) helmholtzElems(elo, ehi int) {
	a := &s.helm
	nq, np := s.nq, s.np
	d, g, b := s.mesh.D, s.mesh.G, s.mesh.B
	var stack [3 * stackElem]float64
	w := elemScratch(&stack, np)
	for e := elo; e < ehi; e++ {
		off := e * np
		ue := a.in[off : off+np : off+np]
		oe := a.out[off : off+np : off+np]
		ur, us, ut := derivs3(d, nq, ue, w)
		tensor.Metric(g, ur, us, ut)
		for p := range oe {
			oe[p] = 0
		}
		tensor.DerivRT(d, nq, ur, oe)
		tensor.DerivST(d, nq, us, oe)
		tensor.DerivTT(d, nq, ut, oe)
		if !a.mass {
			continue
		}
		be := b[off : off+np : off+np]
		if a.visc != 1 {
			for p := range oe {
				oe[p] *= a.visc
			}
		}
		if a.chi != nil {
			chi := a.chi[off : off+np : off+np]
			for p := range oe {
				oe[p] += (a.h0 + chi[p]) * be[p] * ue[p]
			}
		} else {
			for p := range oe {
				oe[p] += a.h0 * be[p] * ue[p]
			}
		}
	}
}

// gradient computes the physical gradient of in into (outx, outy, outz)
// using the chain rule with the inverse metric.
func (s *Solver) gradient(in, outx, outy, outz []float64) {
	s.grad = gradientArgs{in: in, outx: outx, outy: outy, outz: outz}
	s.kGradient.Run(s.nelt)
}

func (s *Solver) gradientElems(elo, ehi int) {
	a := &s.grad
	nq, np := s.nq, s.np
	d, rx := s.mesh.D, s.mesh.RX
	var stack [3 * stackElem]float64
	w := elemScratch(&stack, np)
	for e := elo; e < ehi; e++ {
		off := e * np
		ur, us, ut := derivs3(d, nq, a.in[off:off+np:off+np], w)
		ox, oy, oz := a.outx[off:off+np:off+np], a.outy[off:off+np:off+np], a.outz[off:off+np:off+np]
		for p := range ur {
			r9 := rx[9*p : 9*p+9 : 9*p+9]
			ox[p] = r9[0]*ur[p] + r9[1]*us[p] + r9[2]*ut[p]
			oy[p] = r9[3]*ur[p] + r9[4]*us[p] + r9[5]*ut[p]
			oz[p] = r9[6]*ur[p] + r9[7]*us[p] + r9[8]*ut[p]
		}
	}
}

// advect computes the advection term -(u . grad) in of the current
// velocity into out: the gradient and its contraction with the
// velocity in one pass, without the gradient ever reaching memory.
func (s *Solver) advect(in, out []float64) {
	s.adv = advectArgs{in: in, out: out}
	s.kAdvect.Run(s.nelt)
}

func (s *Solver) advectElems(elo, ehi int) {
	a := &s.adv
	nq, np := s.nq, s.np
	d, rx := s.mesh.D, s.mesh.RX
	u, v, wv := s.U.Data(), s.V.Data(), s.W.Data()
	var stack [3 * stackElem]float64
	w := elemScratch(&stack, np)
	for e := elo; e < ehi; e++ {
		off := e * np
		ur, us, ut := derivs3(d, nq, a.in[off:off+np:off+np], w)
		ue, ve, we := u[off:off+np:off+np], v[off:off+np:off+np], wv[off:off+np:off+np]
		oe := a.out[off : off+np : off+np]
		for p := range ur {
			r9 := rx[9*p : 9*p+9 : 9*p+9]
			gx := r9[0]*ur[p] + r9[1]*us[p] + r9[2]*ut[p]
			gy := r9[3]*ur[p] + r9[4]*us[p] + r9[5]*ut[p]
			gz := r9[6]*ur[p] + r9[7]*us[p] + r9[8]*ut[p]
			oe[p] = -(ue[p]*gx + ve[p]*gy + we[p]*gz)
		}
	}
}

// divergence computes div(ax, ay, az) pointwise into out; out must not
// alias the inputs.
func (s *Solver) divergence(ax, ay, az, out []float64) {
	s.div = divergenceArgs{ax: ax, ay: ay, az: az, out: out}
	s.kDivergence.Run(s.nelt)
}

func (s *Solver) divergenceElems(elo, ehi int) {
	a := &s.div
	nq, np := s.nq, s.np
	d, rx := s.mesh.D, s.mesh.RX
	var stack [3 * stackElem]float64
	w := elemScratch(&stack, np)
	for e := elo; e < ehi; e++ {
		off := e * np
		oe := a.out[off : off+np : off+np]
		for p := range oe {
			oe[p] = 0
		}
		for comp, field := range [3][]float64{a.ax, a.ay, a.az} {
			ur, us, ut := derivs3(d, nq, field[off:off+np:off+np], w)
			for p := range ur {
				r3 := rx[9*p+3*comp : 9*p+3*comp+3 : 9*p+3*comp+3]
				oe[p] += r3[0]*ur[p] + r3[1]*us[p] + r3[2]*ut[p]
			}
		}
	}
}

// laplacianDiagLocal writes the unassembled diagonal of A_L into
// diag: the reference element's, repeated in every element.
func (s *Solver) laplacianDiagLocal(diag []float64) {
	nq, np := s.nq, s.np
	d, g := s.mesh.D, s.mesh.G
	grr, grs, grt := g[:np], g[np:2*np], g[2*np:3*np]
	gss, gst, gtt := g[3*np:4*np], g[4*np:5*np], g[5*np:]
	for k := 0; k < nq; k++ {
		for j := 0; j < nq; j++ {
			for i := 0; i < nq; i++ {
				p := k*nq*nq + j*nq + i
				var v float64
				// rr: sum_m D[m,i]^2 Grr(m, j, k)
				for m := 0; m < nq; m++ {
					v += d[m*nq+i] * d[m*nq+i] * grr[k*nq*nq+j*nq+m]
				}
				// ss: sum_m D[m,j]^2 Gss(i, m, k)
				for m := 0; m < nq; m++ {
					v += d[m*nq+j] * d[m*nq+j] * gss[k*nq*nq+m*nq+i]
				}
				// tt: sum_m D[m,k]^2 Gtt(i, j, m)
				for m := 0; m < nq; m++ {
					v += d[m*nq+k] * d[m*nq+k] * gtt[m*nq*nq+j*nq+i]
				}
				// cross terms at the point itself.
				v += 2 * d[i*nq+i] * d[j*nq+j] * grs[p]
				v += 2 * d[i*nq+i] * d[k*nq+k] * grt[p]
				v += 2 * d[j*nq+j] * d[k*nq+k] * gst[p]
				diag[p] = v
			}
		}
	}
	for off := np; off < s.n; off += np {
		copy(diag[off:off+np], diag[:np])
	}
}

// buildHelmholtzDiags rebuilds in place the assembled Jacobi diagonals
// of the velocity and scalar Helmholtz operators for b0dt, forming the
// local Laplacian diagonal in scr1 (free where Step calls this).
func (s *Solver) buildHelmholtzDiags(b0dt float64) {
	if s.diagB0 == b0dt {
		return
	}
	local := s.scr1
	s.laplacianDiagLocal(local)
	b := s.mesh.B
	for i := range s.diagHV {
		chi := 0.0
		if s.brink != nil {
			chi = s.brink[i]
		}
		s.diagHV[i] = s.cfg.Nu*local[i] + (b0dt+chi)*b[i]
	}
	s.gsh.Sum(s.diagHV)
	for _, i := range s.dirV {
		s.diagHV[i] = 1
	}
	if s.cfg.Temperature {
		for i := range s.diagHT {
			s.diagHT[i] = s.cfg.Kappa*local[i] + b0dt*b[i]
		}
		s.gsh.Sum(s.diagHT)
		for _, i := range s.dirT {
			s.diagHT[i] = 1
		}
	}
	s.diagB0 = b0dt
}
