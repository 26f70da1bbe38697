package fluid

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"nekrs-sensei/internal/mesh"
	"nekrs-sensei/internal/mpirt"
	"nekrs-sensei/internal/occa"
)

// The reference formulation the fused element kernels must reproduce
// bit for bit: each reference derivative as a sweep over the whole
// mesh into a mesh-sized array (every value starts from zero, or from
// what is there for the transposes, and adds its products in ascending
// contraction index), then pointwise sweeps — the solver's operators
// before they were fused, on naive derivative loops.

// refDeriv applies D (or, accumulating, its transpose) along axis to
// every element of u.
func refDeriv(d []float64, nq int, u, out []float64, axis int, transpose bool) {
	np := nq * nq * nq
	stride := [3]int{1, nq, nq * nq}[axis]
	for off := 0; off < len(u); off += np {
		for p := 0; p < np; p++ {
			idx := [3]int{p % nq, p / nq % nq, p / (nq * nq)}
			base := off + p - idx[axis]*stride
			acc := 0.0
			if transpose {
				acc = out[off+p]
			}
			for m := 0; m < nq; m++ {
				c := d[idx[axis]*nq+m]
				if transpose {
					c = d[m*nq+idx[axis]]
				}
				acc += c * u[base+m*stride]
			}
			out[off+p] = acc
		}
	}
}

type refOps struct {
	s          *Solver
	wr, ws, wt []float64
}

func newRefOps(s *Solver) *refOps {
	return &refOps{s: s, wr: make([]float64, s.n), ws: make([]float64, s.n), wt: make([]float64, s.n)}
}

func (r *refOps) derivs(in []float64) {
	d, nq := r.s.mesh.D, r.s.nq
	refDeriv(d, nq, in, r.wr, 0, false)
	refDeriv(d, nq, in, r.ws, 1, false)
	refDeriv(d, nq, in, r.wt, 2, false)
}

func (r *refOps) laplacian(in, out []float64) {
	s := r.s
	g, np := s.mesh.G, s.np
	r.derivs(in)
	for p := 0; p < s.n; p++ {
		// G is the reference element's six planes: rr, rs, rt, ss, st, tt.
		var g6 [6]float64
		for c := range g6 {
			g6[c] = g[c*np+p%np]
		}
		a, b, c := r.wr[p], r.ws[p], r.wt[p]
		r.wr[p] = g6[0]*a + g6[1]*b + g6[2]*c
		r.ws[p] = g6[1]*a + g6[3]*b + g6[4]*c
		r.wt[p] = g6[2]*a + g6[4]*b + g6[5]*c
	}
	for p := range out {
		out[p] = 0
	}
	refDeriv(s.mesh.D, s.nq, r.wr, out, 0, true)
	refDeriv(s.mesh.D, s.nq, r.ws, out, 1, true)
	refDeriv(s.mesh.D, s.nq, r.wt, out, 2, true)
}

func (r *refOps) helmholtz(in, out []float64, visc, h0 float64, withBrinkman bool) {
	s := r.s
	r.laplacian(in, out)
	b := s.mesh.B
	if visc != 1 {
		for i := range out {
			out[i] *= visc
		}
	}
	if withBrinkman && s.brink != nil {
		for i := range out {
			out[i] += (h0 + s.brink[i]) * b[i] * in[i]
		}
	} else {
		for i := range out {
			out[i] += h0 * b[i] * in[i]
		}
	}
}

func (r *refOps) gradient(in, outx, outy, outz []float64) {
	rx, np := r.s.mesh.RX, r.s.np
	r.derivs(in)
	for p := 0; p < r.s.n; p++ {
		r9 := rx[9*(p%np) : 9*(p%np)+9]
		outx[p] = r9[0]*r.wr[p] + r9[1]*r.ws[p] + r9[2]*r.wt[p]
		outy[p] = r9[3]*r.wr[p] + r9[4]*r.ws[p] + r9[5]*r.wt[p]
		outz[p] = r9[6]*r.wr[p] + r9[7]*r.ws[p] + r9[8]*r.wt[p]
	}
}

func (r *refOps) divergence(ax, ay, az, out []float64) {
	rx, np := r.s.mesh.RX, r.s.np
	for p := range out {
		out[p] = 0
	}
	for comp, field := range [3][]float64{ax, ay, az} {
		r.derivs(field)
		for p := 0; p < r.s.n; p++ {
			r9 := rx[9*(p%np) : 9*(p%np)+9]
			out[p] += r9[3*comp]*r.wr[p] + r9[3*comp+1]*r.ws[p] + r9[3*comp+2]*r.wt[p]
		}
	}
}

func (r *refOps) advect(in, out []float64) {
	s := r.s
	gx, gy, gz := make([]float64, s.n), make([]float64, s.n), make([]float64, s.n)
	r.gradient(in, gx, gy, gz)
	u, v, w := s.U.Data(), s.V.Data(), s.W.Data()
	for i := range out {
		out[i] = -(u[i]*gx[i] + v[i]*gy[i] + w[i]*gz[i])
	}
}

// operatorTestSolver builds a solver of the given order on nelem
// elements whose geometric factors are overwritten with random values,
// so the off-diagonal terms a box mesh leaves at zero take part: the
// one G and RX block every element shares, and B node by node, as the
// kernels index it. The Brinkman field is zero on a third of the nodes.
func operatorTestSolver(t *testing.T, rng *rand.Rand, order, nelem int, dev *occa.Device) *Solver {
	t.Helper()
	m, err := mesh.NewBox(mesh.BoxConfig{Nx: nelem, Ny: 1, Nz: 1, Lx: float64(nelem), Ly: 1, Lz: 1, Order: order}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range [][]float64{m.G, m.RX, m.B} {
		for i := range a {
			a[i] = rng.NormFloat64()
		}
	}
	s, err := NewSolver(Config{
		Mesh: m, Comm: mpirt.NewWorld(1).Comm(0), Dev: dev, Nu: 0.37, Dt: 0.01,
		Brinkman: func(x, y, z float64) float64 { return 1 },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.brink {
		s.brink[i] = 0
		if rng.Intn(3) > 0 {
			s.brink[i] = 1e4 * rng.Float64()
		}
	}
	for _, f := range [][]float64{s.U.Data(), s.V.Data(), s.W.Data()} {
		randomField(rng, f)
	}
	return s
}

// randomField fills f with normal deviates and, like a masked or
// penalised solver field, runs of exact zeros.
func randomField(rng *rand.Rand, f []float64) {
	for i := range f {
		f[i] = rng.NormFloat64()
		if rng.Intn(5) == 0 {
			f[i] = 0
		}
	}
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: [%d] = %v (%#x), reference %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestFusedOperatorsBitIdentical: for Nq 2..12 (generated kernels and
// the generic fallback, stack and heap scratch) the one-pass element
// kernels return exactly the bits of the reference formulation.
func TestFusedOperatorsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for nq := 2; nq <= 12; nq++ {
		t.Run(fmt.Sprintf("nq=%d", nq), func(t *testing.T) {
			s := operatorTestSolver(t, rng, nq-1, 3, occa.NewDevice(occa.CUDA, nil))
			ref := newRefOps(s)
			n := s.n
			in, got, want := make([]float64, n), make([]float64, n), make([]float64, n)
			vec := func() []float64 { return make([]float64, n) }
			randomField(rng, in)

			s.localLaplacian(in, got)
			ref.laplacian(in, want)
			sameBits(t, "localLaplacian", got, want)

			for _, c := range []struct {
				visc, h0 float64
				brinkman bool
			}{{0.37, 150, true}, {0.37, 150, false}, {1, 100, true}} {
				s.helmholtzLocal(in, got, c.visc, c.h0, c.brinkman)
				ref.helmholtz(in, want, c.visc, c.h0, c.brinkman)
				sameBits(t, fmt.Sprintf("helmholtzLocal %+v", c), got, want)
			}

			gx, gy, gz, wx, wy, wz := vec(), vec(), vec(), vec(), vec(), vec()
			s.gradient(in, gx, gy, gz)
			ref.gradient(in, wx, wy, wz)
			sameBits(t, "gradient x", gx, wx)
			sameBits(t, "gradient y", gy, wy)
			sameBits(t, "gradient z", gz, wz)

			s.divergence(gx, gy, in, got)
			ref.divergence(gx, gy, in, want)
			sameBits(t, "divergence", got, want)

			s.advect(in, got)
			ref.advect(in, want)
			sameBits(t, "advect", got, want)
		})
	}
}

// TestKernelsIndependentOfWorkers: a device that splits launches
// across workers gives every invocation its own scratch, so the
// result does not depend on the split.
func TestKernelsIndependentOfWorkers(t *testing.T) {
	for _, order := range []int{6, 9} { // stack scratch and heap scratch
		serial := operatorTestSolver(t, rand.New(rand.NewSource(31)), order, 8, occa.NewDevice(occa.CUDA, nil))
		split := operatorTestSolver(t, rand.New(rand.NewSource(31)), order, 8, occa.NewDeviceWorkers(occa.CUDA, 3, nil))
		in := make([]float64, serial.n)
		randomField(rand.New(rand.NewSource(37)), in)
		a, b := make([]float64, serial.n), make([]float64, serial.n)
		for round := 0; round < 20; round++ {
			serial.helmholtzLocal(in, a, 0.37, 150, true)
			split.helmholtzLocal(in, b, 0.37, 150, true)
			sameBits(t, "helmholtzLocal across workers", b, a)
			serial.divergence(in, a, in, serial.scr2)
			split.divergence(in, b, in, split.scr2)
			sameBits(t, "divergence across workers", split.scr2, serial.scr2)
		}
	}
}

// TestDirichletListMatchesFloatMask: masking with the Dirichlet node
// list (zeroRows) and adding a lift give the bits of the dense forms
// they replaced — v*mask with a 0/1 float mask, and x+bc with an
// all-zero bc when there is no lift — on data holding ±0, ±Inf, NaN
// and values of both signs at free and at Dirichlet nodes.
func TestDirichletListMatchesFloatMask(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const n = 4096
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), -1.5, 2.5, math.SmallestNonzeroFloat64}
	field := func() []float64 {
		f := make([]float64, n)
		randomField(rng, f)
		for i := range f {
			if rng.Intn(3) == 0 {
				f[i] = special[rng.Intn(len(special))]
			}
		}
		return f
	}
	mask := make([]float64, n)
	var dir []int32
	for i := range mask {
		mask[i] = 1
		if rng.Intn(4) == 0 {
			mask[i] = 0
			dir = append(dir, int32(i))
		}
	}
	v, want := field(), make([]float64, n)
	for i := range v {
		want[i] = v[i] * mask[i]
	}
	zeroRows(v, dir)
	sameBits(t, "zeroRows", v, want)

	for _, bc := range [][]float64{field(), nil} {
		dense := bc
		if dense == nil {
			dense = make([]float64, n)
		}
		x, got := field(), make([]float64, n)
		for i := range want {
			want[i] = x[i] + dense[i]
		}
		addLift(got, x, bc)
		sameBits(t, fmt.Sprintf("addLift (lift %v)", bc != nil), got, want)
	}
}
