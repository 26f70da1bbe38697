// Package mesh builds hexahedral spectral-element meshes, their global
// (C0) node numbering, rank partitioning, and the geometric factors
// required by the weak operators. Axis-aligned box meshes with optional
// per-axis periodicity cover all cases in the paper's evaluation: the
// pb146 pebble bed (an immersed-geometry box) and the Rayleigh-Bénard
// mesoscale box. Every element of such a mesh is the same brick,
// shifted, so the factors are those of one reference element.
package mesh

import (
	"fmt"
	"math"

	"nekrs-sensei/internal/tensor"
)

// BoxConfig describes a global tensor-product box mesh.
type BoxConfig struct {
	Nx, Ny, Nz int     // global element counts per axis
	Lx, Ly, Lz float64 // domain extents; the box is [0,Lx]x[0,Ly]x[0,Lz]
	Order      int     // polynomial order N (Nq = N+1 GLL points per axis)
	Periodic   [3]bool // per-axis periodicity
}

// Face identifies one face of the global box.
type Face int

// The six box faces.
const (
	XMin Face = iota
	XMax
	YMin
	YMax
	ZMin
	ZMax
)

func (f Face) String() string {
	return [...]string{"XMin", "XMax", "YMin", "YMax", "ZMin", "ZMax"}[f]
}

// Axis reports the axis (0,1,2) the face is normal to.
func (f Face) Axis() int { return int(f) / 2 }

// Mesh is one rank's partition of the global mesh together with the
// spectral operators and geometric factors evaluated on it.
type Mesh struct {
	Cfg  BoxConfig
	Rank int
	Size int

	Nq         int // points per direction (Order+1)
	Np         int // points per element (Nq^3)
	Nelt       int // local element count
	NeltGlobal int

	// Partition: rank grid dimensions and this rank's block of whole
	// elements [EX0,EX1) x [EY0,EY1) x [EZ0,EZ1) in global element
	// coordinates.
	PX, PY, PZ    int
	EX0, EX1      int
	EY0, EY1      int
	EZ0, EZ1      int
	ElemIdx       [][3]int // local element -> global (ex,ey,ez)
	GlobalElemIDs []int64  // local element -> global element id

	// 1D operators on the reference interval [-1,1].
	Nodes1D   []float64
	Weights1D []float64
	D         []float64 // Nq x Nq differentiation matrix, row-major

	// Nodal coordinates, length Nelt*Np, indexed e*Np + k*Nq*Nq + j*Nq + i.
	X, Y, Z []float64

	// GlobalID is the C0 global node numbering (shared across element
	// and rank boundaries, wrapped across periodic faces).
	GlobalID []int64

	// Geometric factors. G and RX belong to the reference element and
	// serve every element; B is per node.
	//   G:  the weak Laplacian's D^T G D metric, scaled by w*J, as six
	//       planes of Np values: G[c*Np + p] with c = 0..5 for Grr, Grs,
	//       Grt, Gss, Gst, Gtt, which is what tensor.Metric takes.
	//   RX: 9 per point, interleaved (rx, sx, tx, ry, sy, ty, rz, sz,
	//       tz), for physical gradients: RX[9*p : 9*p+9].
	//   B:  quadrature mass w*J (unassembled diagonal mass matrix),
	//       length Nelt*Np, the reference element's w*J in every element.
	G  []float64
	RX []float64
	B  []float64
}

// Factor3 splits size into a (px, py, pz) rank grid with px*py*pz ==
// size, each factor bounded by the corresponding element count, chosen
// to minimize the sum of block surface areas (communication volume).
func Factor3(size, nx, ny, nz int) (px, py, pz int, err error) {
	best := -1.0
	for p := 1; p <= size; p++ {
		if size%p != 0 || p > nx {
			continue
		}
		rem := size / p
		for q := 1; q <= rem; q++ {
			if rem%q != 0 || q > ny {
				continue
			}
			r := rem / q
			if r > nz {
				continue
			}
			// Blocks of shape (nx/p, ny/q, nz/r): smaller surface-to-
			// volume is better.
			bx, by, bz := float64(nx)/float64(p), float64(ny)/float64(q), float64(nz)/float64(r)
			surf := bx*by + by*bz + bx*bz
			if best < 0 || surf < best {
				best = surf
				px, py, pz = p, q, r
			}
		}
	}
	if best < 0 {
		return 0, 0, 0, fmt.Errorf("mesh: cannot partition %dx%dx%d elements over %d ranks", nx, ny, nz, size)
	}
	return px, py, pz, nil
}

// splitRange divides n items over p parts and returns the [lo,hi) range
// of part i, distributing remainders to the leading parts.
func splitRange(n, p, i int) (lo, hi int) {
	base := n / p
	rem := n % p
	lo = i*base + min(i, rem)
	hi = lo + base
	if i < rem {
		hi++
	}
	return lo, hi
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// NewBox builds rank's partition of the global box mesh described by
// cfg, for a communicator of the given size.
func NewBox(cfg BoxConfig, rank, size int) (*Mesh, error) {
	if cfg.Nx < 1 || cfg.Ny < 1 || cfg.Nz < 1 {
		return nil, fmt.Errorf("mesh: element counts must be positive, got %dx%dx%d", cfg.Nx, cfg.Ny, cfg.Nz)
	}
	if cfg.Order < 1 {
		return nil, fmt.Errorf("mesh: order must be >= 1, got %d", cfg.Order)
	}
	if cfg.Lx <= 0 || cfg.Ly <= 0 || cfg.Lz <= 0 {
		return nil, fmt.Errorf("mesh: domain extents must be positive")
	}
	for ax, per := range cfg.Periodic {
		n := []int{cfg.Nx, cfg.Ny, cfg.Nz}[ax]
		if per && n < 3 {
			return nil, fmt.Errorf("mesh: periodic axis %d needs >= 3 elements, got %d", ax, n)
		}
	}
	px, py, pz, err := Factor3(size, cfg.Nx, cfg.Ny, cfg.Nz)
	if err != nil {
		return nil, err
	}
	m := &Mesh{Cfg: cfg, Rank: rank, Size: size, PX: px, PY: py, PZ: pz}
	m.Nq = cfg.Order + 1
	m.Np = m.Nq * m.Nq * m.Nq
	m.NeltGlobal = cfg.Nx * cfg.Ny * cfg.Nz

	rx := rank % px
	ry := (rank / px) % py
	rz := rank / (px * py)
	m.EX0, m.EX1 = splitRange(cfg.Nx, px, rx)
	m.EY0, m.EY1 = splitRange(cfg.Ny, py, ry)
	m.EZ0, m.EZ1 = splitRange(cfg.Nz, pz, rz)
	m.Nelt = (m.EX1 - m.EX0) * (m.EY1 - m.EY0) * (m.EZ1 - m.EZ0)

	m.Nodes1D, m.Weights1D = tensor.GLL(m.Nq)
	m.D = tensor.DerivMatrix(m.Nodes1D)

	m.buildElements()
	m.buildGlobalIDs()
	m.buildGeometricFactors()
	return m, nil
}

// buildElements fills element indices and nodal coordinates.
func (m *Mesh) buildElements() {
	cfg := m.Cfg
	nq := m.Nq
	m.ElemIdx = make([][3]int, 0, m.Nelt)
	m.GlobalElemIDs = make([]int64, 0, m.Nelt)
	n := m.Nelt * m.Np
	m.X = make([]float64, n)
	m.Y = make([]float64, n)
	m.Z = make([]float64, n)

	hx := cfg.Lx / float64(cfg.Nx)
	hy := cfg.Ly / float64(cfg.Ny)
	hz := cfg.Lz / float64(cfg.Nz)

	e := 0
	for ez := m.EZ0; ez < m.EZ1; ez++ {
		for ey := m.EY0; ey < m.EY1; ey++ {
			for ex := m.EX0; ex < m.EX1; ex++ {
				m.ElemIdx = append(m.ElemIdx, [3]int{ex, ey, ez})
				m.GlobalElemIDs = append(m.GlobalElemIDs,
					int64(ez)*int64(cfg.Nx)*int64(cfg.Ny)+int64(ey)*int64(cfg.Nx)+int64(ex))
				base := e * m.Np
				for k := 0; k < nq; k++ {
					z := (float64(ez) + (m.Nodes1D[k]+1)/2) * hz
					for j := 0; j < nq; j++ {
						y := (float64(ey) + (m.Nodes1D[j]+1)/2) * hy
						for i := 0; i < nq; i++ {
							x := (float64(ex) + (m.Nodes1D[i]+1)/2) * hx
							idx := base + k*nq*nq + j*nq + i
							m.X[idx] = x
							m.Y[idx] = y
							m.Z[idx] = z
						}
					}
				}
				e++
			}
		}
	}
}

// buildGlobalIDs assigns the C0 global node numbering on the global GLL
// lattice, wrapping indices across periodic axes.
func (m *Mesh) buildGlobalIDs() {
	cfg := m.Cfg
	nq := m.Nq
	N := cfg.Order

	// Lattice point counts per axis.
	npx := cfg.Nx*N + 1
	npy := cfg.Ny*N + 1
	npz := cfg.Nz*N + 1
	if cfg.Periodic[0] {
		npx--
	}
	if cfg.Periodic[1] {
		npy--
	}
	if cfg.Periodic[2] {
		npz--
	}

	lattice := func(e int, axis int, local int) int64 {
		g := m.ElemIdx[e][axis]*N + local
		switch axis {
		case 0:
			if cfg.Periodic[0] {
				g %= npx
			}
		case 1:
			if cfg.Periodic[1] {
				g %= npy
			}
		case 2:
			if cfg.Periodic[2] {
				g %= npz
			}
		}
		return int64(g)
	}

	m.GlobalID = make([]int64, m.Nelt*m.Np)
	for e := 0; e < m.Nelt; e++ {
		base := e * m.Np
		for k := 0; k < nq; k++ {
			gz := lattice(e, 2, k)
			for j := 0; j < nq; j++ {
				gy := lattice(e, 1, j)
				for i := 0; i < nq; i++ {
					gx := lattice(e, 0, i)
					m.GlobalID[base+k*nq*nq+j*nq+i] = (gz*int64(npy)+gy)*int64(npx) + gx
				}
			}
		}
	}
}

// buildGeometricFactors computes the inverse metrics, quadrature mass
// and symmetric G tensor of the reference element from its local
// coordinates, (ξ+1)/2·h along each axis. J = hx*hy*hz/8 is positive
// because NewBox validated the extents.
func (m *Mesh) buildGeometricFactors() {
	cfg := m.Cfg
	nq := m.Nq
	np := m.Np
	hx := cfg.Lx / float64(cfg.Nx)
	hy := cfg.Ly / float64(cfg.Ny)
	hz := cfg.Lz / float64(cfg.Nz)
	m.G = make([]float64, 6*np)
	m.RX = make([]float64, 9*np)
	m.B = make([]float64, m.Nelt*np)

	xe := make([]float64, np)
	ye := make([]float64, np)
	ze := make([]float64, np)
	for p := range xe {
		i, j, k := p%nq, (p/nq)%nq, p/(nq*nq)
		xe[p] = (m.Nodes1D[i] + 1) / 2 * hx
		ye[p] = (m.Nodes1D[j] + 1) / 2 * hy
		ze[p] = (m.Nodes1D[k] + 1) / 2 * hz
		m.B[p] = m.Weights1D[i] * m.Weights1D[j] * m.Weights1D[k] // w, times J below
	}
	xr := make([]float64, np)
	xs := make([]float64, np)
	xt := make([]float64, np)
	yr := make([]float64, np)
	ys := make([]float64, np)
	yt := make([]float64, np)
	zr := make([]float64, np)
	zs := make([]float64, np)
	zt := make([]float64, np)
	tensor.DerivR(m.D, nq, xe, xr)
	tensor.DerivS(m.D, nq, xe, xs)
	tensor.DerivT(m.D, nq, xe, xt)
	tensor.DerivR(m.D, nq, ye, yr)
	tensor.DerivS(m.D, nq, ye, ys)
	tensor.DerivT(m.D, nq, ye, yt)
	tensor.DerivR(m.D, nq, ze, zr)
	tensor.DerivS(m.D, nq, ze, zs)
	tensor.DerivT(m.D, nq, ze, zt)

	for p := 0; p < np; p++ {
		J := xr[p]*(ys[p]*zt[p]-yt[p]*zs[p]) -
			xs[p]*(yr[p]*zt[p]-yt[p]*zr[p]) +
			xt[p]*(yr[p]*zs[p]-ys[p]*zr[p])
		inv := 1 / J
		rx := (ys[p]*zt[p] - yt[p]*zs[p]) * inv
		ry := (xt[p]*zs[p] - xs[p]*zt[p]) * inv
		rzv := (xs[p]*yt[p] - xt[p]*ys[p]) * inv
		sx := (yt[p]*zr[p] - yr[p]*zt[p]) * inv
		sy := (xr[p]*zt[p] - xt[p]*zr[p]) * inv
		sz := (xt[p]*yr[p] - xr[p]*yt[p]) * inv
		tx := (yr[p]*zs[p] - ys[p]*zr[p]) * inv
		ty := (xs[p]*zr[p] - xr[p]*zs[p]) * inv
		tz := (xr[p]*ys[p] - xs[p]*yr[p]) * inv

		wJ := m.B[p] * J
		m.B[p] = wJ

		r9 := m.RX[9*p : 9*p+9]
		r9[0], r9[1], r9[2] = rx, sx, tx
		r9[3], r9[4], r9[5] = ry, sy, ty
		r9[6], r9[7], r9[8] = rzv, sz, tz

		ge := m.G[p:]
		ge[0] = wJ * (rx*rx + ry*ry + rzv*rzv)   // Grr
		ge[np] = wJ * (rx*sx + ry*sy + rzv*sz)   // Grs
		ge[2*np] = wJ * (rx*tx + ry*ty + rzv*tz) // Grt
		ge[3*np] = wJ * (sx*sx + sy*sy + sz*sz)  // Gss
		ge[4*np] = wJ * (sx*tx + sy*ty + sz*tz)  // Gst
		ge[5*np] = wJ * (tx*tx + ty*ty + tz*tz)  // Gtt
	}
	for e := 1; e < m.Nelt; e++ {
		copy(m.B[e*np:(e+1)*np], m.B[:np])
	}
}

// LocalVolume integrates 1 over this rank's elements (sum of B).
func (m *Mesh) LocalVolume() float64 {
	var v float64
	for _, b := range m.B {
		v += b
	}
	return v
}

// MinSpacing returns the smallest nodal spacing on this rank, the
// length scale used in CFL estimates.
func (m *Mesh) MinSpacing() float64 {
	// The tightest spacing is between the first two GLL nodes of the
	// shortest element edge.
	cfg := m.Cfg
	h := math.Min(cfg.Lx/float64(cfg.Nx), math.Min(cfg.Ly/float64(cfg.Ny), cfg.Lz/float64(cfg.Nz)))
	return h * (m.Nodes1D[1] - m.Nodes1D[0]) / 2
}

// NumNodes reports the local (unassembled) node count Nelt*Np.
func (m *Mesh) NumNodes() int { return m.Nelt * m.Np }

// BoundaryNodes returns the local node indices lying on the given
// global box face. Periodic axes have no boundary; the result is empty.
func (m *Mesh) BoundaryNodes(f Face) []int {
	if m.Cfg.Periodic[f.Axis()] {
		return nil
	}
	nq := m.Nq
	var out []int
	for e := 0; e < m.Nelt; e++ {
		ei := m.ElemIdx[e]
		onFace := false
		var fixIdx, fixVal int
		switch f {
		case XMin:
			onFace = ei[0] == 0
			fixIdx, fixVal = 0, 0
		case XMax:
			onFace = ei[0] == m.Cfg.Nx-1
			fixIdx, fixVal = 0, nq-1
		case YMin:
			onFace = ei[1] == 0
			fixIdx, fixVal = 1, 0
		case YMax:
			onFace = ei[1] == m.Cfg.Ny-1
			fixIdx, fixVal = 1, nq-1
		case ZMin:
			onFace = ei[2] == 0
			fixIdx, fixVal = 2, 0
		case ZMax:
			onFace = ei[2] == m.Cfg.Nz-1
			fixIdx, fixVal = 2, nq-1
		}
		if !onFace {
			continue
		}
		base := e * m.Np
		for k := 0; k < nq; k++ {
			if fixIdx == 2 && k != fixVal {
				continue
			}
			for j := 0; j < nq; j++ {
				if fixIdx == 1 && j != fixVal {
					continue
				}
				for i := 0; i < nq; i++ {
					if fixIdx == 0 && i != fixVal {
						continue
					}
					out = append(out, base+k*nq*nq+j*nq+i)
				}
			}
		}
	}
	return out
}
