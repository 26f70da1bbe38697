package mesh

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"nekrs-sensei/internal/mpirt"
)

func TestFactor3Products(t *testing.T) {
	for _, size := range []int{1, 2, 3, 4, 6, 8, 12, 16} {
		px, py, pz, err := Factor3(size, 8, 8, 8)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if px*py*pz != size {
			t.Errorf("size %d: %d*%d*%d != %d", size, px, py, pz, size)
		}
	}
}

func TestFactor3Impossible(t *testing.T) {
	if _, _, _, err := Factor3(8, 1, 1, 1); err == nil {
		t.Error("expected error partitioning 1 element over 8 ranks")
	}
}

func TestSplitRangeCoversAll(t *testing.T) {
	for _, tc := range []struct{ n, p int }{{10, 3}, {7, 7}, {5, 2}, {4, 1}} {
		prev := 0
		for i := 0; i < tc.p; i++ {
			lo, hi := splitRange(tc.n, tc.p, i)
			if lo != prev {
				t.Errorf("n=%d p=%d part %d: lo=%d, want %d", tc.n, tc.p, i, lo, prev)
			}
			if hi < lo {
				t.Errorf("empty-negative range")
			}
			prev = hi
		}
		if prev != tc.n {
			t.Errorf("n=%d p=%d: covered %d", tc.n, tc.p, prev)
		}
	}
}

func TestBoxVolumeSerial(t *testing.T) {
	cfg := BoxConfig{Nx: 3, Ny: 2, Nz: 2, Lx: 2, Ly: 1.5, Lz: 1, Order: 4}
	m, err := NewBox(cfg, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.Lx * cfg.Ly * cfg.Lz
	if got := m.LocalVolume(); math.Abs(got-want) > 1e-12 {
		t.Errorf("volume = %v, want %v", got, want)
	}
	if m.Nelt != 12 {
		t.Errorf("Nelt = %d, want 12", m.Nelt)
	}
}

func TestBoxVolumeParallel(t *testing.T) {
	cfg := BoxConfig{Nx: 4, Ny: 4, Nz: 2, Lx: 1, Ly: 1, Lz: 1, Order: 3}
	const size = 4
	mpirt.Run(size, func(c *mpirt.Comm) {
		m, err := NewBox(cfg, c.Rank(), size)
		if err != nil {
			t.Error(err)
			return
		}
		total := c.AllreduceF64Scalar(m.LocalVolume(), mpirt.OpSum)
		if math.Abs(total-1) > 1e-12 {
			t.Errorf("global volume = %v, want 1", total)
		}
		nelt := c.AllreduceI64Scalar(int64(m.Nelt), mpirt.OpSum)
		if nelt != int64(m.NeltGlobal) {
			t.Errorf("element sum = %d, want %d", nelt, m.NeltGlobal)
		}
	})
}

// TestGlobalIDsMatchCoordinates: nodes sharing a global id must have
// identical physical coordinates (up to periodic wrapping).
func TestGlobalIDsMatchCoordinates(t *testing.T) {
	cfg := BoxConfig{Nx: 3, Ny: 3, Nz: 3, Lx: 1, Ly: 1, Lz: 1, Order: 3}
	m, err := NewBox(cfg, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	coord := make(map[int64][3]float64)
	for i, id := range m.GlobalID {
		c := [3]float64{m.X[i], m.Y[i], m.Z[i]}
		if prev, ok := coord[id]; ok {
			for a := 0; a < 3; a++ {
				if math.Abs(prev[a]-c[a]) > 1e-12 {
					t.Fatalf("gid %d at both %v and %v", id, prev, c)
				}
			}
		} else {
			coord[id] = c
		}
	}
	// Expected unique count: (Nx*N+1)^3.
	wantUnique := 10 * 10 * 10
	if len(coord) != wantUnique {
		t.Errorf("unique gids = %d, want %d", len(coord), wantUnique)
	}
}

func TestPeriodicWrapIdentifiesFaces(t *testing.T) {
	cfg := BoxConfig{Nx: 4, Ny: 3, Nz: 3, Lx: 1, Ly: 1, Lz: 1, Order: 2, Periodic: [3]bool{true, false, false}}
	m, err := NewBox(cfg, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Unique ids: (Nx*N)(NyN+1)(NzN+1).
	ids := make(map[int64]bool)
	for _, id := range m.GlobalID {
		ids[id] = true
	}
	want := (4 * 2) * (3*2 + 1) * (3*2 + 1)
	if len(ids) != want {
		t.Errorf("unique gids = %d, want %d", len(ids), want)
	}
	// A node at x=0 must share its gid with the matching node at x=Lx.
	byID := make(map[int64][]int)
	for i, id := range m.GlobalID {
		byID[id] = append(byID[id], i)
	}
	found := false
	for _, idxs := range byID {
		var has0, hasL bool
		for _, i := range idxs {
			if m.X[i] == 0 {
				has0 = true
			}
			if math.Abs(m.X[i]-1) < 1e-12 {
				hasL = true
			}
		}
		if has0 && hasL {
			found = true
			break
		}
	}
	if !found {
		t.Error("no gid spans the periodic x faces")
	}
}

func TestPeriodicNeedsThreeElements(t *testing.T) {
	cfg := BoxConfig{Nx: 2, Ny: 3, Nz: 3, Lx: 1, Ly: 1, Lz: 1, Order: 2, Periodic: [3]bool{true, false, false}}
	if _, err := NewBox(cfg, 0, 1); err == nil {
		t.Error("expected error for 2-element periodic axis")
	}
}

func TestBoundaryNodes(t *testing.T) {
	cfg := BoxConfig{Nx: 2, Ny: 2, Nz: 2, Lx: 1, Ly: 1, Lz: 1, Order: 3}
	m, err := NewBox(cfg, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []Face{XMin, XMax, YMin, YMax, ZMin, ZMax} {
		nodes := m.BoundaryNodes(f)
		// 4 face elements x Nq^2 nodes each.
		if want := 4 * 16; len(nodes) != want {
			t.Errorf("%v: %d nodes, want %d", f, len(nodes), want)
		}
		for _, i := range nodes {
			var coord, want float64
			switch f {
			case XMin, XMax:
				coord = m.X[i]
			case YMin, YMax:
				coord = m.Y[i]
			case ZMin, ZMax:
				coord = m.Z[i]
			}
			if f == XMax || f == YMax || f == ZMax {
				want = 1
			}
			if math.Abs(coord-want) > 1e-12 {
				t.Errorf("%v node %d at coord %v, want %v", f, i, coord, want)
			}
		}
	}
}

func TestBoundaryNodesEmptyOnPeriodicAxis(t *testing.T) {
	cfg := BoxConfig{Nx: 3, Ny: 3, Nz: 3, Lx: 1, Ly: 1, Lz: 1, Order: 2, Periodic: [3]bool{true, false, true}}
	m, err := NewBox(cfg, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n := m.BoundaryNodes(XMin); n != nil {
		t.Errorf("periodic x should have no boundary, got %d nodes", len(n))
	}
	if n := m.BoundaryNodes(YMin); len(n) == 0 {
		t.Error("non-periodic y should have boundary nodes")
	}
	if n := m.BoundaryNodes(ZMax); n != nil {
		t.Errorf("periodic z should have no boundary, got %d nodes", len(n))
	}
}

// TestGeometricFactorsAffine: for an axis-aligned box the metric is
// diagonal and constant, and one reference element's factors serve
// every element.
func TestGeometricFactorsAffine(t *testing.T) {
	cfg := BoxConfig{Nx: 2, Ny: 1, Nz: 1, Lx: 2, Ly: 1, Lz: 4, Order: 3}
	m, err := NewBox(cfg, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < m.NumNodes(); p++ {
		// dx/dr = hx/2 = 0.5, dy/ds = 0.5, dz/dt = 2 -> J = 0.5.
		q := p % m.Np
		nq := m.Nq
		w := m.Weights1D[q%nq] * m.Weights1D[q/nq%nq] * m.Weights1D[q/(nq*nq)]
		if want := 0.5 * w; math.Abs(m.B[p]-want) > 1e-12*want {
			t.Fatalf("B[%d] = %v, want w*J = %v", p, m.B[p], want)
		}
		// rx = 2, sy = 2, tz = 0.5; off-diagonals zero.
		r9 := m.RX[9*q : 9*q+9]
		want := [9]float64{2, 0, 0, 0, 2, 0, 0, 0, 0.5}
		for a := 0; a < 9; a++ {
			if math.Abs(r9[a]-want[a]) > 1e-12 {
				t.Fatalf("RX[%d][%d] = %v, want %v", q, a, r9[a], want[a])
			}
		}
		// G is six planes: rr, rs, rt, ss, st, tt.
		var g6 [6]float64
		for c := range g6 {
			g6[c] = m.G[c*m.Np+q]
		}
		if math.Abs(g6[1]) > 1e-14 || math.Abs(g6[2]) > 1e-14 || math.Abs(g6[4]) > 1e-14 {
			t.Fatalf("off-diagonal G nonzero at %d: %v", q, g6)
		}
		// Grr = w*J*rx^2, Gss = w*J*sy^2, Gtt = w*J*tz^2.
		for c, scale := range map[int]float64{0: 4, 3: 4, 5: 0.25} {
			if want := m.B[p] * scale; math.Abs(g6[c]-want) > 1e-12*want {
				t.Fatalf("G[%d] at %d = %v, want %v", c, q, g6[c], want)
			}
		}
	}
}

func TestPartitionDisjointCover(t *testing.T) {
	cfg := BoxConfig{Nx: 4, Ny: 3, Nz: 5, Lx: 1, Ly: 1, Lz: 1, Order: 1}
	const size = 6
	seen := make(map[int64]int)
	for r := 0; r < size; r++ {
		m, err := NewBox(cfg, r, size)
		if err != nil {
			t.Fatal(err)
		}
		for _, ge := range m.GlobalElemIDs {
			seen[ge]++
		}
	}
	if len(seen) != 60 {
		t.Errorf("covered %d elements, want 60", len(seen))
	}
	for ge, cnt := range seen {
		if cnt != 1 {
			t.Errorf("element %d owned by %d ranks", ge, cnt)
		}
	}
}

func TestMinSpacingPositive(t *testing.T) {
	cfg := BoxConfig{Nx: 3, Ny: 3, Nz: 3, Lx: 1, Ly: 2, Lz: 3, Order: 7}
	m, err := NewBox(cfg, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := m.MinSpacing()
	if h <= 0 || h > 1.0/3 {
		t.Errorf("MinSpacing = %v", h)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []BoxConfig{
		{Nx: 0, Ny: 1, Nz: 1, Lx: 1, Ly: 1, Lz: 1, Order: 2},
		{Nx: 1, Ny: 1, Nz: 1, Lx: 1, Ly: 1, Lz: 1, Order: 0},
		{Nx: 1, Ny: 1, Nz: 1, Lx: -1, Ly: 1, Lz: 1, Order: 2},
	}
	for i, cfg := range bad {
		if _, err := NewBox(cfg, 0, 1); err == nil {
			t.Errorf("config %d: expected error", i)
		}
	}
}

// TestPartitionCoverProperty: any valid (config, size) pair produces a
// disjoint cover of the global element set with correct volumes.
func TestPartitionCoverProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := BoxConfig{
			Nx: 1 + rng.Intn(5), Ny: 1 + rng.Intn(5), Nz: 1 + rng.Intn(5),
			Lx: 0.5 + rng.Float64(), Ly: 0.5 + rng.Float64(), Lz: 0.5 + rng.Float64(),
			Order: 1 + rng.Intn(3),
		}
		size := 1 + rng.Intn(6)
		if _, _, _, err := Factor3(size, cfg.Nx, cfg.Ny, cfg.Nz); err != nil {
			return true // unpartitionable combination: nothing to check
		}
		seen := map[int64]bool{}
		var vol float64
		for r := 0; r < size; r++ {
			m, err := NewBox(cfg, r, size)
			if err != nil {
				return false
			}
			for _, ge := range m.GlobalElemIDs {
				if seen[ge] {
					return false
				}
				seen[ge] = true
			}
			vol += m.LocalVolume()
		}
		want := cfg.Lx * cfg.Ly * cfg.Lz
		return len(seen) == cfg.Nx*cfg.Ny*cfg.Nz && math.Abs(vol-want) < 1e-9*want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
