package gs

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"nekrs-sensei/internal/mesh"
	"nekrs-sensei/internal/mpirt"
)

// serialReference computes, for each (rank, index), the op-combination
// of all values sharing that entry's gid across all ranks.
func serialReference(gids [][]int64, vals [][]float64, op Op) [][]float64 {
	acc := make(map[int64]float64)
	init := make(map[int64]bool)
	for r := range gids {
		for i, id := range gids[r] {
			if !init[id] {
				acc[id] = vals[r][i]
				init[id] = true
			} else {
				acc[id] = op.combine(acc[id], vals[r][i])
			}
		}
	}
	out := make([][]float64, len(gids))
	for r := range gids {
		out[r] = make([]float64, len(gids[r]))
		for i, id := range gids[r] {
			out[r][i] = acc[id]
		}
	}
	return out
}

// orderedReference spells out the order of combination Apply promises
// (and the map-and-slices implementation it replaced had): a node's
// copies on one rank combine in ascending local index; when several
// ranks hold the node, the owner starts from the identity and folds
// those per-rank partials in ascending rank.
func orderedReference(gids [][]int64, vals [][]float64, op Op) [][]float64 {
	type partial struct {
		rank int
		v    float64
	}
	partials := make(map[int64][]partial)
	for r := range gids {
		seen := make(map[int64]int) // gid -> index into partials[gid]
		for i, id := range gids[r] {
			if k, ok := seen[id]; ok {
				partials[id][k].v = op.combine(partials[id][k].v, vals[r][i])
			} else {
				seen[id] = len(partials[id])
				partials[id] = append(partials[id], partial{r, vals[r][i]})
			}
		}
	}
	total := make(map[int64]float64, len(partials))
	for id, ps := range partials {
		if len(ps) == 1 {
			total[id] = ps[0].v
			continue
		}
		acc := op.identity()
		for _, p := range ps { // appended in ascending rank
			acc = op.combine(acc, p.v)
		}
		total[id] = acc
	}
	out := make([][]float64, len(gids))
	for r := range gids {
		out[r] = make([]float64, len(gids[r]))
		for i, id := range gids[r] {
			out[r][i] = total[id]
		}
	}
	return out
}

// syntheticIDs returns id maps for size ranks in which a rank holds
// each of 300 gids 0 to 9 times, at shuffled positions: local and
// shared groups of every size from 1 to 9.
func syntheticIDs(rng *rand.Rand, size int) [][]int64 {
	gids := make([][]int64, size)
	for id := int64(0); id < 300; id++ {
		for r := range gids {
			for c := rng.Intn(10); c > 0; c-- {
				gids[r] = append(gids[r], id)
			}
		}
	}
	for _, ids := range gids {
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	}
	return gids
}

// TestApplyBitIdenticalToOrderedReference: on the node numbering of a
// real mesh and on a synthetic id map whose groups fill every bucket
// and the remainder, split over 1, 2 and 3 ranks, every op returns
// exactly the bits the documented order of combination gives —
// including repeated calls on the reused exchange buffers.
func TestApplyBitIdenticalToOrderedReference(t *testing.T) {
	cfg := mesh.BoxConfig{Nx: 3, Ny: 2, Nz: 3, Lx: 1, Ly: 1, Lz: 1, Order: 3, Periodic: [3]bool{false, false, true}}
	rng := rand.New(rand.NewSource(17))
	for _, size := range []int{1, 2, 3} {
		meshIDs := make([][]int64, size)
		for r := range meshIDs {
			m, err := mesh.NewBox(cfg, r, size)
			if err != nil {
				t.Fatal(err)
			}
			meshIDs[r] = m.GlobalID
		}
		checkOrdered(t, rng, "mesh", meshIDs, false)
		checkOrdered(t, rng, "synthetic", syntheticIDs(rng, size), true)
	}
}

// checkOrdered runs every op three times on random values over gids
// and compares each result with orderedReference, bit for bit. With
// everyBucket, each rank's fixed-stride buckets and remainder must all
// hold groups.
func checkOrdered(t *testing.T, rng *rand.Rand, name string, gids [][]int64, everyBucket bool) {
	t.Helper()
	size := len(gids)
	const rounds = 3
	vals := make([][][]float64, rounds)
	for k := range vals {
		vals[k] = make([][]float64, size)
		for r := range gids {
			vals[k][r] = make([]float64, len(gids[r]))
			for i := range vals[k][r] {
				vals[k][r][i] = rng.NormFloat64()
				if rng.Intn(6) == 0 {
					vals[k][r][i] = 0
				}
			}
		}
	}
	for _, op := range []Op{OpSum, OpMin, OpMax} {
		got := make([][][]float64, rounds)
		for k := range got {
			got[k] = make([][]float64, size)
		}
		mpirt.Run(size, func(c *mpirt.Comm) {
			g := New(c, gids[c.Rank()])
			if everyBucket {
				for j, idx := range g.copies.fixed {
					if len(idx) == 0 {
						t.Errorf("%s, %d ranks: rank %d has no group of %d copies", name, size, c.Rank(), bucketSizes[j])
					}
				}
				if g.copies.rest.count() == 0 {
					t.Errorf("%s, %d ranks: rank %d has no group in the remainder", name, size, c.Rank())
				}
			}
			for k := 0; k < rounds; k++ {
				u := append([]float64(nil), vals[k][c.Rank()]...)
				g.Apply(u, op)
				got[k][c.Rank()] = u
			}
		})
		for k := 0; k < rounds; k++ {
			want := orderedReference(gids, vals[k], op)
			for r := range want {
				for i := range want[r] {
					if math.Float64bits(got[k][r][i]) != math.Float64bits(want[r][i]) {
						t.Fatalf("%s, %d ranks, op %d, round %d: rank %d node %d = %v, reference %v",
							name, size, op, k, r, i, got[k][r][i], want[r][i])
					}
				}
			}
		}
	}
}

// TestApplyDoesNotAllocate: the exchange runs on the buffers New built,
// on one rank and, through the shared path, on two.
func TestApplyDoesNotAllocate(t *testing.T) {
	cfg := mesh.BoxConfig{Nx: 2, Ny: 2, Nz: 2, Lx: 1, Ly: 1, Lz: 1, Order: 3}
	for _, size := range []int{1, 2} {
		mpirt.Run(size, func(c *mpirt.Comm) {
			m, err := mesh.NewBox(cfg, c.Rank(), size)
			if err != nil {
				t.Error(err)
				return
			}
			g := New(c, m.GlobalID)
			u := make([]float64, m.NumNodes())
			if c.Rank() != 0 {
				// AllocsPerRun calls once to warm up, then runs times.
				for i := 0; i < 21; i++ {
					g.Sum(u)
				}
				return
			}
			// The count is the process's: both ranks' calls.
			if allocs := testing.AllocsPerRun(20, func() { g.Sum(u) }); allocs != 0 {
				t.Errorf("%d rank(s): Sum allocates %v times per call, want 0", size, allocs)
			}
		})
	}
}

func runGS(t *testing.T, gids [][]int64, vals [][]float64, op Op) [][]float64 {
	t.Helper()
	n := len(gids)
	out := make([][]float64, n)
	mpirt.Run(n, func(c *mpirt.Comm) {
		g := New(c, gids[c.Rank()])
		u := append([]float64(nil), vals[c.Rank()]...)
		g.Apply(u, op)
		out[c.Rank()] = u
	})
	return out
}

func TestSumSingleRankDuplicates(t *testing.T) {
	gids := [][]int64{{5, 7, 5, 9, 7, 5}}
	vals := [][]float64{{1, 2, 3, 4, 5, 6}}
	got := runGS(t, gids, vals, OpSum)
	want := serialReference(gids, vals, OpSum)
	for i := range want[0] {
		if got[0][i] != want[0][i] {
			t.Errorf("u[%d] = %v, want %v", i, got[0][i], want[0][i])
		}
	}
	// gid 5 appears 3 times: 1+3+6 = 10.
	if got[0][0] != 10 {
		t.Errorf("gid 5 sum = %v, want 10", got[0][0])
	}
}

func TestSumAcrossRanks(t *testing.T) {
	gids := [][]int64{
		{0, 1, 2},
		{2, 3, 4},
		{4, 5, 0},
	}
	vals := [][]float64{
		{1, 10, 100},
		{1000, 2, 20},
		{200, 3, 7},
	}
	got := runGS(t, gids, vals, OpSum)
	want := serialReference(gids, vals, OpSum)
	for r := range want {
		for i := range want[r] {
			if got[r][i] != want[r][i] {
				t.Errorf("rank %d u[%d] = %v, want %v", r, i, got[r][i], want[r][i])
			}
		}
	}
}

func TestMinMaxOps(t *testing.T) {
	gids := [][]int64{
		{1, 2, 1},
		{2, 1, 3},
	}
	vals := [][]float64{
		{5, -2, 8},
		{4, 0, 7},
	}
	gotMin := runGS(t, gids, vals, OpMin)
	wantMin := serialReference(gids, vals, OpMin)
	gotMax := runGS(t, gids, vals, OpMax)
	wantMax := serialReference(gids, vals, OpMax)
	for r := range gids {
		for i := range gids[r] {
			if gotMin[r][i] != wantMin[r][i] {
				t.Errorf("min rank %d[%d] = %v, want %v", r, i, gotMin[r][i], wantMin[r][i])
			}
			if gotMax[r][i] != wantMax[r][i] {
				t.Errorf("max rank %d[%d] = %v, want %v", r, i, gotMax[r][i], wantMax[r][i])
			}
		}
	}
}

func TestMaxIsIdempotent(t *testing.T) {
	gids := [][]int64{{1, 2, 3, 1}, {2, 3, 4, 4}}
	vals := [][]float64{{4, 3, 2, 1}, {9, 8, 7, 6}}
	once := runGS(t, gids, vals, OpMax)
	twice := runGS(t, gids, once, OpMax)
	for r := range once {
		for i := range once[r] {
			if once[r][i] != twice[r][i] {
				t.Errorf("max not idempotent at rank %d[%d]", r, i)
			}
		}
	}
}

// TestSumMatchesSerialProperty: random gid layouts across 2-5 ranks
// must match the serial reference exactly.
func TestSumMatchesSerialProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ranks := 2 + rng.Intn(4)
		gids := make([][]int64, ranks)
		vals := make([][]float64, ranks)
		for r := range gids {
			n := 1 + rng.Intn(20)
			gids[r] = make([]int64, n)
			vals[r] = make([]float64, n)
			for i := range gids[r] {
				gids[r][i] = int64(rng.Intn(15))
				vals[r][i] = float64(rng.Intn(100))
			}
		}
		got := runGS(t, gids, vals, OpSum)
		want := serialReference(gids, vals, OpSum)
		for r := range want {
			for i := range want[r] {
				if math.Abs(got[r][i]-want[r][i]) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestMeshMultiplicity: on a 2x2x2 box the central lattice node is
// shared by 8 elements, so its multiplicity must be 8 regardless of the
// rank layout.
func TestMeshMultiplicity(t *testing.T) {
	cfg := mesh.BoxConfig{Nx: 2, Ny: 2, Nz: 2, Lx: 1, Ly: 1, Lz: 1, Order: 2}
	for _, size := range []int{1, 2, 4, 8} {
		mpirt.Run(size, func(c *mpirt.Comm) {
			m, err := mesh.NewBox(cfg, c.Rank(), size)
			if err != nil {
				t.Error(err)
				return
			}
			g := New(c, m.GlobalID)
			mult := g.Multiplicity()
			var found8 bool
			for i, mv := range mult {
				// Node at domain center has coords (0.5, 0.5, 0.5).
				if math.Abs(m.X[i]-0.5) < 1e-12 && math.Abs(m.Y[i]-0.5) < 1e-12 && math.Abs(m.Z[i]-0.5) < 1e-12 {
					if mv != 8 {
						t.Errorf("size %d: center multiplicity = %v, want 8", size, mv)
					}
					found8 = true
				}
			}
			// Only ranks owning a center-adjacent element see it.
			hasCenter := c.AllreduceF64Scalar(b2f(found8), mpirt.OpMax)
			if hasCenter != 1 {
				t.Errorf("size %d: no rank found the center node", size)
			}
			// Global weighted count of unique nodes: sum over all
			// copies of 1/multiplicity equals the unique lattice size.
			var local float64
			for _, mv := range mult {
				local += 1 / mv
			}
			unique := c.AllreduceF64Scalar(local, mpirt.OpSum)
			if want := 5.0 * 5 * 5; math.Abs(unique-want) > 1e-9 {
				t.Errorf("size %d: unique nodes = %v, want %v", size, unique, want)
			}
		})
	}
}

// TestAssembledFieldIsContinuous: after gs.Sum of a random field scaled
// by 1/mult, all copies of each gid hold identical values.
func TestAssembledFieldIsContinuous(t *testing.T) {
	cfg := mesh.BoxConfig{Nx: 3, Ny: 2, Nz: 2, Lx: 1, Ly: 1, Lz: 1, Order: 3, Periodic: [3]bool{true, false, false}}
	const size = 3
	mpirt.Run(size, func(c *mpirt.Comm) {
		m, err := mesh.NewBox(cfg, c.Rank(), size)
		if err != nil {
			t.Error(err)
			return
		}
		g := New(c, m.GlobalID)
		rng := rand.New(rand.NewSource(int64(c.Rank())))
		u := make([]float64, m.NumNodes())
		for i := range u {
			u[i] = rng.Float64()
		}
		g.Sum(u)
		// Verify continuity: same gid -> same value, locally and globally.
		local := make(map[int64]float64)
		for i, id := range m.GlobalID {
			if prev, ok := local[id]; ok {
				if prev != u[i] {
					t.Errorf("gid %d has values %v and %v on rank %d", id, prev, u[i], c.Rank())
				}
			} else {
				local[id] = u[i]
			}
		}
		// Cross-rank: serialize (gid, value) pairs to rank 0.
		ids := make([]float64, 0, len(local))
		for id, v := range local {
			ids = append(ids, float64(id), v)
		}
		all := make([]interface{}, c.Size())
		c.ShareRefs(ids, all)
		if c.Rank() == 0 {
			global := make(map[int64]float64)
			for _, ref := range all {
				pairs := ref.([]float64)
				for p := 0; p < len(pairs); p += 2 {
					id, v := int64(pairs[p]), pairs[p+1]
					if prev, ok := global[id]; ok && prev != v {
						t.Errorf("gid %d differs across ranks: %v vs %v", id, prev, v)
					}
					global[id] = v
				}
			}
		}
	})
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func TestLengthMismatchPanics(t *testing.T) {
	mpirt.Run(1, func(c *mpirt.Comm) {
		g := New(c, []int64{1, 2, 3})
		defer func() {
			if recover() == nil {
				t.Error("expected panic on length mismatch")
			}
		}()
		g.Sum(make([]float64, 2))
	})
}
