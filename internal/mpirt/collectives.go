package mpirt

import (
	"fmt"
	"sort"
)

// Op is a reduction operator for Reduce/Allreduce.
type Op int

// Supported reduction operators.
const (
	OpSum Op = iota
	OpMax
	OpMin
)

func (o Op) String() string {
	switch o {
	case OpSum:
		return "sum"
	case OpMax:
		return "max"
	case OpMin:
		return "min"
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

func (o Op) combineF64(a, b float64) float64 {
	switch o {
	case OpSum:
		return a + b
	case OpMax:
		if b > a {
			return b
		}
		return a
	case OpMin:
		if b < a {
			return b
		}
		return a
	}
	panic("mpirt: unknown op")
}

func (o Op) combineI64(a, b int64) int64 {
	switch o {
	case OpSum:
		return a + b
	case OpMax:
		if b > a {
			return b
		}
		return a
	case OpMin:
		if b < a {
			return b
		}
		return a
	}
	panic("mpirt: unknown op")
}

// AllreduceF64 element-wise reduces vals across all ranks with op and
// returns the reduced vector on every rank. All ranks must pass vectors
// of equal length.
func (c *Comm) AllreduceF64(vals []float64, op Op) []float64 {
	out := append([]float64(nil), vals...)
	c.AllreduceF64InPlace(out, op)
	return out
}

// AllreduceF64InPlace is AllreduceF64 that overwrites vals with the
// reduced vector and allocates nothing: the solver's inner products
// and the Krylov solvers' fused multi-sum reductions call it several
// times per iteration. Contributions combine in ascending rank order,
// element by element, so reducing k values in one call gives exactly
// the bits of k scalar reductions.
func (c *Comm) AllreduceF64InPlace(vals []float64, op Op) {
	rv := c.rv
	rv.mu.Lock()
	last := c.arrive("allreduce-f64")
	rv.f64[c.rank] = vals
	if !last {
		c.await()
		return
	}
	acc := append(rv.acc[:0], rv.f64[0]...)
	for r := 1; r < len(rv.f64); r++ {
		v := rv.f64[r]
		if len(v) != len(acc) {
			c.fail(fmt.Sprintf("mpirt: allreduce length mismatch: rank %d has %d values, rank 0 has %d", r, len(v), len(acc)))
		}
		for i := range acc {
			acc[i] = op.combineF64(acc[i], v[i])
		}
	}
	for r := range rv.f64 {
		copy(rv.f64[r], acc)
		rv.f64[r] = nil
	}
	rv.acc = acc
	c.release()
	rv.mu.Unlock()
}

// AllreduceF64Scalar reduces one float64 across all ranks.
func (c *Comm) AllreduceF64Scalar(v float64, op Op) float64 {
	c.scalar[0] = v
	c.AllreduceF64InPlace(c.scalar[:], op)
	return c.scalar[0]
}

// AllreduceI64 element-wise reduces int64 vectors across all ranks.
func (c *Comm) AllreduceI64(vals []int64, op Op) []int64 {
	out := append([]int64(nil), vals...)
	c.AllreduceI64InPlace(out, op)
	return out
}

// AllreduceI64InPlace is AllreduceI64 that overwrites vals with the
// reduced vector and allocates nothing — AllreduceF64InPlace's int64
// twin: the endpoint step loop agrees on a status and a step number
// several times per step.
func (c *Comm) AllreduceI64InPlace(vals []int64, op Op) {
	rv := c.rv
	rv.mu.Lock()
	last := c.arrive("allreduce-i64")
	rv.i64[c.rank] = vals
	if !last {
		c.await()
		return
	}
	acc := append(rv.accI64[:0], rv.i64[0]...)
	for r := 1; r < len(rv.i64); r++ {
		v := rv.i64[r]
		if len(v) != len(acc) {
			c.fail(fmt.Sprintf("mpirt: allreduce length mismatch: rank %d has %d values, rank 0 has %d", r, len(v), len(acc)))
		}
		for i := range acc {
			acc[i] = op.combineI64(acc[i], v[i])
		}
	}
	for r := range rv.i64 {
		copy(rv.i64[r], acc)
		rv.i64[r] = nil
	}
	rv.accI64 = acc
	c.release()
	rv.mu.Unlock()
}

// AllreduceI64Scalar reduces one int64 across all ranks.
func (c *Comm) AllreduceI64Scalar(v int64, op Op) int64 {
	c.scalarI64[0] = v
	c.AllreduceI64InPlace(c.scalarI64[:], op)
	return c.scalarI64[0]
}

// GatherBytes gathers each rank's byte slice to root in rank order.
func (c *Comm) GatherBytes(root int, b []byte) [][]byte {
	cp := make([]byte, len(b))
	copy(cp, b)
	res := c.joinCollective("gather-bytes", cp, func(contrib []interface{}) interface{} {
		out := make([][]byte, len(contrib))
		for r, v := range contrib {
			out[r] = v.([]byte)
		}
		return out
	})
	if c.rank != root {
		return nil
	}
	return res.([][]byte)
}

// AlltoallI64 performs a personalized all-to-all exchange: send[d] goes
// to rank d; the returned recv[s] is what rank s sent here. Used by the
// gather-scatter setup rendezvous.
func (c *Comm) AlltoallI64(send [][]int64) [][]int64 {
	if len(send) != len(c.group) {
		panic(fmt.Sprintf("mpirt: alltoall needs %d send buffers, got %d", len(c.group), len(send)))
	}
	cp := make([][]int64, len(send))
	for i, s := range send {
		cp[i] = append([]int64(nil), s...)
	}
	res := c.joinCollective("alltoall-i64", cp, func(contrib []interface{}) interface{} {
		n := len(contrib)
		// transposed[dst][src] = contrib[src][dst]
		out := make([][][]int64, n)
		for d := 0; d < n; d++ {
			out[d] = make([][]int64, n)
			for s := 0; s < n; s++ {
				out[d][s] = contrib[s].([][]int64)[d]
			}
		}
		return out
	})
	mine := res.([][][]int64)[c.rank]
	out := make([][]int64, len(mine))
	for s, v := range mine {
		out[s] = append([]int64(nil), v...)
	}
	return out
}

// AlltoallF64Into performs a personalized all-to-all exchange of
// float64 vectors between buffers the caller owns, the data-movement
// pattern of a gather-scatter operation: send[d] is copied into rank
// d's recv[c.Rank()], whose length must match. Nothing is allocated,
// and when the call returns every copy out of send has been made, so
// the caller may refill it at once.
func (c *Comm) AlltoallF64Into(send, recv [][]float64) {
	n := len(c.group)
	if len(send) != n || len(recv) != n {
		panic(fmt.Sprintf("mpirt: alltoall needs %d send and receive buffers, got %d and %d", n, len(send), len(recv)))
	}
	rv := c.rv
	rv.mu.Lock()
	last := c.arrive("alltoall-f64-into")
	rv.send[c.rank], rv.recv[c.rank] = send, recv
	if !last {
		c.await()
		return
	}
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			from, to := rv.send[src][dst], rv.recv[dst][src]
			if len(from) != len(to) {
				c.fail(fmt.Sprintf("mpirt: alltoall size mismatch: rank %d sends %d values to rank %d, which expects %d", src, len(from), dst, len(to)))
			}
			copy(to, from)
		}
	}
	for r := 0; r < n; r++ {
		rv.send[r], rv.recv[r] = nil, nil
	}
	c.release()
	rv.mu.Unlock()
}

// ShareRefs is the runtime's shared-memory window (MPI_Win_allocate_
// shared and MPI_Win_shared_query in one call): every rank deposits one
// reference — a pointer, or a small struct of them — and receives all
// of them in rank order in refs, which must have Size() entries. What a
// reference points at is not copied: afterwards ranks read and write
// each other's memory directly, and which rank may touch which part,
// and until when, is the callers' protocol. The runtime orders memory
// only at its own calls: what a rank wrote before a collective is
// visible to every rank after it, so such a protocol separates a write
// from a peer's access to the same memory by ShareRefs, Barrier or any
// other collective. Nothing is allocated.
func (c *Comm) ShareRefs(mine interface{}, refs []interface{}) {
	n := len(c.group)
	if len(refs) != n {
		panic(fmt.Sprintf("mpirt: ShareRefs needs room for %d references, got %d", n, len(refs)))
	}
	rv := c.rv
	rv.mu.Lock()
	last := c.arrive("share-refs")
	rv.contrib[c.rank], rv.refs[c.rank] = mine, refs
	if !last {
		c.await()
		return
	}
	for r := 0; r < n; r++ {
		copy(rv.refs[r], rv.contrib)
	}
	for r := 0; r < n; r++ {
		rv.contrib[r], rv.refs[r] = nil, nil
	}
	c.release()
	rv.mu.Unlock()
}

// splitReq is one rank's (color, key) contribution to Split.
type splitReq struct {
	color, key, rank int
}

// splitResult is what Split's reduction hands every rank.
type splitResult struct {
	groups map[int][]int
	rvs    map[int]*rendezvous
}

// Split partitions the communicator by color, ordering ranks within each
// new communicator by (key, old rank), like MPI_Comm_split. Ranks
// passing a negative color receive nil.
func (c *Comm) Split(color, key int) *Comm {
	req := splitReq{color: color, key: key, rank: c.rank}
	res := c.joinCollective("split", req, func(contrib []interface{}) interface{} {
		byColor := make(map[int][]splitReq)
		for _, v := range contrib {
			r := v.(splitReq)
			if r.color >= 0 {
				byColor[r.color] = append(byColor[r.color], r)
			}
		}
		colors := make([]int, 0, len(byColor))
		for col := range byColor {
			colors = append(colors, col)
		}
		sort.Ints(colors)
		groups := make(map[int][]int)    // color -> old ranks in new order
		rvs := make(map[int]*rendezvous) // color -> the new communicator's meeting point
		for _, col := range colors {
			reqs := byColor[col]
			sort.Slice(reqs, func(i, j int) bool {
				if reqs[i].key != reqs[j].key {
					return reqs[i].key < reqs[j].key
				}
				return reqs[i].rank < reqs[j].rank
			})
			g := make([]int, len(reqs))
			for i, r := range reqs {
				g[i] = r.rank
			}
			groups[col] = g
			rvs[col] = newRendezvous(len(g))
		}
		return splitResult{groups, rvs}
	})
	if color < 0 {
		return nil
	}
	sr := res.(splitResult)
	oldGroup := sr.groups[color]
	newRank := -1
	group := make([]int, len(oldGroup))
	for i, old := range oldGroup {
		group[i] = c.group[old] // translate to world ranks
		if old == c.rank {
			newRank = i
		}
	}
	return &Comm{rv: sr.rvs[color], rank: newRank, group: group}
}
