package mpirt

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func TestRunRankIdentity(t *testing.T) {
	const n = 7
	seen := make([]bool, n)
	var mu sync.Mutex
	Run(n, func(c *Comm) {
		if c.Size() != n {
			t.Errorf("size = %d, want %d", c.Size(), n)
		}
		mu.Lock()
		if seen[c.Rank()] {
			t.Errorf("rank %d seen twice", c.Rank())
		}
		seen[c.Rank()] = true
		mu.Unlock()
	})
	for r, ok := range seen {
		if !ok {
			t.Errorf("rank %d never ran", r)
		}
	}
}

func TestRunErrPropagates(t *testing.T) {
	want := errors.New("rank failure")
	err := RunErr(4, func(c *Comm) error {
		if c.Rank() == 2 {
			return want
		}
		return nil
	})
	if !errors.Is(err, want) {
		t.Fatalf("err = %v, want %v", err, want)
	}
}

func TestAllreduceOps(t *testing.T) {
	const n = 6
	Run(n, func(c *Comm) {
		v := []float64{float64(c.Rank()), -float64(c.Rank())}
		sum := c.AllreduceF64(v, OpSum)
		wantSum := float64(n*(n-1)) / 2
		if sum[0] != wantSum || sum[1] != -wantSum {
			t.Errorf("sum = %v, want [%v %v]", sum, wantSum, -wantSum)
		}
		max := c.AllreduceF64Scalar(float64(c.Rank()), OpMax)
		if max != n-1 {
			t.Errorf("max = %v, want %d", max, n-1)
		}
		min := c.AllreduceF64Scalar(float64(c.Rank()), OpMin)
		if min != 0 {
			t.Errorf("min = %v, want 0", min)
		}
		isum := c.AllreduceI64Scalar(int64(c.Rank()), OpSum)
		if isum != int64(wantSum) {
			t.Errorf("int sum = %d, want %d", isum, int64(wantSum))
		}
		iv := []int64{int64(c.Rank()), -int64(c.Rank())}
		if imax := c.AllreduceI64(iv, OpMax); imax[0] != n-1 || imax[1] != 0 || iv[0] != int64(c.Rank()) {
			t.Errorf("int max = %v (operand now %v), want [%d 0] and the operand untouched", imax, iv, n-1)
		}
	})
}

func TestAllreduceRepeatedCallsStayMatched(t *testing.T) {
	const n = 4
	Run(n, func(c *Comm) {
		for iter := 0; iter < 100; iter++ {
			got := c.AllreduceF64Scalar(float64(iter), OpMax)
			if got != float64(iter) {
				t.Fatalf("iter %d: got %v", iter, got)
			}
		}
	})
}

func TestGatherAndAllgather(t *testing.T) {
	const n = 4
	Run(n, func(c *Comm) {
		mine := []byte{byte(c.Rank() * 10)}
		parts := c.GatherBytes(1, mine)
		mine[0] = 99 // the gathered copy is the root's own
		c.Barrier()
		if c.Rank() == 1 {
			for r := 0; r < n; r++ {
				if len(parts[r]) != 1 || parts[r][0] != byte(r*10) {
					t.Errorf("gather[%d] = %v", r, parts[r])
				}
			}
		} else if parts != nil {
			t.Errorf("non-root got %v", parts)
		}
		// ShareRefs is the allgather: every rank's value, in rank order,
		// on every rank.
		all := make([]interface{}, n)
		c.ShareRefs(int64(c.Rank()), all)
		for r := 0; r < n; r++ {
			if all[r] != int64(r) {
				t.Errorf("allgather[%d] = %v", r, all[r])
			}
		}
	})
}

func TestAlltoall(t *testing.T) {
	const n = 4
	Run(n, func(c *Comm) {
		send := make([][]int64, n)
		for d := 0; d < n; d++ {
			// rank r sends {r, d} to rank d, with varying lengths
			send[d] = []int64{int64(c.Rank()), int64(d)}
			if d == c.Rank() {
				send[d] = append(send[d], 42)
			}
		}
		recv := c.AlltoallI64(send)
		for s := 0; s < n; s++ {
			if recv[s][0] != int64(s) || recv[s][1] != int64(c.Rank()) {
				t.Errorf("recv[%d] = %v", s, recv[s])
			}
		}
		if recv[c.Rank()][2] != 42 {
			t.Errorf("self exchange lost data: %v", recv[c.Rank()])
		}
	})
}

func TestSplit(t *testing.T) {
	const n = 8
	Run(n, func(c *Comm) {
		// Even ranks form one communicator, odd ranks another,
		// ordered by descending world rank via key.
		sub := c.Split(c.Rank()%2, -c.Rank())
		if sub.Size() != n/2 {
			t.Errorf("sub size = %d, want %d", sub.Size(), n/2)
		}
		// Highest world rank in each color gets sub-rank 0 because
		// key = -rank; the max rank is n-2 (even color) or n-1 (odd).
		wantRank := (n - 2 + c.Rank()%2 - c.Rank()) / 2
		if sub.Rank() != wantRank {
			t.Errorf("world rank %d: sub rank = %d, want %d", c.Rank(), sub.Rank(), wantRank)
		}
		// Collectives on the sub-communicator are independent.
		sum := sub.AllreduceF64Scalar(1, OpSum)
		if sum != float64(n/2) {
			t.Errorf("sub allreduce = %v, want %d", sum, n/2)
		}
		// The sub-communicator's ranks are its own: the gather lands on
		// its rank 0, in its rank order (descending world rank).
		parts := sub.GatherBytes(0, []byte{byte(c.Rank())})
		if sub.Rank() == 0 {
			for r, p := range parts {
				if want := n - 2 + c.Rank()%2 - 2*r; int(p[0]) != want {
					t.Errorf("sub gather[%d] = world rank %d, want %d", r, p[0], want)
				}
			}
		}
	})
}

func TestSplitNegativeColor(t *testing.T) {
	Run(4, func(c *Comm) {
		color := 0
		if c.Rank() == 3 {
			color = -1
		}
		sub := c.Split(color, 0)
		if c.Rank() == 3 {
			if sub != nil {
				t.Errorf("negative color should yield nil comm")
			}
			return
		}
		if sub.Size() != 3 {
			t.Errorf("sub size = %d, want 3", sub.Size())
		}
	})
}

// TestAllreduceMatchesSerial is a property test: a distributed sum
// allreduce must equal the serial sum of the same contributions.
func TestAllreduceMatchesSerial(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		n := len(vals)
		if n > 8 {
			n = 8
			vals = vals[:8]
		}
		var serial float64
		for _, v := range vals {
			serial += v
		}
		results := make([]float64, n)
		Run(n, func(c *Comm) {
			results[c.Rank()] = c.AllreduceF64Scalar(vals[c.Rank()], OpSum)
		})
		for _, r := range results {
			if diff := r - serial; diff > 1e-9 || diff < -1e-9 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestCollectiveMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on mismatched collectives")
		}
	}()
	Run(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Barrier()
		} else {
			c.AllreduceF64Scalar(1, OpSum)
		}
	})
}

// TestAllreduceInPlaceBitIdenticalToScalars: on 1, 2 and 3 ranks a
// k-element in-place allreduce returns, on every rank, exactly the bits
// of k scalar allreduces — contributions fold in ascending rank order
// element by element — which is what lets the Krylov solvers ship
// several partial sums in one collective without moving a trajectory.
func TestAllreduceInPlaceBitIdenticalToScalars(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		for _, op := range []Op{OpSum, OpMax, OpMin} {
			Run(n, func(c *Comm) {
				rng := rand.New(rand.NewSource(int64(7 + c.Rank())))
				for iter := 0; iter < 200; iter++ {
					vals := []float64{rng.NormFloat64() * 1e8, rng.NormFloat64(), rng.NormFloat64() * 1e-8}
					var want [3]float64
					for i, v := range vals {
						want[i] = c.AllreduceF64Scalar(v, op)
					}
					// The ascending-rank fold, spelled out.
					all := make([]interface{}, n)
					for i := range vals {
						c.ShareRefs(vals[i], all)
						acc := all[0].(float64)
						for r := 1; r < n; r++ {
							acc = op.combineF64(acc, all[r].(float64))
						}
						if math.Float64bits(acc) != math.Float64bits(want[i]) {
							t.Errorf("%d ranks, %v: scalar allreduce %v, ascending-rank fold %v", n, op, want[i], acc)
						}
					}
					c.AllreduceF64InPlace(vals[:2], op)
					c.AllreduceF64InPlace(vals[2:], op)
					for i := range vals {
						if math.Float64bits(vals[i]) != math.Float64bits(want[i]) {
							t.Errorf("%d ranks, %v, iter %d: in place [%d] = %v, scalar %v", n, op, iter, i, vals[i], want[i])
						}
					}
				}
			})
		}
	}
}

func TestAlltoallInto(t *testing.T) {
	const n = 3
	Run(n, func(c *Comm) {
		send := make([][]float64, n)
		recv := make([][]float64, n)
		for d := 0; d < n; d++ {
			// rank r sends r+d values to rank d (rank 0 none to
			// itself, to cover empty messages).
			send[d] = make([]float64, c.Rank()+d)
			recv[d] = make([]float64, d+c.Rank())
		}
		value := func(round, src, dst, k int) float64 { return float64(1000*round + 100*src + 10*dst + k) }
		for round := 0; round < 50; round++ {
			for d := range send {
				for k := range send[d] {
					send[d][k] = value(round, c.Rank(), d, k)
				}
			}
			c.AlltoallF64Into(send, recv)
			for s := 0; s < n; s++ {
				for k, got := range recv[s] {
					if want := value(round, s, c.Rank(), k); got != want {
						t.Errorf("rank %d round %d: recv[%d][%d] = %v, want %v", c.Rank(), round, s, k, got, want)
					}
				}
			}
		}
	})
}

func TestAlltoallIntoSizeMismatchPanicsEverywhere(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on mismatched alltoall sizes")
		}
	}()
	Run(2, func(c *Comm) {
		send := [][]float64{make([]float64, 2), make([]float64, 2)}
		recv := [][]float64{make([]float64, 2), make([]float64, 2+c.Rank())}
		c.AlltoallF64Into(send, recv)
	})
}

// TestMixedCollectivesReuseTheRendezvous drives the communicator's one
// rendezvous slot through boxed and in-place collectives in turn, on a
// split communicator as well, with ranks arriving in varying order.
func TestMixedCollectivesReuseTheRendezvous(t *testing.T) {
	const n = 4
	Run(n, func(c *Comm) {
		half := c.Split(c.Rank()%2, c.Rank())
		buf := make([]float64, 2)
		refs := make([]interface{}, n)
		for iter := 0; iter < 300; iter++ {
			if (iter+c.Rank())%3 == 0 {
				runtime.Gosched()
			}
			buf[0], buf[1] = float64(c.Rank()), float64(iter)
			c.AllreduceF64InPlace(buf, OpSum)
			if buf[0] != 6 || buf[1] != float64(n*iter) {
				t.Fatalf("iter %d: allreduce = %v", iter, buf)
			}
			c.Barrier()
			if got := c.GatherBytes(iter%n, []byte{byte(c.Rank())}); c.Rank() == iter%n && got[3][0] != 3 {
				t.Fatalf("iter %d: gather = %v", iter, got)
			}
			if got := half.AllreduceF64Scalar(1, OpSum); got != 2 {
				t.Fatalf("iter %d: split allreduce = %v", iter, got)
			}
			c.ShareRefs(c.Rank(), refs)
			if refs[3] != 3 {
				t.Fatalf("iter %d: shared refs = %v", iter, refs)
			}
		}
	})
}

func TestInPlaceCollectivesDoNotAllocate(t *testing.T) {
	c := NewWorld(1).Comm(0)
	buf, ibuf := []float64{1, 2}, []int64{1, 2}
	send, recv := [][]float64{{1, 2, 3}}, [][]float64{make([]float64, 3)}
	refs := make([]interface{}, 1)
	c.SetAttr(attrKey{}, &buf)
	allocs := testing.AllocsPerRun(50, func() {
		c.AllreduceF64InPlace(buf, OpSum)
		_ = c.AllreduceF64Scalar(3, OpMax)
		c.AllreduceI64InPlace(ibuf, OpMax)
		_ = c.AllreduceI64Scalar(3, OpMin)
		c.AlltoallF64Into(send, recv)
		c.ShareRefs(&buf, refs)
		c.Barrier()
		_ = c.Attr(attrKey{})
	})
	if allocs != 0 {
		t.Errorf("in-place collectives allocate %v times per round, want 0", allocs)
	}
}

func TestAllreduceLengthMismatchPanicsEverywhere(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on mismatched allreduce lengths")
		}
	}()
	Run(3, func(c *Comm) {
		c.AllreduceF64InPlace(make([]float64, 1+c.Rank()%2), OpSum)
	})
}

type attrKey struct{}

// TestShareRefs: every rank receives every rank's reference in rank
// order, uncopied — a write a rank makes to its own memory before the
// next collective is what its peers read after it, on a split
// communicator too — and a table of the wrong length is refused.
func TestShareRefs(t *testing.T) {
	const n = 4
	Run(n, func(world *Comm) {
		for _, c := range []*Comm{world, world.Split(world.Rank()%2, world.Rank())} {
			mine := []int{c.Rank(), 0}
			refs := make([]interface{}, c.Size())
			for round := 1; round <= 50; round++ {
				c.ShareRefs(&mine, refs)
				mine[1] = round
				c.Barrier()
				for r, ref := range refs {
					if peer := *ref.(*[]int); peer[0] != r || peer[1] != round {
						t.Errorf("round %d: rank %d sees %v through rank %d's reference", round, c.Rank(), peer, r)
					}
				}
				c.Barrier() // nobody writes round+1 while a peer still reads round
			}
		}
	})
	defer func() {
		if recover() == nil {
			t.Error("expected panic on a reference table of the wrong length")
		}
	}()
	NewWorld(1).Comm(0).ShareRefs(nil, make([]interface{}, 2))
}

// TestCommAttr: attributes are cached per rank handle and per key.
func TestCommAttr(t *testing.T) {
	type otherKey struct{}
	Run(2, func(c *Comm) {
		if c.Attr(attrKey{}) != nil {
			t.Error("attribute set before SetAttr")
		}
		c.SetAttr(attrKey{}, c.Rank())
		c.SetAttr(otherKey{}, "x")
		c.Barrier()
		if c.Attr(attrKey{}) != c.Rank() || c.Attr(otherKey{}) != "x" {
			t.Errorf("rank %d reads %v and %v", c.Rank(), c.Attr(attrKey{}), c.Attr(otherKey{}))
		}
	})
}
