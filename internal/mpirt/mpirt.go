// Package mpirt is an in-process message-passing runtime that stands in
// for MPI in the reproduction. Ranks run as goroutines inside one
// process and communicate through collectives, matched by
// per-communicator call sequence exactly like MPI's ordering rule.
//
// The paper's experiments ran on 280-1120 MPI ranks across Polaris and
// JUWELS Booster nodes; here the same communication structure (halo
// exchange, reductions, gather for image compositing) executes on
// scaled-down rank counts with real concurrency. See DESIGN.md for the
// substitution rationale.
package mpirt

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// World is the global communicator context: its size and the world
// communicator's collective rendezvous.
type World struct {
	size int
	rv   *rendezvous
}

// rendezvous is a communicator's collective meeting point, shared by
// the Comm handles of all its ranks and reused by every collective on
// that communicator. MPI's ordering rule — all ranks call the same
// collectives in the same order — means at most one collective per
// communicator is in flight, so one slot per communicator suffices: a
// rank arriving for the next collective while a peer is still waking
// from the previous one only touches its own deposit slots, and the
// next collective cannot complete (and overwrite result) before that
// peer has arrived for it too.
type rendezvous struct {
	mu   sync.Mutex
	cond *sync.Cond

	gen      atomic.Uint64 // collectives completed so far
	arrived  int           // ranks inside the current one
	kind     string        // what the first arriver called
	poisoned string        // non-empty once a rank detected a mismatch

	// Generic collectives: boxed payloads in, one shared result out.
	contrib []interface{}
	result  interface{}

	// In-place collectives: every rank deposits the slices it wants
	// read and filled, the last arriver does all the copying, and no
	// rank reads the slot after it wakes. acc is the reduction
	// scratch, grown on demand.
	f64        [][]float64
	i64        [][]int64
	send, recv [][][]float64
	acc        []float64
	accI64     []int64
	refs       [][]interface{} // ShareRefs: where each rank wants the table
}

func newRendezvous(size int) *rendezvous {
	rv := &rendezvous{
		contrib: make([]interface{}, size),
		f64:     make([][]float64, size),
		i64:     make([][]int64, size),
		send:    make([][][]float64, size),
		recv:    make([][][]float64, size),
		refs:    make([][]interface{}, size),
	}
	rv.cond = sync.NewCond(&rv.mu)
	return rv
}

// NewWorld creates a world with n ranks. Use World.Comm or Run.
func NewWorld(n int) *World {
	if n <= 0 {
		panic("mpirt: world size must be positive")
	}
	return &World{size: n, rv: newRendezvous(n)}
}

// Size reports the number of ranks in the world.
func (w *World) Size() int { return w.size }

// Comm returns the world communicator handle for the given rank.
func (w *World) Comm(rank int) *Comm {
	if rank < 0 || rank >= w.size {
		panic(fmt.Sprintf("mpirt: rank %d out of range [0,%d)", rank, w.size))
	}
	group := make([]int, w.size)
	for i := range group {
		group[i] = i
	}
	return &Comm{rv: w.rv, rank: rank, group: group}
}

// Run spawns n ranks as goroutines, each executing body with its world
// communicator, and waits for all to finish. A panic in any rank is
// re-raised on the caller with the rank attached.
func Run(n int, body func(c *Comm)) {
	if err := RunErr(n, func(c *Comm) error {
		body(c)
		return nil
	}); err != nil {
		panic(err)
	}
}

// RunErr is Run for bodies that can fail; the first non-nil error (by
// rank order) is returned after all ranks complete.
func RunErr(n int, body func(c *Comm) error) error {
	w := NewWorld(n)
	errs := make([]error, n)
	panics := make([]interface{}, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panics[rank] = p
				}
			}()
			errs[rank] = body(w.Comm(rank))
		}(r)
	}
	wg.Wait()
	for r, p := range panics {
		if p != nil {
			panic(fmt.Sprintf("mpirt: rank %d panicked: %v", r, p))
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Comm is one rank's handle on a communicator. Comm values are not safe
// for concurrent use by multiple goroutines (matching MPI semantics,
// where a communicator is driven by its owning rank).
type Comm struct {
	rv    *rendezvous // shared with the communicator's other ranks
	rank  int         // rank within this communicator
	group []int       // communicator rank -> world rank

	scalar    [1]float64 // AllreduceF64Scalar's operand
	scalarI64 [1]int64   // AllreduceI64Scalar's operand

	attrs map[interface{}]interface{} // this rank's cached attributes
}

// Attr returns what this rank cached on its communicator handle under
// key, or nil — MPI's attribute caching (MPI_Comm_get_attr): the place
// a library keeps per-communicator state, such as collective scratch
// buffers, that has to outlive one call without a global table. Keys
// follow context.WithValue's rule: an unexported type of the caching
// package.
func (c *Comm) Attr(key interface{}) interface{} { return c.attrs[key] }

// SetAttr caches val on this rank's communicator handle under key.
func (c *Comm) SetAttr(key, val interface{}) {
	if c.attrs == nil {
		c.attrs = make(map[interface{}]interface{})
	}
	c.attrs[key] = val
}

// Rank reports this rank's index within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size reports the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.group) }

// arrive registers this rank in the communicator's current collective
// and reports whether it is the last to arrive. The caller holds
// c.rv.mu. A rank that finds its peers in a different collective
// fails the rendezvous.
func (c *Comm) arrive(kind string) (last bool) {
	rv := c.rv
	if rv.poisoned != "" {
		c.fail(rv.poisoned)
	}
	if rv.arrived > 0 && rv.kind != kind {
		c.fail(fmt.Sprintf("mpirt: collective mismatch at collective %d: rank %d called %s, others called %s",
			rv.gen.Load(), c.rank, kind, rv.kind))
	}
	rv.kind = kind
	rv.arrived++
	return rv.arrived == len(c.group)
}

// fail reports a program error in a collective (ranks disagree on
// which one they are in, or on its shape): it poisons the rendezvous,
// so peers blocked in await — and any that arrive later — panic too
// instead of deadlocking, and panics. The caller holds c.rv.mu.
func (c *Comm) fail(msg string) {
	c.rv.poisoned = msg
	c.rv.cond.Broadcast()
	c.rv.mu.Unlock()
	panic(msg)
}

// release completes the current collective: called by the last
// arriver, holding c.rv.mu, once every rank's result is in place.
func (c *Comm) release() {
	rv := c.rv
	rv.arrived = 0
	rv.gen.Add(1)
	rv.cond.Broadcast()
}

// awaitSpins is how many scheduler yields a rank spends polling for
// the collective's completion before it parks on the condition
// variable. A solver's ranks reach a collective within microseconds of
// each other several hundred times per step; parking puts the thread
// to sleep, and waking it costs tens of microseconds on the critical
// path — measured on the two-rank pb146 order-6 solver, 84-97 ms per
// step parking at once against 51-68 ms polling first (200 yields gave
// 60-73 ms, 5000 no more than 1000). Yielding rather than busy-waiting
// hands the processor to any other runnable goroutine first, so the
// budget bounds yields, not time taken from others.
const awaitSpins = 1000

// await blocks a rank that arrived early until the last arriver has
// released the collective. The caller holds c.rv.mu; await returns
// without it. What the last arriver wrote before release — this
// rank's buffers, rv.result — is visible after await returns, and
// stays untouched until this rank has arrived at the next collective.
func (c *Comm) await() {
	rv := c.rv
	gen := rv.gen.Load()
	rv.mu.Unlock()
	for i := 0; i < awaitSpins; i++ {
		if rv.gen.Load() != gen {
			return
		}
		runtime.Gosched()
	}
	rv.mu.Lock()
	for rv.gen.Load() == gen && rv.poisoned == "" {
		rv.cond.Wait()
	}
	released, msg := rv.gen.Load() != gen, rv.poisoned
	rv.mu.Unlock()
	if !released {
		panic(msg)
	}
}

// joinCollective matches this rank's next collective call with its
// peers', contributes payload, and blocks until the shared result has
// been computed via reduce.
//
// reduce runs exactly once, on the last arriving rank, over contributions
// indexed by communicator rank.
func (c *Comm) joinCollective(kind string, payload interface{}, reduce func(contrib []interface{}) interface{}) interface{} {
	rv := c.rv
	rv.mu.Lock()
	last := c.arrive(kind)
	rv.contrib[c.rank] = payload
	if !last {
		c.await()
		return rv.result
	}
	res := reduce(rv.contrib)
	for i := range rv.contrib {
		rv.contrib[i] = nil
	}
	rv.result = res
	c.release()
	rv.mu.Unlock()
	return res
}

// Barrier blocks until every rank in the communicator has entered it.
func (c *Comm) Barrier() {
	c.joinCollective("barrier", nil, func([]interface{}) interface{} { return nil })
}
