package staging

import (
	"errors"
	"time"
)

// Hub-side session support. A resumable consumer is never closed when
// its connection dies: the server pump parks it instead, and the hub
// retains its cursor, policy window, spill queue, and — crucially —
// its backpressure claim, so a Block consumer's producer stalls
// rather than losing steps while the reader is gone. The binder owns
// the park grace TTL; once it expires the consumer is discarded
// through the normal close path.
//
// Exactly-once across the gap comes from two pieces working together:
// the pump hands the delivered-but-unacked in-flight step back at park
// time (redelivered first on resume, unless the reader's Resume
// ordinal proves the credit was sent before the cut); and a resume
// floor suppresses steps the reader provably consumed. A coded frame
// decodes alone, so the new connection's decoder needs nothing from
// the old one.

// errNextTimeout signals NextTimeout's deadline passing with no step
// available — the pump's cue to emit a heartbeat.
var errNextTimeout = errors.New("staging: next step timeout")

// NextTimeout is Next bounded by d: it returns errNextTimeout when no
// step became deliverable within d, so a network pump can wake up and
// keepalive an idle stream. d <= 0 waits without bound, as Next does.
func (c *Consumer) NextTimeout(d time.Duration) (*StepRef, error) {
	h := c.hub
	deadline := time.Now().Add(d)
	if d > 0 {
		// cond.Wait cannot time out; a one-shot timer broadcasting the
		// hub's condition bounds the wait instead.
		t := time.AfterFunc(d, func() {
			h.mu.Lock()
			h.cond.Broadcast()
			h.mu.Unlock()
		})
		defer t.Stop()
	}
	h.mu.Lock()
	var ref *StepRef
	var err error
	for {
		ref, err = c.tryNextLocked()
		if ref != nil || err != nil {
			break
		}
		if d > 0 && !time.Now().Before(deadline) {
			err = errNextTimeout
			break
		}
		h.cond.Wait()
	}
	h.mu.Unlock()
	return loaded(ref, err)
}

// SimStep reports the delivered step's sim ordinal (the value carried
// in the wire frame), -1 for a spill-tier view not yet read back.
func (r *StepRef) SimStep() int64 {
	if r.e == nil {
		return -1
	}
	return r.e.info.Step
}

// isStructure reports whether the delivered step carries the grid
// structure (structure steps are exempt from resume suppression).
func (r *StepRef) isStructure() bool { return r.e != nil && r.e.info.Structure }

// parkConsumer detaches c's pump without closing the subscription:
// the cursor, window, spill queue, and backpressure claim all stay
// live, and inflight — the delivered-but-unacked step, if any — is
// retained for redelivery. The binder arms the grace TTL. Reports
// whether the consumer was parked (false when already closed — e.g.
// the server aborted — in which case inflight is released here).
func (h *Hub) parkConsumer(c *Consumer, inflight *StepRef) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if c.closed {
		if inflight != nil {
			inflight.releaseLocked()
		}
		return false
	}
	c.parked = true
	if inflight != nil && inflight.released {
		inflight = nil
	}
	c.inflight = inflight
	return true
}

// resumeConsumer reattaches a parked consumer. resume, when > 0, is
// the first sim-step ordinal the reader has NOT consumed: it raises
// the consumer's resume floor and settles the in-flight step (the
// reader's credit was sent before the cut iff the in-flight ordinal
// is below resume).
func (h *Hub) resumeConsumer(c *Consumer, resume int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	c.parked = false
	if resume > c.resumeFloor {
		c.resumeFloor = resume
	}
	if c.inflight != nil {
		sim := c.inflight.SimStep()
		if resume > 0 && sim >= 0 && sim < resume && !c.inflight.isStructure() {
			c.suppressed++
			h.tel.suppressed.Inc()
			c.inflight.releaseLocked()
			c.inflight = nil
		}
	}
	h.cond.Broadcast()
}

// rearmBootstrap re-queues the retained structure step for a resumed
// consumer. Session *adoption* means the old process is gone — and
// with it the decoded grid — so the new reader must receive the
// structure bootstrap again before any data step (token resumes skip
// this: the token only survives inside the process that already holds
// the structure). Structure steps are exempt from resume-floor
// suppression, so the redelivery is never filtered out.
func (h *Hub) rearmBootstrap(c *Consumer) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.bootstrap == nil || c.pendingBootstrap != nil || c.closed {
		return
	}
	c.pendingBootstrap = h.bootstrap
	h.bootstrap.refs++
	h.cond.Broadcast()
}

// discardParked ends a parked session whose grace expired: the
// in-flight step's reference returns and the consumer closes through
// the normal path (undelivered references released, producer
// unblocked).
func (h *Hub) discardParked(c *Consumer) {
	h.mu.Lock()
	defer h.mu.Unlock()
	c.parked = false
	c.closeLocked() // releases inflight too
}

// setResumeFloor installs a fresh subscription's resume position: sim
// steps below floor are suppressed rather than delivered, and the
// shipped-position tracking starts just below it.
func (h *Hub) setResumeFloor(c *Consumer, floor int64) {
	if floor <= 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if floor > c.resumeFloor {
		c.resumeFloor = floor
	}
	if floor-1 > c.lastSim {
		c.lastSim = floor - 1
	}
}

// noteShipped records a credited delivery's sim ordinal — the pump
// calls it once the reader's credit arrived, so nextNeeded is exact.
func (c *Consumer) noteShipped(sim int64) {
	if sim < 0 {
		return
	}
	c.hub.mu.Lock()
	if sim > c.lastSim {
		c.lastSim = sim
	}
	c.hub.mu.Unlock()
}

// nextNeeded reports the first sim-step ordinal this consumer's
// reader has not yet acknowledged — what a restarted relay passes
// upstream as its own Resume.
func (c *Consumer) nextNeeded() int64 {
	n := c.lastSim + 1
	if c.resumeFloor > n {
		n = c.resumeFloor
	}
	if n < 0 {
		n = 0
	}
	return n
}

// NextNeeded is nextNeeded under the hub lock, for external callers.
func (c *Consumer) NextNeeded() int64 {
	c.hub.mu.Lock()
	defer c.hub.mu.Unlock()
	return c.nextNeeded()
}
