package staging

import (
	"fmt"
	"io"
	"sync"
)

// This file implements consumer groups: one logical consumer name
// claimed by R cooperating readers (the ranks of a parallel endpoint).
// The hub sees a single cursor — one subscription, one backpressure
// window, one drop decision per step — and every member receives every
// delivered step, in the same order, under one reference count. That
// shared-sequence guarantee is what lets endpoint ranks run matched
// MPI-style collectives per step without deadlocking: a step is either
// delivered to all R members or shed for all of them.
//
// Mechanically, the group wraps a base Consumer (the hub-facing
// cursor, visible in Stats) with a delivery log: the first member to
// need a new step pulls it through the base cursor and appends it to
// the log; every member walks the log at its own index; the base's hub
// reference is returned when the last member releases its view.

// groupState is the shared state of one consumer group. Guarded by
// the owning hub's mutex.
type groupState struct {
	base    *Consumer
	members []*Consumer
	active  int // open members

	log      []*groupEntry
	logStart int64 // delivery index of log[0]
	pulling  bool  // a member is advancing the base cursor

	done bool  // base reached end-of-stream (or failed)
	err  error // io.EOF on a clean end
}

// groupEntry is one step in the group's delivery log, holding the
// base's hub reference until every member has released its view.
type groupEntry struct {
	ref       *StepRef
	remaining int
}

// SubscribeGroup attaches one logical consumer backed by size member
// readers: the hub treats the group as a single subscriber (one
// cursor, one policy window, one entry in Stats), and each published
// step is delivered to all members under one reference count. The
// returned members are independent handles — hand one to each
// endpoint rank; each is single-reader like a plain Consumer.
func (h *Hub) SubscribeGroup(name string, policy Policy, depth, size int) ([]*Consumer, error) {
	base, err := h.Subscribe(name, policy, depth)
	if err != nil {
		return nil, err
	}
	members, err := h.GroupConsumer(base, size)
	if err != nil {
		base.Close()
		return nil, err
	}
	return members, nil
}

// GroupConsumer converts an existing subscription into the base
// cursor of a consumer group of the given size, returning the member
// handles. Used when the subscription pre-dates the group request —
// a consumer pre-declared in the staging XML keeps its cursor (and
// thus loses no steps) when the first group reader claims it. The
// base must not be read directly after this call.
func (h *Hub) GroupConsumer(base *Consumer, size int) ([]*Consumer, error) {
	if size < 1 {
		return nil, fmt.Errorf("staging: group size %d < 1", size)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if base.closed {
		return nil, errConsumerClosed
	}
	if base.grp != nil {
		return nil, fmt.Errorf("staging: consumer %q is already a group member", base.name)
	}
	if base.policy == Spill {
		// The group log already re-delivers through the base cursor;
		// layering the spill queue's out-of-ring deliveries under it
		// would need per-member disk reads the log cannot express.
		return nil, fmt.Errorf("staging: consumer %q: spill policy is not supported for consumer groups", base.name)
	}
	gs := &groupState{base: base, active: size}
	members := make([]*Consumer, size)
	for i := range members {
		members[i] = &Consumer{
			hub: h, name: base.name, policy: base.policy, depth: base.depth,
			arrays: base.arrays, grp: gs, grpClaimed: true,
			// Each member carries the base's codec binding with its own
			// wire chain: members are separate connections, so each
			// receiver needs its own keyframe/chain bookkeeping.
			codecs: base.codecs, spec: base.spec, hasCodec: base.hasCodec,
			formKey: base.formKey, stream: base.stream, wirePrev: -1,
		}
	}
	gs.members = members
	return members, nil
}

// nextMemberLocked delivers member c's next step from the group log,
// pulling through the base cursor when the log is exhausted. Caller
// holds h.mu.
func (g *groupState) nextMemberLocked(c *Consumer) (*StepRef, error) {
	h := c.hub
	for {
		if c.closed {
			return nil, errConsumerClosed
		}
		pos := c.grpIdx - g.logStart
		if pos < 0 {
			// Cannot happen while the trim invariant holds (entries are
			// only trimmed once fully released, i.e. delivered to every
			// live member); recover by resyncing to the log head.
			pos = 0
			c.grpIdx = g.logStart
		}
		if pos < int64(len(g.log)) {
			ge := g.log[pos]
			c.grpIdx++
			c.delivered++
			return &StepRef{hub: h, e: ge.ref.e, arrays: c.arrays, cons: c, ge: ge, grp: g}, nil
		}
		if g.done {
			return nil, g.err
		}
		if !g.pulling && (g.base.held < int64(g.base.depth) || h.closed) {
			// This member advances the shared cursor on behalf of the
			// group. The pull loop re-checks this member's own closed
			// flag on every wake so a detached pump exits promptly.
			// The log has no bound of its own: its unreleased entries
			// are the base's held steps, part of the same resident
			// count the policy bounds. For a block group that count
			// already stopped the producer (queue + log <= depth, so
			// there is room whenever something is queued); for a
			// shedding group a stalled member stops the pulls at depth
			// held, the base cursor lags, and the hub drops for the
			// whole group. After Close the ring is finite, so draining
			// is unbounded-safe.
			g.pulling = true
			for {
				if c.closed {
					g.pulling = false
					h.cond.Broadcast()
					return nil, errConsumerClosed
				}
				ref, err := g.base.tryNextLocked()
				if err != nil {
					g.done = true
					g.err = err
					break
				}
				if ref != nil {
					g.log = append(g.log, &groupEntry{ref: ref, remaining: g.active})
					break
				}
				h.cond.Wait()
			}
			g.pulling = false
			h.cond.Broadcast()
			continue
		}
		h.cond.Wait()
	}
}

// closeMemberLocked detaches one member: log entries it has not yet
// consumed lose its pending release, and the last member to leave
// closes the base cursor. When every claimed member has closed, any
// members never handed out (a group whose attach failed partway) are
// closed too, so a dead group cannot keep a block-policy base cursor
// alive and stall the producer forever. Caller holds h.mu.
func (g *groupState) closeMemberLocked(c *Consumer) {
	h := c.hub
	if c.closed {
		return
	}
	c.closed = true
	g.active--
	start := c.grpIdx - g.logStart
	if start < 0 {
		start = 0
	}
	for pos := start; pos < int64(len(g.log)); pos++ {
		ge := g.log[pos]
		ge.remaining--
		if ge.remaining == 0 {
			ge.ref.releaseLocked()
		}
	}
	g.trimLogLocked()
	claimedOpen := false
	for _, m := range g.members {
		if m.grpClaimed && !m.closed {
			claimedOpen = true
			break
		}
	}
	if !claimedOpen {
		for _, m := range g.members {
			if !m.closed {
				g.closeMemberLocked(m)
			}
		}
	}
	if g.active == 0 && !g.done {
		g.done = true
		g.err = io.EOF
		g.base.closeLocked()
	}
	h.cond.Broadcast()
}

// trimLogLocked pops fully released entries off the log head. Caller
// holds h.mu (and wakes any puller waiting on the group's window).
func (g *groupState) trimLogLocked() {
	n := 0
	for n < len(g.log) && g.log[n].remaining == 0 {
		g.log[n] = nil
		n++
	}
	g.log = g.log[n:]
	g.logStart += int64(n)
}

// groupBroker hands out the members of network-attached consumer
// groups: the first reader announcing (name, group=R) creates the
// group, the following R-1 readers with the same name claim the
// remaining members. Used by the staging server's default subscriber
// and by the XML adaptor's pre-declared-consumer binding.
type groupBroker struct {
	mu     sync.Mutex
	groups map[string]*brokeredGroup
}

type brokeredGroup struct {
	members []*Consumer
	size    int
	next    int
}

// attach resolves one reader's group claim. newBase subscribes (or
// claims) the hub cursor that becomes the group base; it is invoked
// only for the first reader of the group. A group whose handed-out
// members have all disconnected is evicted, so a restarted endpoint
// group can re-attach under the same name (the reconnect semantics
// single consumers already have).
func (b *groupBroker) attach(h *Hub, name string, size int, newBase func() (*Consumer, error)) (*Consumer, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.groups == nil {
		b.groups = map[string]*brokeredGroup{}
	}
	if g := b.groups[name]; g != nil && g.dead(h) {
		delete(b.groups, name)
	}
	g := b.groups[name]
	if g == nil {
		base, err := newBase()
		if err != nil {
			return nil, err
		}
		members, err := h.GroupConsumer(base, size)
		if err != nil {
			// The just-subscribed base must not outlive the rejected
			// attach: left open it would keep accumulating (or, for a
			// spill consumer, demoting) every published step, and a
			// claimed pre-declared name would stay "already attached"
			// forever. Closing it lets a later reader re-claim through
			// the IsClosed re-subscription path.
			base.Close()
			return nil, err
		}
		// Members start unclaimed; each handout below claims one. Once
		// every claimed member closes, the unclaimed rest are closed
		// with them (closeMemberLocked), releasing the base cursor.
		h.mu.Lock()
		for _, m := range members {
			m.grpClaimed = false
		}
		h.mu.Unlock()
		g = &brokeredGroup{members: members, size: size}
		b.groups[name] = g
	}
	if g.size != size {
		return nil, fmt.Errorf("staging: group %q size mismatch: declared %d, reader announced %d", name, g.size, size)
	}
	if g.next >= len(g.members) {
		return nil, fmt.Errorf("staging: group %q already has %d members attached", name, g.size)
	}
	m := g.members[g.next]
	g.next++
	h.mu.Lock()
	m.grpClaimed = true
	h.mu.Unlock()
	return m, nil
}

// complete reports whether a brokered group under name has every
// member handed out (true when no group was brokered for the name at
// all — plain claims are complete by definition).
func (b *groupBroker) complete(name string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	g := b.groups[name]
	return g == nil || g.next >= len(g.members)
}

// dead reports whether every member this broker handed out has
// closed (and at least one was handed out) — the group can never
// recover, so the name is free for a fresh attach.
func (g *brokeredGroup) dead(h *Hub) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if g.next == 0 {
		return false
	}
	for _, m := range g.members[:g.next] {
		if !m.closed {
			return false
		}
	}
	return true
}
