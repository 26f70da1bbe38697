// Package gs implements gather-scatter (direct-stiffness summation)
// over a global node numbering distributed across ranks — the role
// gslib plays for Nek5000/NekRS. After setup with the local-to-global
// id map, an operation combines the values of every copy of each
// global node (across elements and ranks) and writes the combined
// value back to all copies.
//
// The exchange uses an owner-rendezvous: each shared global id is
// hashed to an owner rank; contributors send locally-combined partial
// values to owners, owners combine across ranks and return totals.
package gs

import (
	"sort"

	"nekrs-sensei/internal/mpirt"
)

// Op selects the combining operation.
type Op int

// Supported combine operations.
const (
	OpSum Op = iota
	OpMax
	OpMin
)

func (o Op) combine(a, b float64) float64 {
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
	panic("gs: unknown op")
}

// identity returns the op's identity element.
func (o Op) identity() float64 {
	switch o {
	case OpSum:
		return 0
	case OpMax:
		return negInf
	case OpMin:
		return posInf
	}
	panic("gs: unknown op")
}

const (
	negInf = -1.797693134862315708145274237317043567981e+308
	posInf = 1.797693134862315708145274237317043567981e+308
)

// GS is a configured gather-scatter exchange for one id map. It owns
// the exchange buffers, so one GS serves one Apply at a time (the
// owning rank's), like the Comm it drives.
type GS struct {
	comm *mpirt.Comm
	n    int

	// copies holds, for every gid with two or more copies on this
	// rank, its local indices in ascending order, bucketed by count.
	// shared lists the gids other ranks hold too, ordered by (owner
	// rank, gid): rep[k] is one local copy of the k-th, whose combined
	// value is this rank's partial, and shared group k its copies.
	copies buckets
	rep    []int32
	shared groups

	// Exchange buffers, one slice per peer rank, reused by every
	// Apply. Contributor role: send[d] carries this rank's partial
	// value of each shared gid owned by d, back[d] receives the
	// totals in the same order; sendAll and backAll are the same
	// values as one slice each, in shared-group order. Owner role:
	// recv[src] receives src's partials, reply[src] returns the
	// totals; ownContrib[src][k] is the slot (into totals) of the k-th
	// value exchanged with src.
	send, back       [][]float64
	sendAll, backAll []float64
	recv, reply      [][]float64
	ownContrib       [][]int32
	totals           []float64

	mult []float64 // node multiplicity (copies across all ranks)
}

// groups is a CSR list of index groups: group k is idx[off[k]:off[k+1]].
type groups struct {
	off, idx []int32
}

func newGroups() groups { return groups{off: []int32{0}} }

func (g *groups) add(members []int) {
	for _, i := range members {
		g.idx = append(g.idx, int32(i))
	}
	g.off = append(g.off, int32(len(g.idx)))
}

// count reports the number of groups.
func (g *groups) count() int { return len(g.off) - 1 }

// group returns group k.
func (g *groups) group(k int) []int32 { return g.idx[g.off[k]:g.off[k+1]] }

// bucketSizes are the group sizes stored at a fixed stride: on a box
// mesh a node is copied into the 2 elements of a face, the 4 of an
// edge or the 8 of a vertex.
var bucketSizes = [...]int{2, 4, 8}

// buckets holds index groups: fixed[b] the groups of bucketSizes[b]
// members back to back, rest those of any other size.
type buckets struct {
	fixed [len(bucketSizes)][]int32
	rest  groups
}

func (b *buckets) add(members []int) {
	for j, n := range bucketSizes {
		if len(members) == n {
			for _, i := range members {
				b.fixed[j] = append(b.fixed[j], int32(i))
			}
			return
		}
	}
	b.rest.add(members)
}

// combine folds every group's values with op in member order and
// writes the result to all of its members. Sum, every solver
// iteration's, runs one unrolled loop per bucket; Min and Max, which
// only set-up uses, and the remainder, empty on a box mesh, walk the
// groups one at a time.
func (b *buckets) combine(u []float64, op Op) {
	if op == OpSum {
		sum2(u, b.fixed[0])
		sum4(u, b.fixed[1])
		sum8(u, b.fixed[2])
	} else {
		for j, idx := range b.fixed {
			n := bucketSizes[j]
			for k := 0; k < len(idx); k += n {
				fold(u, idx[k:k+n:k+n], op)
			}
		}
	}
	for k, n := 0, b.rest.count(); k < n; k++ {
		fold(u, b.rest.group(k), op)
	}
}

// fold combines one group with op and writes the result to its members.
func fold(u []float64, grp []int32, op Op) {
	acc := u[grp[0]]
	for _, i := range grp[1:] {
		acc = op.combine(acc, u[i])
	}
	for _, i := range grp {
		u[i] = acc
	}
}

// sum2, sum4 and sum8 sum each group of a fixed-stride bucket, left to
// right, into all of its members.
func sum2(u []float64, idx []int32) {
	for k := 0; k+2 <= len(idx); k += 2 {
		g := idx[k : k+2 : k+2]
		v := u[g[0]] + u[g[1]]
		u[g[0]], u[g[1]] = v, v
	}
}

func sum4(u []float64, idx []int32) {
	for k := 0; k+4 <= len(idx); k += 4 {
		g := idx[k : k+4 : k+4]
		v := u[g[0]] + u[g[1]] + u[g[2]] + u[g[3]]
		u[g[0]], u[g[1]], u[g[2]], u[g[3]] = v, v, v, v
	}
}

func sum8(u []float64, idx []int32) {
	for k := 0; k+8 <= len(idx); k += 8 {
		g := idx[k : k+8 : k+8]
		v := u[g[0]] + u[g[1]] + u[g[2]] + u[g[3]] + u[g[4]] + u[g[5]] + u[g[6]] + u[g[7]]
		u[g[0]], u[g[1]], u[g[2]], u[g[3]] = v, v, v, v
		u[g[4]], u[g[5]], u[g[6]], u[g[7]] = v, v, v, v
	}
}

// owner maps a global id to its owning rank.
func owner(gid int64, size int) int {
	// Knuth multiplicative hash for spread; gids are dense so modulo
	// alone would also balance, but hashing decouples ownership from
	// the lattice structure.
	h := uint64(gid) * 2654435761
	return int(h % uint64(size))
}

// New builds the exchange plan for the given local-to-global id map.
// Every rank of comm must call New collectively with its own ids.
func New(comm *mpirt.Comm, gids []int64) *GS {
	size := comm.Size()
	g := &GS{comm: comm, n: len(gids), copies: buckets{rest: newGroups()}, shared: newGroups()}

	// Group local indices by gid.
	byGid := make(map[int64][]int, len(gids))
	for i, id := range gids {
		byGid[id] = append(byGid[id], i)
	}
	unique := make([]int64, 0, len(byGid))
	for id := range byGid {
		unique = append(unique, id)
	}
	sort.Slice(unique, func(i, j int) bool { return unique[i] < unique[j] })

	// Rendezvous round 1: tell each owner which of its gids we hold.
	sendSetup := make([][]int64, size)
	for _, id := range unique {
		d := owner(id, size)
		sendSetup[d] = append(sendSetup[d], id)
	}
	recvSetup := comm.AlltoallI64(sendSetup)

	// Owner: count contributing ranks per owned gid.
	contribRanks := make(map[int64][]int)
	for src, ids := range recvSetup {
		for _, id := range ids {
			contribRanks[id] = append(contribRanks[id], src)
		}
	}

	// Owned shared gids in sorted order get slots.
	ownShared := make([]int64, 0)
	for id, srcs := range contribRanks {
		if len(srcs) >= 2 {
			ownShared = append(ownShared, id)
		}
	}
	sort.Slice(ownShared, func(i, j int) bool { return ownShared[i] < ownShared[j] })
	slotOf := make(map[int64]int, len(ownShared))
	for s, id := range ownShared {
		slotOf[id] = s
	}
	g.totals = make([]float64, len(ownShared))

	// Rendezvous round 2: reply shared/not flags aligned with each
	// source's (sorted) setup list, and record the owner-side receive
	// plan in the same order.
	replyFlags := make([][]int64, size)
	g.ownContrib = make([][]int32, size)
	for src, ids := range recvSetup {
		flags := make([]int64, len(ids))
		for k, id := range ids {
			if slot, ok := slotOf[id]; ok {
				flags[k] = 1
				g.ownContrib[src] = append(g.ownContrib[src], int32(slot))
			}
		}
		replyFlags[src] = flags
	}
	sharedFlags := comm.AlltoallI64(replyFlags)

	// Contributor: bucket every gid this rank holds more than once, in
	// the order of its first copy so that a sweep walks u forward, and
	// list the shared ones ordered by (owner, gid) — the same order
	// the owner recorded above.
	for i, id := range gids {
		if members := byGid[id]; len(members) > 1 && members[0] == i {
			g.copies.add(members)
		}
	}
	sendCount := make([]int, size)
	for d := 0; d < size; d++ {
		flags := sharedFlags[d]
		for k, id := range sendSetup[d] {
			if flags[k] == 1 {
				g.shared.add(byGid[id])
				g.rep = append(g.rep, int32(byGid[id][0]))
				sendCount[d]++
			}
		}
	}

	recvCount := make([]int, size)
	for src, plan := range g.ownContrib {
		recvCount[src] = len(plan)
	}
	var flat []float64
	g.send, g.back, flat = peerBuffers(sendCount)
	g.sendAll, g.backAll = flat[:len(g.rep)], flat[len(g.rep):]
	g.recv, g.reply, _ = peerBuffers(recvCount)

	// Multiplicity via a Sum on ones.
	ones := make([]float64, len(gids))
	for i := range ones {
		ones[i] = 1
	}
	g.Apply(ones, OpSum)
	g.mult = ones
	return g
}

// peerBuffers carves two sets of per-peer buffers, counts[p] values
// for peer p in each, out of one allocation: flat, the first set's
// values in peer order followed by the second's.
func peerBuffers(counts []int) (a, b [][]float64, flat []float64) {
	total := 0
	for _, c := range counts {
		total += c
	}
	flat = make([]float64, 2*total)
	a, b = make([][]float64, len(counts)), make([][]float64, len(counts))
	pos := 0
	for p, c := range counts {
		a[p] = flat[pos : pos+c : pos+c]
		b[p] = flat[total+pos : total+pos+c : total+pos+c]
		pos += c
	}
	return a, b, flat
}

// Len reports the local vector length the exchange was built for.
func (g *GS) Len() int { return g.n }

// Multiplicity returns the number of copies (across elements and
// ranks) of each local node. The returned slice is shared; do not
// modify it.
func (g *GS) Multiplicity() []float64 { return g.mult }

// Apply combines all copies of every global node with op and writes
// the combined value back to every copy, in place. Collective: every
// rank must call with its local vector.
//
// The order of combination is part of the contract (the solver's
// trajectories are pinned bit for bit): within a rank a node's copies
// combine in ascending local index, and across ranks the owner starts
// from the identity and folds the contributors' partials in ascending
// rank.
func (g *GS) Apply(u []float64, op Op) {
	if len(u) != g.n {
		panic("gs: vector length does not match setup")
	}

	// Every node's copies on this rank, shared or not: a shared
	// node's combined copies are this rank's partial.
	g.copies.combine(u, op)
	if g.comm.Size() == 1 {
		return // a node is shared only when two ranks hold it
	}

	// Ship the partials to their owners.
	for k, i := range g.rep {
		g.sendAll[k] = u[i]
	}
	g.comm.AlltoallF64Into(g.send, g.recv)

	// Owner combine, then return the totals to the contributors in
	// their send order.
	totals := g.totals
	identity := op.identity()
	for i := range totals {
		totals[i] = identity
	}
	for src, buf := range g.recv {
		plan := g.ownContrib[src]
		if op == OpSum {
			for j, v := range buf {
				totals[plan[j]] += v
			}
			continue
		}
		for j, v := range buf {
			totals[plan[j]] = op.combine(totals[plan[j]], v)
		}
	}
	for src, buf := range g.reply {
		plan := g.ownContrib[src]
		for j := range buf {
			buf[j] = totals[plan[j]]
		}
	}
	g.comm.AlltoallF64Into(g.reply, g.back)

	// Scatter the totals to all local copies.
	for k, v := range g.backAll {
		for _, i := range g.shared.group(k) {
			u[i] = v
		}
	}
}

// Sum is Apply with OpSum: direct-stiffness summation.
func (g *GS) Sum(u []float64) { g.Apply(u, OpSum) }

// Min is Apply with OpMin, used to make Dirichlet masks consistent
// across shared nodes.
func (g *GS) Min(u []float64) { g.Apply(u, OpMin) }

// Max is Apply with OpMax.
func (g *GS) Max(u []float64) { g.Apply(u, OpMax) }
