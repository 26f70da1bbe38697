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

	// Groups of local indices that share a gid, in CSR form: group k
	// is idx[off[k]:off[k+1]], ascending. local holds the gids whose
	// copies are all on this rank; shared the gids other ranks hold
	// too, ordered by (owner rank, gid).
	local, shared groups

	// Exchange buffers, one slice per peer rank, reused by every
	// Apply. Contributor role: send[d] carries this rank's partial
	// value of each shared gid owned by d, back[d] receives the
	// totals in the same order. Owner role: recv[src] receives src's
	// partials, reply[src] returns the totals; ownContrib[src][k] is
	// the slot (into totals) of the k-th value exchanged with src.
	send, back  [][]float64
	recv, reply [][]float64
	ownContrib  [][]int32
	totals      []float64

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
	g := &GS{comm: comm, n: len(gids), local: newGroups(), shared: newGroups()}

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

	// Contributor: split gids into purely-local groups and shared
	// groups ordered by (owner, gid) — the same order the owner
	// recorded above.
	sendCount := make([]int, size)
	for d := 0; d < size; d++ {
		flags := sharedFlags[d]
		for k, id := range sendSetup[d] {
			if flags[k] == 1 {
				g.shared.add(byGid[id])
				sendCount[d]++
			} else if len(byGid[id]) > 1 {
				g.local.add(byGid[id])
			}
		}
	}

	recvCount := make([]int, size)
	for src, plan := range g.ownContrib {
		recvCount[src] = len(plan)
	}
	g.send, g.back = peerBuffers(sendCount)
	g.recv, g.reply = peerBuffers(recvCount)

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
// for peer p in each, out of one allocation.
func peerBuffers(counts []int) (a, b [][]float64) {
	total := 0
	for _, c := range counts {
		total += c
	}
	flat := make([]float64, 2*total)
	a, b = make([][]float64, len(counts)), make([][]float64, len(counts))
	pos := 0
	for p, c := range counts {
		a[p] = flat[pos : pos+c : pos+c]
		b[p] = flat[total+pos : total+pos+c : total+pos+c]
		pos += c
	}
	return a, b
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

	// Purely local duplicates.
	idx := g.local.idx
	for k, n := 0, g.local.count(); k < n; k++ {
		grp := idx[g.local.off[k]:g.local.off[k+1]]
		acc := u[grp[0]]
		for _, i := range grp[1:] {
			acc = op.combine(acc, u[i])
		}
		for _, i := range grp {
			u[i] = acc
		}
	}
	if g.comm.Size() == 1 {
		return // a node is shared only when two ranks hold it
	}

	// Locally combine shared groups and ship partials to owners.
	idx = g.shared.idx
	k := 0
	for _, buf := range g.send {
		for j := range buf {
			grp := idx[g.shared.off[k]:g.shared.off[k+1]]
			acc := u[grp[0]]
			for _, i := range grp[1:] {
				acc = op.combine(acc, u[i])
			}
			buf[j] = acc
			k++
		}
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

	// Scatter combined values to all local copies.
	k = 0
	for _, buf := range g.back {
		for _, v := range buf {
			for _, i := range idx[g.shared.off[k]:g.shared.off[k+1]] {
				u[i] = v
			}
			k++
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
