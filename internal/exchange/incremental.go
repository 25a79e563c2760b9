package exchange

import (
	"math/bits"

	"copack/internal/bga"
	"copack/internal/core"
	"copack/internal/power"
	"copack/internal/stack"
)

// The annealer prices ~10⁵ moves per run, and pricing a move with full
// recomputation of the pad-gap proxy (O(s log s)) and of ω (O(α)) would
// dominate the runtime. This file maintains both incrementally: an
// adjacent swap moves at most one supply pad by one ring slot (its rank
// among supply pads cannot change) and touches at most two ω groups, so
// each is an O(1) update. Floating-point drift from the proxy deltas is
// bounded by resyncing the cache from scratch every resyncInterval applies.
//
// A proposal is priced without mutating (priceSupplyMove, priceTierSwap)
// and resolved by commitSupply/commitTierSwap or rejectSupply. The float
// history is not the naive one, though: the exchange once applied every
// proposal and undid a rejection by applying the swap again, and the
// golden matrix pins the results of that history. rejectSupply therefore
// replays the add-then-subtract rounding a rejected apply/undo pair left
// in the proxy cache and the resync schedule it advanced (a resync clears
// the rounding). The mutate-then-undo path survives as the test oracle in
// oracle_test.go, which checks the replay move by move.

const resyncInterval = 4096

// tracker holds the incremental caches of one annealing state.
type tracker struct {
	// ringT[side][slot-1] is the fixed perimeter position of a slot.
	ringT [bga.NumSides][]float64
	// globalOf[side][slot-1] is the slot's index in the concatenated
	// ring (bottom, right, top, left).
	globalOf [bga.NumSides][]int
	// tGlobal[g] is ringT by global index.
	tGlobal []float64

	// Supply bookkeeping: sorted global indices of watched pads and the
	// rank of each (rankOf[g] is -1 for non-supply slots; a dense slice,
	// since global indices are dense by construction).
	supplyIdx []int
	rankOf    []int
	proxy     float64
	// tsBuf is the reusable scratch for from-scratch proxy recomputes,
	// so a resync inside the hot loop allocates nothing.
	tsBuf []float64

	// Tier bookkeeping (stacking only; psi <= 1 disables it).
	psi    int
	tiers  []int // by global index
	omega  int
	groups int

	applies int
	// resyncs counts from-scratch proxy recomputations (every
	// resyncInterval applies, plus the explicit selection-time resync).
	// Telemetry only — it never feeds back into the run.
	resyncs int
}

// newTracker builds the caches from the current assignment.
func newTracker(p *core.Problem, a *core.Assignment, isSupply *[bga.NumSides][]bool) *tracker {
	tr := &tracker{psi: p.Tiers}
	g := 0
	for _, side := range bga.Sides() {
		slots := a.Slots[side]
		n := len(slots)
		tr.ringT[side] = make([]float64, n)
		tr.globalOf[side] = make([]int, n)
		for i := range slots {
			t := float64(side) + (float64(i+1)-0.5)/float64(n)
			tr.ringT[side][i] = t
			tr.globalOf[side][i] = g
			tr.tGlobal = append(tr.tGlobal, t)
			tr.tiers = append(tr.tiers, p.Circuit.Net(slots[i]).Tier)
			if isSupply[side][i] {
				tr.supplyIdx = append(tr.supplyIdx, g)
			}
			g++
		}
	}
	tr.rankOf = make([]int, g)
	for i := range tr.rankOf {
		tr.rankOf[i] = -1
	}
	for r, gi := range tr.supplyIdx {
		tr.rankOf[gi] = r
	}
	tr.tsBuf = make([]float64, 0, len(tr.supplyIdx))
	tr.resyncProxy()
	if tr.psi > 1 {
		tr.groups = (len(tr.tiers) + tr.psi - 1) / tr.psi
		tr.omega = stack.Omega(tr.tiers, tr.psi)
	}
	return tr
}

// resyncProxy recomputes the cached proxy from scratch.
func (tr *tracker) resyncProxy() {
	tr.resyncs++
	tr.proxy = tr.resyncCost(-1, 0)
}

// resyncCost computes the from-scratch proxy into the reusable scratch
// buffer, reading rank r's pad (when r >= 0) as if it sat at global index
// g instead — which is how the priced path resyncs at a hypothetical
// post-move position without mutating supplyIdx.
func (tr *tracker) resyncCost(r, g int) float64 {
	ts := tr.tsBuf[:0]
	for i, gi := range tr.supplyIdx {
		if i == r {
			gi = g
		}
		ts = append(ts, tr.tGlobal[gi])
	}
	tr.tsBuf = ts
	// supplyIdx is sorted by global index, an adjacent move cannot cross
	// another supply pad, and tGlobal is increasing in global index, so
	// ts is already sorted.
	return power.ProxyCost(ts)
}

// circGap returns the circular distance from a to b going forward.
func circGap(a, b float64) float64 {
	d := b - a
	if d < 0 {
		d += 4
	}
	return d
}

func sq(v float64) float64 { return v * v }

// supplyPend is a priced supply-pad move. proxyAccept/appliesAcc are the
// cache values after committing the move; proxyReject/appliesRej after
// rejecting it. The reject values are not simply "unchanged": they are what
// an apply followed by an undoing apply would leave — (proxy + d) − d
// rounding in the cache and a resync counter advanced by two — because the
// golden matrix pins runs made with that float history.
type supplyPend struct {
	moved       bool
	gFrom, gTo  int
	rank        int
	proxyAccept float64
	proxyReject float64
	appliesAcc  int
	appliesRej  int
}

// priceSupplyMove prices the supply pad at global index gFrom moving to
// the adjacent index gTo without mutating anything. O(1) except on a
// resync boundary, where it recomputes from scratch exactly as an applied
// move would (amortized O(1), allocation-free either way).
func (tr *tracker) priceSupplyMove(gFrom, gTo int) supplyPend {
	r := tr.rankOf[gFrom]
	if r < 0 {
		return supplyPend{}
	}
	n := len(tr.supplyIdx)
	if n == 1 {
		// A single pad's cost is one full-circle gap regardless of
		// position: the move touches neither proxy nor the resync
		// counter.
		return supplyPend{moved: true, gFrom: gFrom, gTo: gTo, rank: 0,
			proxyAccept: tr.proxy, proxyReject: tr.proxy,
			appliesAcc: tr.applies, appliesRej: tr.applies}
	}
	prev := tr.supplyIdx[(r-1+n)%n]
	next := tr.supplyIdx[(r+1)%n]
	tOld, tNew := tr.tGlobal[gFrom], tr.tGlobal[gTo]
	tPrev, tNext := tr.tGlobal[prev], tr.tGlobal[next]
	oldCost := sq(circGap(tPrev, tOld)) + sq(circGap(tOld, tNext))
	newCost := sq(circGap(tPrev, tNew)) + sq(circGap(tNew, tNext))
	pa := tr.proxy + (newCost - oldCost)
	aa := tr.applies + 1
	if aa%resyncInterval == 0 {
		pa = tr.resyncCost(r, gTo)
	}
	// An undoing apply recomputes the two gap costs at the swapped
	// position; those expressions are bit-identical to newCost/oldCost
	// above, so the undo delta is exactly (oldCost − newCost).
	pr := pa + (oldCost - newCost)
	ar := aa + 1
	if ar%resyncInterval == 0 {
		pr = tr.resyncCost(-1, 0)
	}
	return supplyPend{moved: true, gFrom: gFrom, gTo: gTo, rank: r,
		proxyAccept: pa, proxyReject: pr, appliesAcc: aa, appliesRej: ar}
}

// commitSupply applies a priced supply move to the caches.
func (tr *tracker) commitSupply(sp supplyPend) {
	if !sp.moved {
		return
	}
	tr.supplyIdx[sp.rank] = sp.gTo
	tr.rankOf[sp.gFrom] = -1
	tr.rankOf[sp.gTo] = sp.rank
	tr.proxy = sp.proxyAccept
	// The priced path resyncs inside priceSupplyMove (resyncCost), which
	// bypasses resyncProxy; count the boundaries this commit crosses.
	tr.resyncs += sp.appliesAcc/resyncInterval - tr.applies/resyncInterval
	tr.applies = sp.appliesAcc
}

// rejectSupply absorbs the rounding and resync-counter advance an
// apply/undo pair would have produced, leaving positions untouched. It
// exists only to keep the float history the golden matrix pins; dropping
// it would be a deliberate re-baseline of those pins.
func (tr *tracker) rejectSupply(sp supplyPend) {
	if !sp.moved {
		return
	}
	tr.proxy = sp.proxyReject
	tr.resyncs += sp.appliesRej/resyncInterval - tr.applies/resyncInterval
	tr.applies = sp.appliesRej
}

// groupOmega computes the zero-bit count of one ω group.
func (tr *tracker) groupOmega(group int) int {
	full := uint64(1)<<tr.psi - 1
	var union uint64
	start := group * tr.psi
	end := start + tr.psi
	if end > len(tr.tiers) {
		end = len(tr.tiers)
	}
	for _, d := range tr.tiers[start:end] {
		union |= 1 << (d - 1)
	}
	return bits.OnesCount64(full &^ union)
}

// groupOmegaSwapped is groupOmega with the tiers at global indices gi and
// gj read as if they were exchanged — the priced, mutation-free variant.
func (tr *tracker) groupOmegaSwapped(group, gi, gj int) int {
	full := uint64(1)<<tr.psi - 1
	var union uint64
	start := group * tr.psi
	end := start + tr.psi
	if end > len(tr.tiers) {
		end = len(tr.tiers)
	}
	for x := start; x < end; x++ {
		d := tr.tiers[x]
		if x == gi {
			d = tr.tiers[gj]
		} else if x == gj {
			d = tr.tiers[gi]
		}
		union |= 1 << (d - 1)
	}
	return bits.OnesCount64(full &^ union)
}

// priceTierSwap returns the ω value after swapping the adjacent global
// indices gi, gj, without mutating. A within-group swap cannot change a
// group's tier union, so only boundary swaps do any work.
func (tr *tracker) priceTierSwap(gi, gj int) int {
	if tr.psi <= 1 {
		return tr.omega
	}
	ga, gb := gi/tr.psi, gj/tr.psi
	if ga == gb {
		return tr.omega
	}
	before := tr.groupOmega(ga) + tr.groupOmega(gb)
	after := tr.groupOmegaSwapped(ga, gi, gj) + tr.groupOmegaSwapped(gb, gi, gj)
	return tr.omega + (after - before)
}

// commitTierSwap applies a priced tier swap.
func (tr *tracker) commitTierSwap(gi, gj, omega int) {
	if tr.psi <= 1 {
		return
	}
	tr.tiers[gi], tr.tiers[gj] = tr.tiers[gj], tr.tiers[gi]
	tr.omega = omega
}
