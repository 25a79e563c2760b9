package exchange

import (
	"copack/internal/anneal"
	"copack/internal/bga"
	"copack/internal/core"
	"copack/internal/netlist"
	"copack/internal/power"
	"copack/internal/stack"
)

// This file is the test oracle for the annealer's move contract: the
// mutate-then-undo move path the exchange ran before PriceMove/CommitMove/
// RejectMove became the only anneal.Target contract, kept verbatim. Propose
// applies every proposal and undoes a rejection by applying the same swap
// again; the production priced path (pricing.go) must sample the identical
// move and reproduce this path's float history bit for bit, which
// TestPriceMoveEquivalentToPropose checks move by move. The section and
// tracker tests drive apply directly as a from-scratch reference mutator.

// Propose picks a pad per Fig 14 (any pad for stacking ICs, a supply pad
// for 2-D), swaps it with a random neighbor, and prices the move as the
// cost difference; the returned function undoes it. PriceMove samples and
// prices the identical move for the same rng stream without mutating.
func (s *state) Propose(rng *anneal.Rand) (float64, func(), bool) {
	side, i, ok := s.pickSlot(rng)
	if !ok {
		return 0, nil, false
	}
	j := i + 1
	if (rng.Intn(2) == 0 && i > 1) || j > len(s.a.Slots[side]) {
		j = i - 1
	}
	slots := s.a.Slots[side]
	na, nb := slots[i-1], slots[j-1]

	if !s.opt.DisableRangeConstraint {
		sd := &s.sections[side]
		if sd.row(na) == sd.row(nb) {
			// Same horizontal line: swapping would invert the via
			// order (range constraint).
			return 0, nil, false
		}
	}

	before := s.cost()
	s.apply(side, i, j)
	after := s.cost()
	return after - before, func() { s.apply(side, i, j) }, true
}

// apply mutates the state by swapping the adjacent slots i and j (1-based,
// |i−j| = 1) and updating every incremental cache.
func (s *state) apply(side bga.Side, i, j int) {
	lo := i
	if j < i {
		lo = j
	}
	slots := s.a.Slots[side]
	sd := &s.sections[side]
	var sec secPend
	sd.priceSwap(slots[lo-1], slots[lo], &sec)
	sd.commitSwap(&sec)
	s.idCache[side] = sd.worst()
	s.a.Swap(side, i, j)
	sup := s.isSupply[side]
	sup[i-1], sup[j-1] = sup[j-1], sup[i-1]
	s.trk.apply(side, i, j, sup)
}

// apply updates the caches for the swap of slots i and j (1-based) on a
// side, given the supply flags *after* the state swap was applied (the
// legacy mutating path; the annealer's fast path prices then commits).
func (tr *tracker) apply(side bga.Side, i, j int, isSupply []bool) {
	gi, gj := tr.globalOf[side][i-1], tr.globalOf[side][j-1]
	// After the swap, isSupply[i-1] holds what was at j and vice versa.
	supI, supJ := isSupply[i-1], isSupply[j-1]
	switch {
	case supI && !supJ:
		// The pad that is now at i came from j.
		tr.moveSupply(gj, gi)
	case supJ && !supI:
		tr.moveSupply(gi, gj)
		// Both or neither supply: gaps unchanged.
	}
	tr.swapTiers(gi, gj)
}

// verify recomputes everything from scratch.
func (tr *tracker) verify(p *core.Problem, a *core.Assignment, classes []netlist.NetClass) (proxy float64, omega int) {
	return power.ProxyForAssignment(p, a, classes...), stack.OmegaAssignment(p, a)
}

// moveSupply updates the proxy for a supply pad moving from global index
// gi to the adjacent global index gj (the legacy mutating path).
func (tr *tracker) moveSupply(gi, gj int) {
	r := tr.rankOf[gi]
	if r < 0 {
		return
	}
	n := len(tr.supplyIdx)
	if n == 1 {
		// A single pad's cost is one full-circle gap regardless of
		// position.
		tr.supplyIdx[0] = gj
		tr.rankOf[gi] = -1
		tr.rankOf[gj] = 0
		return
	}
	prev := tr.supplyIdx[(r-1+n)%n]
	next := tr.supplyIdx[(r+1)%n]
	tOld, tNew := tr.tGlobal[gi], tr.tGlobal[gj]
	tPrev, tNext := tr.tGlobal[prev], tr.tGlobal[next]
	oldCost := sq(circGap(tPrev, tOld)) + sq(circGap(tOld, tNext))
	newCost := sq(circGap(tPrev, tNew)) + sq(circGap(tNew, tNext))
	tr.proxy += newCost - oldCost
	tr.supplyIdx[r] = gj
	tr.rankOf[gi] = -1
	tr.rankOf[gj] = r

	tr.applies++
	if tr.applies%resyncInterval == 0 {
		tr.resyncProxy()
	}
}

// swapTiers updates ω for a swap of the adjacent global indices gi, gj
// (the legacy mutating path).
func (tr *tracker) swapTiers(gi, gj int) {
	if tr.psi <= 1 {
		return
	}
	ga, gb := gi/tr.psi, gj/tr.psi
	before := tr.groupOmega(ga)
	if gb != ga {
		before += tr.groupOmega(gb)
	}
	tr.tiers[gi], tr.tiers[gj] = tr.tiers[gj], tr.tiers[gi]
	after := tr.groupOmega(ga)
	if gb != ga {
		after += tr.groupOmega(gb)
	}
	tr.omega += after - before
}

// selectionCost is eq3Terms' total (kept for the drift tests).
func selectionCost(p *core.Problem, st *state, opt Options) float64 {
	return eq3Terms(p, st, opt).Total
}
