package exchange

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"copack/internal/bga"
	"copack/internal/core"
)

// This file implements anneal.Target so that one proposal costs one O(1)
// evaluation and zero allocations, and a rejected move — the vast majority
// at low temperature — mutates nothing. The moves, cost deltas and caches
// are bit-identical to those of the mutate-then-undo test oracle
// (oracle_test.go), which TestPriceMoveEquivalentToPropose checks.

// pendMove is the move priced by the last PriceMove call, held in the
// state (not a closure) so resolving it allocates nothing.
type pendMove struct {
	side   bga.Side
	i, j   int // 1-based slots, |i−j| = 1
	gi, gj int // global ring indices of i, j
	sec    secPend
	idAcc  int // idCache[side] after a commit
	sup    supplyPend
	omega  int // trk.omega after a commit
}

// PriceMove implements anneal.Target: pick a pad per Fig 14 (any pad for
// stacking ICs, a supply pad for 2-D), pair it with a random neighbor, and
// price the swap in O(1) without mutating the state. CommitMove or
// RejectMove must resolve it before the next call.
func (s *state) PriceMove(rng *rand.Rand) (float64, bool) {
	side, i, ok := s.pickSlot(rng)
	if !ok {
		return 0, false
	}
	j := i + 1
	if (rng.Intn(2) == 0 && i > 1) || j > len(s.a.Slots[side]) {
		j = i - 1
	}
	slots := s.a.Slots[side]
	na, nb := slots[i-1], slots[j-1]
	sd := &s.sections[side]

	if !s.opt.DisableRangeConstraint && sd.row(na) == sd.row(nb) {
		// Same horizontal line: swapping would invert the via order
		// (range constraint).
		return 0, false
	}

	before := s.cost()

	// Eq 2: the swap perturbs at most two sections of one line.
	lo := i
	if j < i {
		lo = j
	}
	sec := sd.priceSwap(slots[lo-1], slots[lo])
	idAcc := s.idCache[side]
	if sec.kind == secDC {
		idAcc = sec.newMax
		if idAcc < 0 {
			idAcc = 0
		}
	}

	// Δ_IR proxy: at most one supply pad moves by one ring slot.
	gi, gj := s.trk.globalOf[side][i-1], s.trk.globalOf[side][j-1]
	supA, supB := s.isSupply[side][i-1], s.isSupply[side][j-1]
	var sup supplyPend
	switch {
	case supB && !supA:
		sup = s.trk.priceSupplyMove(gj, gi)
	case supA && !supB:
		sup = s.trk.priceSupplyMove(gi, gj)
	}
	proxyAcc := s.trk.proxy
	if sup.moved {
		proxyAcc = sup.proxyAccept
	}

	// ω: at most two tier groups change.
	omegaAcc := s.trk.priceTierSwap(gi, gj)

	after := s.costWith(side, idAcc, proxyAcc, omegaAcc)
	// Written field by field: a struct literal is built on the stack
	// and then block-copied into s.pend on every proposal.
	pd := &s.pend
	pd.side, pd.i, pd.j, pd.gi, pd.gj = side, i, j, gi, gj
	pd.sec, pd.idAcc, pd.sup, pd.omega = sec, idAcc, sup, omegaAcc
	return after - before, true
}

// CommitMove applies the last priced move to the state and every cache.
func (s *state) CommitMove() {
	p := &s.pend
	sd := &s.sections[p.side]
	sd.commitSwap(p.sec)
	s.idCache[p.side] = p.idAcc
	s.a.Swap(p.side, p.i, p.j)
	sup := s.isSupply[p.side]
	sup[p.i-1], sup[p.j-1] = sup[p.j-1], sup[p.i-1]
	s.trk.commitSupply(p.sup)
	s.trk.commitTierSwap(p.gi, p.gj, p.omega)
}

// RejectMove abandons the last priced move. Nothing was mutated, but the
// proxy cache still absorbs the add-then-subtract rounding (and resync
// schedule) an apply/undo pair would have produced — the float history the
// golden matrix pins (see rejectSupply).
func (s *state) RejectMove() {
	s.trk.rejectSupply(s.pend.sup)
}

// costWith is cost() with one side's Eq 2 term, the proxy and ω replaced
// by priced values — the identical arithmetic, so a priced after-cost is
// bit-equal to what cost() would return after a commit.
func (s *state) costWith(side bga.Side, idSide int, proxy float64, omega int) float64 {
	idWorst := 0
	for k, v := range s.idCache {
		if bga.Side(k) == side {
			v = idSide
		}
		if v > idWorst {
			idWorst = v
		}
	}
	c := s.lambda*proxy/s.proxy0 + s.rho*float64(idWorst)
	if s.p.Tiers > 1 {
		c += s.phi * float64(omega) / s.omega0
	}
	return c
}

// PricingStats reports what a PricingBench run measured.
type PricingStats struct {
	// Priced and Infeasible partition the proposals: Priced moves were
	// evaluated (and committed when improving), Infeasible ones were
	// rejected before evaluation (range constraint or no movable pad).
	Priced     int
	Infeasible int
	// NsPerMove and AllocsPerMove are averaged over every proposal;
	// BytesPerMove is the matching heap-byte rate. A healthy hot loop
	// reports AllocsPerMove == 0 (asserted in CI).
	NsPerMove     float64
	AllocsPerMove float64
	BytesPerMove  float64
}

// PricingBench drives the O(1) move-pricing hot loop directly — no
// annealer, no temperature: it builds one annealing state, prices `moves`
// adjacent-swap proposals with a deterministic rng, commits the improving
// ones and rejects the rest, and reports per-move time and allocation
// rates. It exists so benchmarks (bench_test.go, fpbench -bench) and the
// CI allocation regression test measure the exact production code path.
func PricingBench(p *core.Problem, initial *core.Assignment, opt Options, moves int) (PricingStats, error) {
	if err := core.CheckMonotonic(p, initial); err != nil {
		return PricingStats{}, fmt.Errorf("exchange: initial assignment: %v", err)
	}
	if moves < 1 {
		return PricingStats{}, fmt.Errorf("exchange: PricingBench needs at least 1 move, got %d", moves)
	}
	opt = opt.withDefaults(p)
	st := newState(p, initial, opt, nil)
	rng := rand.New(rand.NewSource(opt.Seed))

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	var ps PricingStats
	for k := 0; k < moves; k++ {
		delta, ok := st.PriceMove(rng)
		if !ok {
			ps.Infeasible++
			continue
		}
		ps.Priced++
		if delta <= 0 {
			st.CommitMove()
		} else {
			st.RejectMove()
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)

	ps.NsPerMove = float64(elapsed.Nanoseconds()) / float64(moves)
	ps.AllocsPerMove = float64(after.Mallocs-before.Mallocs) / float64(moves)
	ps.BytesPerMove = float64(after.TotalAlloc-before.TotalAlloc) / float64(moves)
	return ps, nil
}
