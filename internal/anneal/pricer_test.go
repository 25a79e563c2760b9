package anneal

import (
	"math"
	"testing"
)

// TestPricedQuadraticStatsPinned pins one full anneal of the quadratic
// target at seed 5: every Stats counter and the Float64bits of the cost
// endpoints and the last temperature. The engine's move loop — rng draw
// order, Metropolis test, commit/reject dispatch, cost bookkeeping — may
// be restructured, but never in a way that changes these values.
func TestPricedQuadraticStatsPinned(t *testing.T) {
	q := &quadratic{x: []int{9, -7, 5, 12, -3, 8}}
	sched := Schedule{InitialTemp: 50, FinalTemp: 1e-3, Cooling: 0.9, MovesPerTemp: 150}
	st, err := Minimize(q, q.cost(), sched, NewRand(5))
	if err != nil {
		t.Fatal(err)
	}
	want := Stats{Plateaus: 103, Proposed: 15450, Infeasible: 0, Accepted: 4694, Uphill: 2325}
	got := st
	got.FinalCost, got.BestCost, got.LastTemp = 0, 0, 0
	if got != want {
		t.Errorf("stats = %+v, want %+v", got, want)
	}
	for _, c := range []struct {
		name string
		v    float64
		bits uint64
	}{
		{"FinalCost", st.FinalCost, 0},
		{"BestCost", st.BestCost, 0},
		{"LastTemp", st.LastTemp, 0x3f519ff7702285b1},
	} {
		if b := math.Float64bits(c.v); b != c.bits {
			t.Errorf("%s bits = %#x (%v), want %#x", c.name, b, c.v, c.bits)
		}
	}
	for i, v := range q.x {
		if v != 0 {
			t.Errorf("x[%d] = %d, want 0", i, v)
		}
	}
}

// TestDeltaPricerInfeasible checks the engine counts a PriceMove ok=false
// as infeasible and keeps going, without calling Commit or Reject.
type stubbornPricer struct {
	quadratic
	refuse  int
	refused int
}

func (q *stubbornPricer) PriceMove(rng *Rand) (float64, bool) {
	if q.refused < q.refuse {
		q.refused++
		rng.Intn(2) // consume something so the stream advances
		return 0, false
	}
	return q.quadratic.PriceMove(rng)
}

func TestDeltaPricerInfeasible(t *testing.T) {
	q := &stubbornPricer{refuse: 10}
	q.x = []int{3, -2}
	st, err := Minimize(q, q.cost(), Schedule{InitialTemp: 1, FinalTemp: 0.5, Cooling: 0.5, MovesPerTemp: 20}, NewRand(2))
	if err != nil {
		t.Fatal(err)
	}
	if st.Infeasible != 10 {
		t.Errorf("Infeasible = %d, want 10", st.Infeasible)
	}
	if st.Proposed != 30 {
		t.Errorf("Proposed = %d, want 30 (2 plateaus × 20 moves − 10 refused)", st.Proposed)
	}
}
