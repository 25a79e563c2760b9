package exchange

import (
	"testing"

	"copack/internal/anneal"
	"copack/internal/assign"
	"copack/internal/gen"
)

// TestPricedMoveZeroAllocs is the CI regression tooth for the O(1) hot
// loop: pricing a move — and committing or rejecting it — must allocate
// nothing, for both 2-D and stacking problems. Any allocation here is a
// performance bug (escaping closure, map churn, forgotten scratch buffer).
func TestPricedMoveZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	for _, tiers := range []int{1, 4} {
		p := gen.MustBuild(gen.Table1()[2], gen.Options{Seed: 1, Tiers: tiers})
		a, err := assign.DFA(p, assign.DFAOptions{})
		if err != nil {
			t.Fatal(err)
		}
		st := newState(p, a, Options{Seed: 1}.withDefaults(p), nil)
		rng := anneal.NewRand(1)
		// Warm up past lazy initialization and across a resync boundary.
		for k := 0; k < 2*resyncInterval; k++ {
			if delta, ok := st.PriceMove(rng); ok {
				if delta <= 0 {
					st.CommitMove()
				} else {
					st.RejectMove()
				}
			}
		}
		avg := testing.AllocsPerRun(1000, func() {
			delta, ok := st.PriceMove(rng)
			if !ok {
				return
			}
			if delta <= 0 {
				st.CommitMove()
			} else {
				st.RejectMove()
			}
		})
		if avg != 0 {
			t.Errorf("tiers=%d: priced move allocates %.2f objects/move, want 0", tiers, avg)
		}
	}
}
