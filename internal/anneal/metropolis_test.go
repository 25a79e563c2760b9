package anneal

import (
	"math"
	"testing"
)

// TestMetropolisMatchesExp checks the Taylor-bound filter against the test
// it replaces, u < math.Exp(x), on over 10⁷ (u, x) pairs. The u values sit
// where a wrong early answer would show: one ulp either side of Exp(x), on
// and next to both polynomial thresholds, at 0 and just below 1, and as
// drawn by Float64. The x values are the edge cases (−0, −1e-300, −1, the
// underflow point −745, −Inf, NaN) and a spread of magnitudes from 1e-12
// to 1e6 both ways of the x = −1 switch.
func TestMetropolisMatchesExp(t *testing.T) {
	xs := []float64{
		math.Copysign(0, -1), -1e-300, -5e-324, -1e-12, -1e-8, -0.5,
		math.Nextafter(-1, 0), -1, math.Nextafter(-1, -2), -2, -10, -40,
		-708, -745, -745.2, -746, -1e5, -1e103, -1e200, -math.MaxFloat64,
		math.Inf(-1), math.NaN(),
	}
	rng := NewRand(1)
	for len(xs) < 1_000_000 {
		// Log-uniform magnitudes over 1e-12..1e6, plus uniform [-1.5, 0).
		xs = append(xs, -math.Exp(rng.Float64()*41.4-27.6), -1.5*rng.Float64())
	}
	pairs := 0
	check := func(u, x float64) {
		pairs++
		if got, want := metropolis(u, x), u < math.Exp(x); got != want {
			t.Fatalf("metropolis(%v, %v) = %v, u < Exp(x) = %v (Exp = %v)", u, x, got, want, math.Exp(x))
		}
	}
	for _, x := range xs {
		e := math.Exp(x)
		a := x * x * 0.5
		b := x * x * x * (1.0 / 6)
		lo := 1 + x + a + b - 1e-12 // the accept threshold
		hi := (1 + 1e-12) / (1 - x + a - b)
		for _, u := range []float64{
			e, math.Nextafter(e, 1), math.Nextafter(e, -1),
			math.Nextafter(math.Nextafter(e, 2), 2), math.Nextafter(math.Nextafter(e, -1), -1),
			lo, math.Nextafter(lo, 2), math.Nextafter(lo, -1),
			hi, math.Nextafter(hi, 2), math.Nextafter(hi, -1),
			0, 5e-324, math.Nextafter(1, 0), 1 - 1.0/(1<<53)*3,
			rng.Float64(), rng.Float64(),
		} {
			if u >= 0 { // NaN thresholds (x = NaN) drop out here
				check(u, x)
			}
		}
	}
	if pairs < 10_000_000 {
		t.Fatalf("only %d pairs checked, want at least 10⁷", pairs)
	}
}
