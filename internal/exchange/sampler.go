package exchange

import (
	"math/bits"

	"copack/internal/anneal"
)

// intnSampler draws exactly what rng.Intn(n) draws for one fixed n in
// [1, 2³¹−1], and leaves the stream at the same position: it consumes the
// same Int31 values (each is one Int63) with Int31n's rejection rule.
// Int31n spends two 32-bit divisions on every draw, one for its rejection
// bound and one for the final modulus. Both depend on n alone, so the
// sampler computes them once:
//
//   - max is Int31n's bound 2³¹−1 − (2³¹ mod n). For a power of two it is
//     2³¹−1, so nothing is rejected, just as Int31n's mask path.
//   - v mod n is Lemire's fastmod: with c = ⌊(2⁶⁴−1)/n⌋ + 1 = ⌈2⁶⁴/n⌉,
//     v mod n = ⌊((c·v mod 2⁶⁴)·n) / 2⁶⁴⌋ for every 32-bit v and n. For a
//     power of two that is v & (n−1), the mask Int31n takes.
type intnSampler struct {
	n   uint64
	c   uint64
	max int32
}

func newIntnSampler(n int) intnSampler {
	if n < 1 || n > 1<<31-1 {
		panic("exchange: intnSampler needs 1 <= n < 2^31")
	}
	return intnSampler{
		n:   uint64(n),
		c:   ^uint64(0)/uint64(n) + 1,
		max: int32(1<<31 - 1 - (1<<31)%uint32(n)),
	}
}

// draw returns rng.Intn(n).
func (s *intnSampler) draw(rng *anneal.Rand) int {
	v := rng.Int31()
	if v > s.max {
		v = s.redraw(rng)
	}
	return s.reduce(v)
}

// reduce maps an accepted draw v <= max to v mod n.
func (s *intnSampler) reduce(v int32) int {
	hi, _ := bits.Mul64(s.c*uint64(v), s.n)
	return int(hi)
}

// redraw continues Int31n's rejection loop after a rejected draw. A draw
// is rejected with probability (2³¹ mod n)/2³¹ < n/2³¹, so the loop lives
// out of line and the common path of a draw is one inlined Int31, one
// compare and one multiply.
func (s *intnSampler) redraw(rng *anneal.Rand) int32 {
	v := rng.Int31()
	for v > s.max {
		v = rng.Int31()
	}
	return v
}
