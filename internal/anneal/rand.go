package anneal

import "math/rand"

// Rand is the annealer's random number generator. Its stream is exactly
// that of rand.New(rand.NewSource(seed)) — every Int63, Int31, Intn and
// Float64 returns the value math/rand would, in the same order — but it is
// a concrete type, so the hot loop's draws are inlined instead of calls
// through the rand.Source interface.
//
// math/rand's default source is an additive lagged-Fibonacci generator:
// its n-th 64-bit output is o_n = o_{n−607} + o_{n−273} (mod 2⁶⁴), started
// from 607 seed-derived values o_{−607..−1}. Rand runs the same recurrence
// over a ring that holds o_m at index m mod 607. NewRand draws the first
// 607 outputs from rand.NewSource(seed) and runs the recurrence backwards,
// o_{m−607} = o_m − o_{m−273}, to recover the 607 values before them; from
// there the two generators compute the same outputs by construction.
type Rand struct {
	vec  [lfLen]uint64
	feed int // index of o_{n−607}, overwritten by o_n
	tap  int // index of o_{n−273}
}

const (
	lfLen = 607 // longer lag
	lfTap = 273 // shorter lag
)

// NewRand returns a generator whose stream equals
// rand.New(rand.NewSource(seed)).
func NewRand(seed int64) *Rand {
	src := rand.NewSource(seed).(rand.Source64)
	r := &Rand{feed: 0, tap: lfLen - lfTap}
	v := &r.vec
	for k := range v {
		v[k] = src.Uint64() // o_k
	}
	// Replace each o_k by o_{k−607} = o_k − o_{k−273}, from the top down:
	// for k >= 273, v[k−273] still holds o_{k−273}; below that, o_{k−273}
	// is the start value already recovered at v[k+334].
	for k := lfLen - 1; k >= lfTap; k-- {
		v[k] -= v[k-lfTap]
	}
	for k := lfTap - 1; k >= 0; k-- {
		v[k] -= v[k+lfLen-lfTap]
	}
	return r
}

// Uint64 returns a pseudo-random 64-bit value, as rand.Source64 does.
func (r *Rand) Uint64() uint64 {
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	r.feed++
	if r.feed == lfLen {
		r.feed = 0
	}
	r.tap++
	if r.tap == lfLen {
		r.tap = 0
	}
	return x
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (r *Rand) Int63() int64 { return int64(r.Uint64() &^ (1 << 63)) }

// Int31 returns a non-negative pseudo-random 31-bit integer.
func (r *Rand) Int31() int32 { return int32(r.Int63() >> 32) }

// Int31n returns a value in [0, n) by math/rand's rule: a mask for a
// power of two, otherwise rejection of the top 2³¹ mod n values and a
// modulus. It panics if n <= 0.
func (r *Rand) Int31n(n int32) int32 {
	if n <= 0 {
		panic("anneal: invalid argument to Int31n")
	}
	if n&(n-1) == 0 {
		return r.Int31() & (n - 1)
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := r.Int31()
	for v > max {
		v = r.Int31()
	}
	return v % n
}

// Int63n is Int31n's 63-bit counterpart, math/rand's rule likewise.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("anneal: invalid argument to Int63n")
	}
	if n&(n-1) == 0 {
		return r.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := r.Int63()
	for v > max {
		v = r.Int63()
	}
	return v % n
}

// Intn returns a value in [0, n): Int31n for n < 2³¹, Int63n above, as
// math/rand does. It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("anneal: invalid argument to Intn")
	}
	if n <= 1<<31-1 {
		return int(r.Int31n(int32(n)))
	}
	return int(r.Int63n(int64(n)))
}

// Float64 returns a value in [0, 1): Int63 / 2⁶³, redrawn in the rare case
// the division rounds up to 1 — math/rand's Go 1 value stream.
func (r *Rand) Float64() float64 {
	for {
		f := float64(r.Int63()) / (1 << 63)
		if f != 1 {
			return f
		}
	}
}
