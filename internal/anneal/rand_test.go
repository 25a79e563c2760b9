package anneal

import (
	"math"
	"math/rand"
	"testing"
)

// randSeeds covers math/rand's seed folding: seeds are reduced mod 2³¹−1,
// negatives are shifted up, and a zero remainder is remapped to 89482311,
// so 0, the multiples of 2³¹−1 and 89482311 itself share one stream.
var randSeeds = []int64{
	0, 1, 42, -1, -12345, math.MinInt64, math.MaxInt64,
	1<<31 - 1, 2 * (1<<31 - 1), -(1<<31 - 1), 1000 * (1<<31 - 1),
	1 << 40, 89482311,
}

// randNs are Intn/Int31n/Int63n arguments: powers of two (the mask path),
// small odd sizes, and sizes just above a power of two, where the rejection
// loop redraws almost half the time.
var randNs = []int64{1, 2, 3, 4, 7, 64, 100, 607, 1<<30 + 1, 1<<31 - 1, 1 << 31, 1<<31 + 1, 1<<62 + 1, math.MaxInt64}

// applyRandOp runs one operation on both generators and returns both
// results. kind picks the method and n its argument.
func applyRandOp(got *Rand, want *rand.Rand, kind int, n int64) (g, w any) {
	switch kind {
	case 0:
		return got.Int63(), want.Int63()
	case 1:
		return got.Int31(), want.Int31()
	case 2:
		return got.Uint64(), want.Uint64()
	case 3:
		return got.Float64(), want.Float64()
	case 4:
		return got.Intn(int(n)), want.Intn(int(n))
	case 5:
		m := int32(n%(1<<31-1)) + 1
		return got.Int31n(m), want.Int31n(m)
	case 6:
		return got.Int63n(n), want.Int63n(n)
	default:
		return got.Intn(int(n%(1<<20) + 1)), want.Intn(int(n%(1<<20) + 1))
	}
}

// TestRandMatchesMathRand draws well over 10⁶ values from anneal.Rand and
// from rand.New(rand.NewSource(seed)) side by side, mixing every method in
// an order driven by a third stream, and requires every value to agree.
// The runs cross the 607-value ring many times over.
func TestRandMatchesMathRand(t *testing.T) {
	const opsPerSeed = 100_000
	for _, seed := range randSeeds {
		got, want := NewRand(seed), rand.New(rand.NewSource(seed))
		order := rand.New(rand.NewSource(seed ^ 0x5eed))
		for k := 0; k < opsPerSeed; k++ {
			kind, n := order.Intn(8), randNs[order.Intn(len(randNs))]
			if g, w := applyRandOp(got, want, kind, n); g != w {
				t.Fatalf("seed %d op %d (kind %d, n %d): anneal.Rand %v, math/rand %v", seed, k, kind, n, g, w)
			}
		}
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("seed %d: streams apart after the run: %d vs %d", seed, g, w)
		}
	}
}

// Float64 must redraw when Int63/2⁶³ rounds up to 1, as math/rand does.
// No seed is known to hit that 2⁻⁵⁴-rare case, so the test plants it.
func TestRandFloat64RedrawsOne(t *testing.T) {
	r := NewRand(7)
	r.vec[r.feed], r.vec[r.tap] = 1<<63-1, 0 // next Int63 is 2⁶³−1
	next := *r
	next.Uint64()
	want := next.Float64()
	if got := r.Float64(); got != want || got == 1 {
		t.Fatalf("Float64 = %v, want the redraw %v", got, want)
	}
}

func TestRandPanicsOnBadN(t *testing.T) {
	r := NewRand(1)
	for name, f := range map[string]func(){
		"Intn(0)":    func() { r.Intn(0) },
		"Int31n(-1)": func() { r.Int31n(-1) },
		"Int63n(0)":  func() { r.Int63n(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

// FuzzRandMatchesMathRand checks stream identity for any seed and any
// sequence of operations: each op byte picks a method (low 3 bits) and a
// repeat count (high 5 bits, up to 125 draws), so short inputs already run
// past the first 607 values.
func FuzzRandMatchesMathRand(f *testing.F) {
	f.Add(int64(0), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(int64(1<<31-1), []byte{0xff, 0xf8, 0xfb, 0xfc})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		got, want := NewRand(seed), rand.New(rand.NewSource(seed))
		for i, b := range ops {
			kind, reps := int(b&7), 1+int(b>>3)*4
			n := randNs[i%len(randNs)]
			for r := 0; r < reps; r++ {
				if g, w := applyRandOp(got, want, kind, n); g != w {
					t.Fatalf("seed %d op %d rep %d (kind %d, n %d): anneal.Rand %v, math/rand %v", seed, i, r, kind, n, g, w)
				}
			}
		}
	})
}
