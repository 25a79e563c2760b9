package exchange

import (
	"math/rand"
	"testing"

	"copack/internal/anneal"
)

// The sampler must be math/rand's Intn, draw for draw: the same values
// from the same seed, and the stream left at the same position afterwards
// (the next Int63 agrees), so swapping it into pickSlot cannot move a
// single bit of an anneal. The oracle is math/rand itself, not
// anneal.Rand, so this also checks the generator the sampler draws from.
func TestIntnSamplerMatchesRandIntn(t *testing.T) {
	ns := []int{1<<31 - 1, 1<<30 + 3, 3 << 28}
	for n := 1; n <= 4096; n++ {
		ns = append(ns, n)
	}
	for _, n := range ns {
		s := newIntnSampler(n)
		seed := int64(n)*7919 + 1
		want := rand.New(rand.NewSource(seed))
		got := anneal.NewRand(seed)
		for d := 0; d < 64; d++ {
			if w, g := want.Intn(n), s.draw(got); w != g {
				t.Fatalf("n=%d draw %d: sampler %d, rand.Intn %d", n, d, g, w)
			}
		}
		if w, g := want.Int63(), got.Int63(); w != g {
			t.Fatalf("n=%d: stream position differs after the draws (next Int63 %d vs %d)", n, g, w)
		}
	}
}

func TestIntnSamplerRejectsBadN(t *testing.T) {
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("newIntnSampler(%d) did not panic", n)
				}
			}()
			newIntnSampler(n)
		}()
	}
}
