package sweep

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// FuzzSweepRequest throws arbitrary bytes at the sweep request front half —
// strict decode, then Normalize against a 64-unit cap — which both POST
// /sweeps and the shard hop run on untrusted input. Invariants: nothing
// panics; every rejection is a 4xx *HTTPError; every acceptance holds 1 to
// 64 seeds; and the accepted spec is a fixed point — re-normalizing its
// canonical {kind, seeds, random_tries} form yields an equal Spec. The
// committed corpus (testdata/fuzz/FuzzSweepRequest) covers valid requests
// of both kinds, huge, negative and mutually exclusive num_seeds, and
// malformed bodies.
func FuzzSweepRequest(f *testing.F) {
	const maxSeeds = 64
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRequest(strings.NewReader(string(data)))
		if err != nil {
			require4xx(t, err, data)
			return
		}
		sp, err := req.Normalize(maxSeeds)
		if err != nil {
			require4xx(t, err, data)
			return
		}
		if n := len(sp.Seeds); n < 1 || n > maxSeeds {
			t.Fatalf("accepted %d seeds, want 1..%d (input %q)", n, maxSeeds, data)
		}
		wire := Request{Kind: string(sp.Kind), Seeds: sp.Seeds, RandomTries: sp.RandomTries}
		again, err := wire.Normalize(maxSeeds)
		if err != nil {
			t.Fatalf("canonical form rejected: %v (input %q)", err, data)
		}
		if !reflect.DeepEqual(again, sp) {
			t.Fatalf("canonical form is not a fixed point: %+v vs %+v (input %q)", again, sp, data)
		}
	})
}

// FuzzShardRequest throws arbitrary bytes at the internal POST
// /sweeps/shard front half — DecodeShardRequest, then the validation
// RunShardLocal runs before it queues a unit. Invariants: nothing
// panics; every rejection is a 4xx *HTTPError; every accepted shard names
// a 1- to 64-seed sweep and lists each unit index in range and at most
// once, so a shard can never make a node run more units than its sweep
// holds. The committed corpus (testdata/fuzz/FuzzShardRequest) covers a
// valid shard, duplicate, negative and out-of-range units, an empty unit
// list, a bad spec, trailing objects and malformed bodies.
func FuzzShardRequest(f *testing.F) {
	const maxSeeds = 64
	f.Fuzz(func(t *testing.T, data []byte) {
		sr, err := DecodeShardRequest(strings.NewReader(string(data)))
		if err != nil {
			require4xx(t, err, data)
			return
		}
		sp, err := sr.normalize(maxSeeds)
		if err != nil {
			require4xx(t, err, data)
			return
		}
		if n := len(sp.Seeds); n < 1 || n > maxSeeds {
			t.Fatalf("accepted a %d-seed sweep, want 1..%d (input %q)", n, maxSeeds, data)
		}
		if len(sr.Units) < 1 || len(sr.Units) > len(sp.Seeds) {
			t.Fatalf("accepted %d units of a %d-seed sweep (input %q)", len(sr.Units), len(sp.Seeds), data)
		}
		seen := map[int]bool{}
		for _, u := range sr.Units {
			if u < 0 || u >= len(sp.Seeds) || seen[u] {
				t.Fatalf("accepted unit %d of %v (input %q)", u, sr.Units, data)
			}
			seen[u] = true
		}
	})
}

// require4xx asserts a rejection is an *HTTPError with a client-fault
// status and a message.
func require4xx(t *testing.T, err error, input []byte) {
	t.Helper()
	var he *HTTPError
	if !errors.As(err, &he) {
		t.Fatalf("rejection is not an *HTTPError: %T %v (input %q)", err, err, input)
	}
	if he.Status < 400 || he.Status > 499 || he.Msg == "" {
		t.Fatalf("rejection %d %q is not a 4xx with a message (input %q)", he.Status, he.Msg, input)
	}
}
