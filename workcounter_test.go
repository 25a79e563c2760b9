package copack_test

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"copack"
	"copack/internal/obs"
)

// workCounts are one plan's exact work counters: the exchange's move and
// resync counts summed over restarts, the power-solver iterations summed
// over the ir-before and ir-after solves, and the heap allocations of the
// whole plan.
type workCounts struct {
	priced, infeasible, committed, resyncs int64
	powerIters                             int64
	allocs                                 int64
}

// workCounterTable pins the counters of the ten plan-table1 shapes (Table 1
// circuits 1–5 × ψ ∈ {1, 4}) at build and plan seed 1, Workers 1. A change
// that moves any of them changes the work a plan does: an intended
// re-baseline edits the affected columns here and lists old → new values in
// CHANGES.md.
var workCounterTable = map[string]workCounts{
	"c1/psi1": {31475, 11149, 15418, 13, 15, 469},
	"c1/psi4": {32579, 10045, 22450, 6, 15, 556},
	"c2/psi1": {57227, 13813, 36648, 19, 15, 511},
	"c2/psi4": {54859, 16181, 41615, 8, 15, 622},
	"c3/psi1": {73035, 19317, 47588, 24, 15, 534},
	"c3/psi4": {72513, 19839, 55520, 11, 15, 645},
	"c4/psi1": {130127, 26161, 90881, 39, 13, 599},
	"c4/psi4": {122701, 33587, 99241, 16, 13, 734},
	"c5/psi1": {163068, 35844, 118832, 48, 14, 599},
	"c5/psi4": {155878, 43034, 130155, 20, 13, 734},
}

// TestWorkCounterGate is the wall-clock-free performance gate: it plans
// every plan-table1 shape and compares the exact work counters against
// workCounterTable. The allocs column is skipped under -race, whose
// instrumentation allocates.
func TestWorkCounterGate(t *testing.T) {
	if testing.Short() {
		t.Skip("plans ten paper-size instances")
	}
	var got []string
	for ci, tc := range copack.Table1Circuits() {
		for _, psi := range []int{1, 4} {
			name := fmt.Sprintf("c%d/psi%d", ci+1, psi)
			p, err := copack.BuildCircuit(tc, copack.BuildOptions{Seed: 1, Tiers: psi})
			if err != nil {
				t.Fatal(err)
			}
			opt := copack.Options{Seed: 1, Workers: 1}
			col := obs.NewCollector()
			traced := opt
			traced.Recorder = col
			if _, err := copack.PlanContext(context.Background(), p, traced); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var c workCounts
			for k, v := range col.Snapshot().Counters {
				switch {
				case strings.HasSuffix(k, "/moves_priced"):
					c.priced += v
				case strings.HasSuffix(k, "/moves_infeasible"):
					c.infeasible += v
				case strings.HasSuffix(k, "/moves_committed"):
					c.committed += v
				case strings.HasSuffix(k, "/tracker_resyncs"):
					c.resyncs += v
				case strings.HasPrefix(k, "power/") && strings.HasSuffix(k, "/iterations"):
					c.powerIters += v
				}
			}
			// Allocations are counted on the uninstrumented plan: the
			// collector's own map entries are not the planner's work. The
			// runtime now and then adds a stray allocation to a run, never
			// removes one, so the minimum over a few runs is exact.
			want, ok := workCounterTable[name]
			if raceEnabled {
				want.allocs = 0
			} else {
				c.allocs = math.MaxInt64
				for r := 0; r < 3; r++ {
					c.allocs = min(c.allocs, int64(testing.AllocsPerRun(1, func() {
						if _, err := copack.PlanContext(context.Background(), p, opt); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
					})))
				}
			}
			if !ok || c != want {
				t.Errorf("%s: counters %+v, pinned %+v", name, c, want)
			}
			got = append(got, fmt.Sprintf("\t%q: {%d, %d, %d, %d, %d, %d},",
				name, c.priced, c.infeasible, c.committed, c.resyncs, c.powerIters, c.allocs))
		}
	}
	if t.Failed() {
		t.Logf("measured table (allocs read 0 under -race):\n%s", strings.Join(got, "\n"))
	}
}
