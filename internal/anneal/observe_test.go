package anneal

import (
	"testing"

	"copack/internal/obs"
)

// TestStatsRecord checks the telemetry emitted for one finished anneal:
// every counter mirrors its Stats field, the derived rejected count is
// Proposed-Accepted, and the schedule gauges reflect the defaulted
// schedule.
func TestStatsRecord(t *testing.T) {
	s := Stats{
		Plateaus: 7, Proposed: 100, Infeasible: 5, Accepted: 60, Uphill: 12,
		FinalCost: 2.5, BestCost: 1.25, LastTemp: 0.125,
		Interrupted: true,
	}
	col := obs.NewCollector()
	sched := Schedule{} // all defaults
	s.Record(col, sched)
	snap := col.Snapshot()

	wantCounters := map[string]int64{
		"plateaus":    7,
		"proposed":    100,
		"accepted":    60,
		"rejected":    40,
		"uphill":      12,
		"infeasible":  5,
		"interrupted": 1,
	}
	for k, want := range wantCounters {
		if got := snap.Counters[k]; got != want {
			t.Errorf("counter %s = %d, want %d", k, got, want)
		}
	}
	def := sched.withDefaults()
	wantGauges := map[string]float64{
		"final_cost":     2.5,
		"best_cost":      1.25,
		"temp_initial":   def.InitialTemp,
		"temp_floor":     def.FinalTemp,
		"temp_last":      0.125,
		"cooling":        def.Cooling,
		"moves_per_temp": float64(def.MovesPerTemp),
	}
	for k, want := range wantGauges {
		if got := snap.Gauges[k]; got != want {
			t.Errorf("gauge %s = %v, want %v", k, got, want)
		}
	}

	// An uninterrupted run emits no interrupted counter at all.
	s2 := Stats{Proposed: 1}
	col2 := obs.NewCollector()
	s2.Record(col2, sched)
	snap2 := col2.Snapshot()
	if _, ok := snap2.Counters["interrupted"]; ok {
		t.Error("uninterrupted run emitted interrupted counter")
	}

	// Recording to a NopRecorder must be callable (and do nothing).
	s.Record(obs.NopRecorder{}, sched)
}
