package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"testing"

	"copack"
	"copack/internal/sweep"
)

// benchmarkFile is the part of BENCHMARK.json the program must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestBenchmarkFileMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) < 2 {
		t.Errorf("BENCHMARK.json declares %d workloads, want at least 2", len(bf.Workloads))
	}
	for _, w := range bf.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
	var e2e, layers []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range bf.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program declares %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, program declares %v", layers, perLayer)
	}
}

// TestWorkloadsEmitEveryMetric runs every workload at smoke size, untraced
// and traced, and checks the result line carries every declared metric
// with its unit, that the end-to-end ones are measured (non-zero), and
// that every check passes.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			w, trace := w, trace
			name := w.name + "/untraced"
			if trace {
				name = w.name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				rep, err := w.exec(config{seed: 3, seconds: 0.3, trace: trace, small: true})
				if err != nil {
					t.Fatal(err)
				}
				res := finish(rep, trace)
				if !res.Correct {
					t.Fatalf("checks failed: %v", rep.problems)
				}
				if res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.name, m, d.unit)
					}
					if !trace && !(m.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, want a positive measurement", d.name, m.Value)
					}
				}
				if _, err := json.Marshal(res); err != nil {
					t.Errorf("result does not marshal: %v", err)
				}
			})
		}
	}
}

func TestFinishFlagsMissingEndToEndMetric(t *testing.T) {
	rep := newReport()
	rep.attempted = 1
	rep.metrics["setup_s"] = 1
	if res := finish(rep, false); res.Correct {
		t.Fatal("a run missing end-to-end metrics passed")
	}
}

// TestCheckerRejectsTamperedSweepResults feeds checkSweepResult a real
// result body, made in process the way the fleet makes it, and tampered
// copies of it.
func TestCheckerRejectsTamperedSweepResults(t *testing.T) {
	c := sweepCase{kind: sweep.KindTable2, seeds: []int64{11, 12}}
	sp, err := c.spec()
	if err != nil {
		t.Fatal(err)
	}
	results := make([]json.RawMessage, len(sp.Seeds))
	for i := range sp.Seeds {
		if results[i], err = sweep.RunUnit(sp, i, nil); err != nil {
			t.Fatal(err)
		}
	}
	good, err := sp.Reduce(results)
	if err != nil {
		t.Fatal(err)
	}
	if rep := newReport(); !checkSweepResult(rep, "good", c, good) {
		t.Fatalf("a real result body was rejected: %v", rep.problems)
	}
	edit := func(f func(m map[string]any)) []byte {
		var m map[string]any
		if err := json.Unmarshal(good, &m); err != nil {
			t.Fatal(err)
		}
		f(m)
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for name, body := range map[string][]byte{
		"not a result":   []byte(`{"error":"x"}`),
		"truncated":      good[:len(good)/2],
		"other kind":     edit(func(m map[string]any) { m["kind"] = string(sweep.KindTable3) }),
		"seed missing":   edit(func(m map[string]any) { m["seeds"] = []int64{11} }),
		"seeds reversed": edit(func(m map[string]any) { m["seeds"] = []int64{12, 11} }),
		"no table2":      edit(func(m map[string]any) { delete(m, "table2") }),
		"table2 seeds":   edit(func(m map[string]any) { m["table2"].(map[string]any)["Seeds"] = []int64{11, 13} }),
	} {
		if rep := newReport(); checkSweepResult(rep, name, c, body) || len(rep.problems) == 0 {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckerRejectsIllegalOrDriftingPlans(t *testing.T) {
	cases, err := table1Cases(4, true)
	if err != nil {
		t.Fatal(err)
	}
	c := cases[0]
	res, err := copack.PlanContext(context.Background(), c.p, c.opt)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]planPrint{}
	if rep := newReport(); !checkPlan(rep, seen, c, res, nil) {
		t.Fatalf("a real plan was rejected: %v", rep.problems)
	}

	illegal := *res
	illegal.Assignment = res.Assignment.Clone()
	slices.Reverse(illegal.Assignment.Slots[copack.Bottom])
	if copack.CheckMonotonic(c.p, illegal.Assignment) == nil {
		t.Fatal("reversed bottom order is still legal; pick another tamper")
	}
	if rep := newReport(); checkPlan(rep, map[int]planPrint{}, c, &illegal, nil) {
		t.Error("an illegal order was accepted")
	}

	drift := *res
	ex := *res.Exchange
	ex.Stats.Proposed++
	drift.Exchange = &ex
	if rep := newReport(); checkPlan(rep, seen, c, &drift, nil) {
		t.Error("a repeated plan with a different move count was accepted")
	}

	partial := *res
	partial.Partial = true
	if rep := newReport(); checkPlan(rep, map[int]planPrint{}, c, &partial, nil) {
		t.Error("a partial plan was accepted")
	}
}

func TestTracedDecompositionMatchesPlan(t *testing.T) {
	cases, err := table1Cases(6, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases[:3] {
		res, err := copack.PlanContext(context.Background(), c.p, c.opt)
		if err != nil {
			t.Fatal(err)
		}
		tp, err := runTraced(context.Background(), c.p, c.opt)
		if err != nil {
			t.Fatal(err)
		}
		if diff := sameResult(tp.res, res); diff != "" {
			t.Errorf("%s: traced decomposition differs in %s", c.label, diff)
		}
		if tp.counts.priced == 0 || tp.counts.cgIters == 0 || tp.counts.solves != 2 {
			t.Errorf("%s: counters not collected: %+v", c.label, tp.counts)
		}
	}
}

func TestSeedDeterminesInputs(t *testing.T) {
	labels := func(seed int64) []string {
		cases, err := table1Cases(seed, false)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, c := range cases {
			out = append(out, c.label+"/"+copack.FormatDesign(c.p))
		}
		return out
	}
	if !slices.Equal(labels(7), labels(7)) {
		t.Error("the same seed gave two plan-table1 case sets")
	}
	if slices.Equal(labels(7), labels(8)) {
		t.Error("different seeds gave the same plan-table1 case set")
	}

	sweeps := func(seed int64) []sweepCase {
		src := newSweepSource(seed, sweepSeeds)
		var out []sweepCase
		for i := 0; i < 6; i++ {
			out = append(out, src.next())
		}
		return out
	}
	if !reflect.DeepEqual(sweeps(7), sweeps(7)) {
		t.Error("the same seed gave two sweep sequences")
	}
	if reflect.DeepEqual(sweeps(7), sweeps(8)) {
		t.Error("different seeds gave the same sweep sequence")
	}
}
