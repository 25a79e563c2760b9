// Command perfbench is copack's benchmark: it builds a seeded workload,
// measures it for a fixed time, checks every output, and prints one JSON
// result line. See README.md for the workloads and what each metric is
// predicted to move.
//
//	perfbench --workload plan-table1 --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// nothing but the benchmark's own clock around whole operations. With
// --trace 1 it carries the per-layer metrics: the benchmark calls each
// layer's public functions itself and times those calls, so the program
// under test carries no tracing of its own.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// unit strings shared by the metric tables.
const (
	uMs    = "ms"
	uS     = "s"
	uPerS  = "1/s"
	uMB    = "MB"
	uCount = "count"
	uFrac  = "frac"
)

// metricDef is one declared metric: the name BENCHMARK.json lists and its
// unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a --trace 0 run reports on every workload. Each
// is defined for every workload (README.md says what the operation is on
// each) and is never zero on a healthy run.
var endToEnd = []metricDef{
	{"setup_s", uS},
	{"p50_ms", uMs},
	{"ops_per_s", uPerS},
	{"peak_rss_mb", uMB},
}

// circuitLayers are the plan-table1 layer metrics also reported per Table 1
// circuit, suffixed .c1 … .c5.
var circuitLayers = []metricDef{
	{"plan_p50_ms", uMs},
	{"assign.ms", uMs},
	{"route.eval_ms", uMs},
	{"power.ir_before_ms", uMs},
	{"power.ir_after_ms", uMs},
	{"exchange.ms", uMs},
}

// perLayer are the metrics a --trace 1 run reports. A workload that does
// not exercise a layer reports it as 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		// Workload-level figures of the traced run.
		{"plan_p50_ms", uMs},
		{"plan_p90_ms", uMs},
		{"plans_per_s", uPerS},
		{"sweep3_p50_ms", uMs},
		{"sweep2_p50_ms", uMs},
		{"sweep_units_per_s", uPerS},
		{"failed_frac", uFrac},
		{"eq3_cost", "cost"},
		{"max_density", "wires"},
		{"ir_drop_mv", "mV"},
		// Layers.
		{"assign.ms", uMs},
		{"route.eval_ms", uMs},
		{"power.ir_before_ms", uMs},
		{"power.ir_after_ms", uMs},
		{"power.cg_iters", uCount},
		{"power.converged_frac", uFrac},
		{"exchange.ms", uMs},
		{"exchange.moves_priced", uCount},
		{"exchange.moves_infeasible", uCount},
		{"exchange.moves_committed", uCount},
		{"exchange.tracker_resyncs", uCount},
		{"exchange.ns_per_move", "ns"},
		{"anneal.accept_frac", uFrac},
		{"parallel.exchange_speedup", "x"},
		{"design.parse_ms", uMs},
		{"service.submit_ms", uMs},
		{"fleet.hop_ms", uMs},
		{"fleet.forwarded", uCount},
		{"fleet.retries", uCount},
		{"fleet.failovers", uCount},
		{"sweep.unit_ms", uMs},
		{"sweep.shard_ms", uMs},
		{"sweep.reduce_ms", uMs},
		{"sweep.first_event_ms", uMs},
		{"sweep.overhead_frac", uFrac},
		{"sweep.units", uCount},
		{"sweep.shards", uCount},
		// Harness.
		{"trace.overhead_frac", uFrac},
	}
	for c := 1; c <= 5; c++ {
		for _, d := range circuitLayers {
			defs = append(defs, metricDef{fmt.Sprintf("%s.c%d", d.name, c), d.unit})
		}
	}
	return defs
}()

// config is one run's parameters.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	// small shrinks every workload to a seconds-long smoke size; the
	// package tests use it.
	small bool
}

// report is what a workload run returns: its metrics (by declared name)
// plus the operation tallies and every check that failed.
type report struct {
	metrics   map[string]float64
	raw       map[string]float64 // end-to-end values before box-speed scaling
	box       boxSpeed
	attempted int
	failed    int
	problems  []string
}

func newReport() *report {
	return &report{metrics: map[string]float64{}, raw: map[string]float64{}}
}

// setTime records an end-to-end time at the nominal box speed. Call it
// after the run's last kernel sample.
func (r *report) setTime(name string, v float64) {
	r.raw[name] = v
	r.metrics[name] = v * r.box.scale()
}

// setSetup records setup_s, already at the nominal box speed, and its raw
// value.
func (r *report) setSetup(scaled, raw float64) {
	r.raw["setup_s"] = raw
	r.metrics["setup_s"] = scaled
}

// setRate records an end-to-end rate at the nominal box speed.
func (r *report) setRate(name string, v float64) {
	r.raw[name] = v
	r.metrics[name] = v / r.box.scale()
}

// check records a failed correctness check.
func (r *report) check(ok bool, format string, args ...any) bool {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
	return ok
}

// workload is one named traffic mix; README.md says why each exists.
type workload struct {
	name string
	run  func(cfg config) (*report, error)
}

var workloads = []workload{
	{"plan-table1", runPlanTable1},
	{"sweep-fleet", runSweepFleet},
}

// measureProcs is the GOMAXPROCS every workload runs at. The two vCPUs of
// the shared VMs this was built on slow each other down by up to 2× when
// both are busy, a swing no one-CPU reference kernel tracks; on one P a
// workload's times follow the reference kernel.
const measureProcs = 1

// exec runs the workload at measureProcs, restoring the caller's
// GOMAXPROCS after.
func (w workload) exec(cfg config) (*report, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(measureProcs))
	return w.run(cfg)
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// jsonMetric is one metric of the result line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of stdout.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// finish turns a workload report into the result line's metric set: the
// declared list for the run's mode, in full. An end-to-end metric the
// workload did not measure (absent or zero) is a benchmark bug and fails
// the run; an unexercised per-layer metric reads 0.
func finish(rep *report, trace bool) result {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	res := result{Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]jsonMetric{}}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			rep.problems = append(rep.problems, fmt.Sprintf("benchmark computed %v for %s", v, d.name))
			v = 0
		}
		if !trace && !(ok && v > 0) {
			rep.problems = append(rep.problems, "benchmark measured no value for "+d.name)
		}
		res.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	for name := range rep.metrics {
		if _, ok := res.Metrics[name]; !ok && !isDeclared(name) {
			rep.problems = append(rep.problems, "benchmark produced undeclared metric "+name)
		}
	}
	res.Correct = len(rep.problems) == 0
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Correct = false
		rep.problems = append(rep.problems, "no operation was attempted")
	}
	return res
}

func isDeclared(name string) bool {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return true
			}
		}
	}
	return false
}

// hostInfo is printed before the result so every figure carries the box it
// was measured on.
type hostInfo struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	NumCPU     int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
}

// commit is the VCS revision the binary was built from, when the build saw
// one; a checkout without version control reports "unknown".
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, modified := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			modified = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if modified {
		rev += "+dirty"
	}
	return rev
}

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measured time per run")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics instead of the end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of:", *name)
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, " %s", w.name)
		}
		fmt.Fprintln(os.Stderr, ")")
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1}
	host := hostInfo{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		NumCPU: runtime.NumCPU(), GoMaxProcs: measureProcs,
		GoVersion: runtime.Version(), Commit: commit(),
	}
	hb, _ := json.Marshal(map[string]hostInfo{"host": host})
	fmt.Println(string(hb))

	rep, err := w.exec(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	res := finish(rep, cfg.trace)
	if !cfg.trace {
		box, _ := json.Marshal(map[string]any{"box": map[string]any{
			"ref_kernel_ms": median(rep.box.samples), "kernel_samples": len(rep.box.samples),
			"scale": rep.box.scale(), "raw": rep.raw}})
		fmt.Println(string(box))
	}
	printHuman(res)
	for _, p := range rep.problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// printHuman lists every metric by name with its unit.
func printHuman(res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)
}

// deadline is the end of a measured window that starts now.
func deadline(seconds float64) time.Time {
	return time.Now().Add(time.Duration(seconds * float64(time.Second)))
}
