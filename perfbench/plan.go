package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"time"

	"copack"
	"copack/internal/assign"
	"copack/internal/bga"
	"copack/internal/exchange"
	"copack/internal/obs"
	"copack/internal/power"
	"copack/internal/route"
)

// planCase is one distinct plan: a problem and the options PlanContext
// gets. circuit is the Table 1 index (1..5).
type planCase struct {
	id      int
	label   string
	circuit int
	p       *copack.Problem
	opt     copack.Options
}

// planPrint is everything a plan must reproduce exactly when the same case
// runs again: the result and the annealer's work counts.
type planPrint struct {
	assignment string
	irBefore   uint64
	irAfter    uint64
	eq3        uint64
	maxDensity int
	wirelength uint64
	priced     int
	infeasible int
	committed  int
}

func fingerprint(a *copack.Assignment) string {
	var b strings.Builder
	for _, side := range bga.Sides() {
		for _, id := range a.Slots[side] {
			fmt.Fprintf(&b, "%d,", id)
		}
		b.WriteByte(';')
	}
	return b.String()
}

func printOf(res *copack.Result) planPrint {
	ex := res.Exchange
	return planPrint{
		assignment: fingerprint(res.Assignment),
		irBefore:   math.Float64bits(res.IRDropBefore),
		irAfter:    math.Float64bits(res.IRDropAfter),
		eq3:        math.Float64bits(ex.RestartCosts[ex.Restart]),
		maxDensity: res.FinalStats.MaxDensity,
		wirelength: math.Float64bits(res.FinalStats.Wirelength),
		priced:     ex.Stats.Proposed,
		infeasible: ex.Stats.Infeasible,
		committed:  ex.Stats.Accepted,
	}
}

// checkPlan verifies one PlanContext result: complete, legal, and equal to
// every earlier run of the same case.
func checkPlan(rep *report, seen map[int]planPrint, c *planCase, res *copack.Result, err error) bool {
	if !rep.check(err == nil, "%s: plan failed: %v", c.label, err) {
		return false
	}
	ok := rep.check(!res.Partial, "%s: partial plan: %s", c.label, res.Stopped)
	ok = rep.check(res.Exchange != nil && res.Exchange.Legal, "%s: exchange reports an illegal order", c.label) && ok
	ok = rep.check(copack.CheckMonotonic(c.p, res.Assignment) == nil, "%s: final order is not monotonic-legal", c.label) && ok
	if !ok {
		return false
	}
	pr := printOf(res)
	if prev, dup := seen[c.id]; dup {
		return rep.check(prev == pr, "%s: repeated plan differs from its first run (%+v vs %+v)", c.label, pr, prev)
	}
	seen[c.id] = pr
	return true
}

// layerTimes is one traced plan's split over the pipeline's layers.
type layerTimes struct {
	assign, route, irBefore, exchange, irAfter time.Duration
}

func (l layerTimes) total() time.Duration {
	return l.assign + l.route + l.irBefore + l.exchange + l.irAfter
}

// planCounts are the exact work counters of one traced plan, summed over
// restarts and both IR solves.
type planCounts struct {
	priced, infeasible, committed, resyncs int64
	cgIters                                int64
	converged, solves                      int64
}

// tracedPlan is copack.PlanContext decomposed into its layers, each called
// through its package's public function with the options PlanContext
// derives, so every layer's time is the benchmark's own measurement. The
// obs.Collector rides the existing Recorder options to count the work.
type tracedPlan struct {
	times  layerTimes
	counts planCounts
	res    *copack.Result
}

func runTraced(ctx context.Context, p *copack.Problem, opt copack.Options) (*tracedPlan, error) {
	col := obs.NewCollector()
	t0 := time.Now()
	initial, err := assign.DFA(p, assign.DFAOptions{Cut: opt.DFACut})
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	st0, err := route.Evaluate(p, initial)
	if err != nil {
		return nil, err
	}
	initialStats := *st0
	t2 := time.Now()
	grid := opt.Grid
	if grid.Nx == 0 || grid.Ny == 0 {
		grid = power.DefaultChipGrid(p)
	}
	solveOpt := opt.Solve
	if solveOpt.Workers == 0 {
		solveOpt.Workers = opt.Workers
	}
	solveOpt.Recorder = obs.WithPrefix(col, "power/ir-before/")
	before, err := power.SolveAssignmentContext(ctx, p, initial, grid, solveOpt)
	if err != nil {
		return nil, err
	}
	t3 := time.Now()
	exOpt := opt.Exchange
	if exOpt.Seed == 0 {
		exOpt.Seed = opt.Seed
	}
	if exOpt.Workers == 0 {
		exOpt.Workers = opt.Workers
	}
	exOpt.Recorder = col
	ex, err := exchange.RunContext(ctx, p, initial, exOpt)
	if err != nil {
		return nil, err
	}
	t4 := time.Now()
	st1, err := route.Evaluate(p, ex.Assignment)
	if err != nil {
		return nil, err
	}
	finalStats := *st1
	t5 := time.Now()
	solveOpt.Recorder = obs.WithPrefix(col, "power/ir-after/")
	after, err := power.SolveAssignmentContext(ctx, p, ex.Assignment, grid, solveOpt)
	if err != nil {
		return nil, err
	}
	t6 := time.Now()

	tp := &tracedPlan{
		times: layerTimes{
			assign:   t1.Sub(t0),
			route:    t2.Sub(t1) + t5.Sub(t4),
			irBefore: t3.Sub(t2),
			exchange: t4.Sub(t3),
			irAfter:  t6.Sub(t5),
		},
		res: &copack.Result{
			Assignment: ex.Assignment, Initial: initial,
			InitialStats: &initialStats, FinalStats: &finalStats,
			Exchange: ex, IRDropBefore: before.MaxDrop(), IRDropAfter: after.MaxDrop(),
			Partial: ex.Interrupted || !before.Converged || !after.Converged,
		},
	}
	snap := col.Snapshot()
	for k, v := range snap.Counters {
		switch {
		case strings.HasSuffix(k, "/moves_priced"):
			tp.counts.priced += v
		case strings.HasSuffix(k, "/moves_infeasible"):
			tp.counts.infeasible += v
		case strings.HasSuffix(k, "/moves_committed"):
			tp.counts.committed += v
		case strings.HasSuffix(k, "/tracker_resyncs"):
			tp.counts.resyncs += v
		case strings.HasPrefix(k, "power/") && strings.HasSuffix(k, "/iterations"):
			tp.counts.cgIters += v
		case strings.HasPrefix(k, "power/") && strings.HasSuffix(k, "/solves"):
			tp.counts.solves += v
		}
	}
	for k, v := range snap.Gauges {
		if strings.HasPrefix(k, "power/") && strings.HasSuffix(k, "/converged") && v == 1 {
			tp.counts.converged++
		}
	}
	return tp, nil
}

// sameResult reports the first field where a traced decomposition and
// PlanContext disagree; "" when they are bit-identical.
func sameResult(traced, plan *copack.Result) string {
	switch {
	case fingerprint(traced.Initial) != fingerprint(plan.Initial):
		return "initial assignment"
	case fingerprint(traced.Assignment) != fingerprint(plan.Assignment):
		return "final assignment"
	case math.Float64bits(traced.IRDropBefore) != math.Float64bits(plan.IRDropBefore):
		return "IR drop before"
	case math.Float64bits(traced.IRDropAfter) != math.Float64bits(plan.IRDropAfter):
		return "IR drop after"
	case !reflect.DeepEqual(traced.InitialStats, plan.InitialStats):
		return "initial route stats"
	case !reflect.DeepEqual(traced.FinalStats, plan.FinalStats):
		return "final route stats"
	}
	te, pe := traced.Exchange, plan.Exchange
	if math.Float64bits(te.RestartCosts[te.Restart]) != math.Float64bits(pe.RestartCosts[pe.Restart]) {
		return "Eq 3 cost"
	}
	return ""
}

// planOrder is the visiting sequence of a closed loop: seeded
// permutations of the cases, back to back, so every case repeats once per
// lap.
type planOrder struct {
	cases []*planCase
	rng   *rand.Rand
	seq   []int
}

func (o *planOrder) at(i int) *planCase {
	for i >= len(o.seq) {
		o.seq = append(o.seq, o.rng.Perm(len(o.cases))...)
	}
	return o.cases[o.seq[i]]
}

// warmUp plans each problem once and checks it; the warm-up plans seed the
// repeat check.
func warmUp(rep *report, seen map[int]planPrint, cases []*planCase) {
	warmed := map[*copack.Problem]bool{}
	for _, c := range cases {
		if warmed[c.p] {
			continue
		}
		warmed[c.p] = true
		res, err := copack.PlanContext(context.Background(), c.p, c.opt)
		checkPlan(rep, seen, c, res, err)
	}
}

// table1Cases builds plan-table1's inputs from the seed: the five Table 1
// circuits at ψ = 1 and 4, each planned under several seeds.
func table1Cases(seed int64, small bool) ([]*planCase, error) {
	rng := rand.New(rand.NewSource(seed))
	seedsPer := 3
	tiers := []int{1, 4}
	if small {
		seedsPer, tiers = 1, []int{1}
	}
	var cases []*planCase
	for ci, tc := range copack.Table1Circuits() {
		for _, psi := range tiers {
			p, err := copack.BuildCircuit(tc, copack.BuildOptions{Seed: rng.Int63n(1<<31) + 1, Tiers: psi})
			if err != nil {
				return nil, err
			}
			for k := 0; k < seedsPer; k++ {
				s := rng.Int63n(1<<31) + 1
				cases = append(cases, &planCase{
					id: len(cases), label: fmt.Sprintf("c%d/psi%d/seed%d", ci+1, psi, s),
					circuit: ci + 1, p: p, opt: copack.Options{Seed: s, Workers: 1},
				})
			}
		}
	}
	return cases, nil
}

// runPlanTable1 sets up (setupRepeats times, reporting the median) and
// then runs the untraced or the traced measurement.
func runPlanTable1(cfg config) (*report, error) {
	rep := newReport()
	seen := map[int]planPrint{}
	cases, setup, rawSetup, err := timeSetups(&rep.box, func() ([]*planCase, error) {
		cases, err := table1Cases(cfg.seed, cfg.small)
		if err != nil {
			return nil, err
		}
		warmUp(rep, seen, cases)
		return cases, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	order := &planOrder{cases: cases, rng: rand.New(rand.NewSource(cfg.seed ^ 0x5eed))}
	if cfg.trace {
		measurePlansTraced(cfg, rep, seen, order)
	} else {
		measurePlans(cfg, rep, seen, order)
	}
	rep.setSetup(setup, rawSetup)
	rep.metrics["peak_rss_mb"] = peakRSSMB()
	return rep, nil
}

// measurePlans is the untraced closed loop behind the end-to-end metrics.
func measurePlans(cfg config, rep *report, seen map[int]planPrint, order *planOrder) {
	var lat []float64
	end := deadline(cfg.seconds)
	for i := 0; time.Now().Before(end); i++ {
		c := order.at(i)
		rep.box.sample(1)
		t := time.Now()
		res, err := copack.PlanContext(context.Background(), c.p, c.opt)
		d := time.Since(t)
		rep.attempted++
		if checkPlan(rep, seen, c, res, err) {
			lat = append(lat, ms(d))
		} else {
			rep.failed++
		}
	}
	rep.setTime("p50_ms", median(lat))
	// One caller plans back to back: good plans per second of planning,
	// leaving out the kernel pauses.
	rep.setRate("ops_per_s", 1e3*float64(len(lat))/sum(lat))
}

// decompositionTolerance bounds how far the traced layer times may sum
// from the untraced plan time, as a share of the latter.
const decompositionTolerance = 0.05

// minTracedPairs is the fewest cases the traced run times both ways, even
// when that outlasts --seconds.
const minTracedPairs = 16

// measurePlansTraced alternates an untraced PlanContext and the traced
// decomposition on each case (swapping which goes first), checks the two
// agree bit for bit, and reports the per-layer split.
func measurePlansTraced(cfg config, rep *report, seen map[int]planPrint, order *planOrder) {
	var (
		samples []planSample
		counts  = map[int]planCounts{}
		quality = map[int]*copack.Result{}
	)
	end := deadline(cfg.seconds)
	for i := 0; time.Now().Before(end) || (len(samples) < minTracedPairs && i < 2*minTracedPairs); i++ {
		c := order.at(i)
		var (
			res  *copack.Result
			perr error
			tp   *tracedPlan
			terr error
			d    time.Duration
		)
		untraced := func() {
			t := time.Now()
			res, perr = copack.PlanContext(context.Background(), c.p, c.opt)
			d = time.Since(t)
		}
		traced := func() { tp, terr = runTraced(context.Background(), c.p, c.opt) }
		if i%2 == 0 {
			untraced()
			traced()
		} else {
			traced()
			untraced()
		}
		rep.attempted++
		ok := checkPlan(rep, seen, c, res, perr)
		ok = rep.check(terr == nil, "%s: traced plan failed: %v", c.label, terr) && ok
		if ok {
			diff := sameResult(tp.res, res)
			ok = rep.check(diff == "", "%s: traced decomposition differs from PlanContext in %s", c.label, diff)
			ok = rep.check(!tp.res.Partial, "%s: traced plan is partial", c.label) && ok
		}
		if ok {
			if prev, dup := counts[c.id]; dup {
				ok = rep.check(prev == tp.counts, "%s: work counters differ between repetitions (%+v vs %+v)", c.label, tp.counts, prev)
			}
			counts[c.id] = tp.counts
			quality[c.id] = res
		}
		if !ok {
			rep.failed++
			continue
		}
		samples = append(samples, planSample{c: c, untraced: ms(d), times: tp.times})
	}

	// Layer means, overall and per circuit.
	layerMeans := func(ss []planSample, suffix string) {
		var lat, as, rt, ib, ex, ia []float64
		for _, s := range ss {
			lat = append(lat, s.untraced)
			as = append(as, ms(s.times.assign))
			rt = append(rt, ms(s.times.route))
			ib = append(ib, ms(s.times.irBefore))
			ex = append(ex, ms(s.times.exchange))
			ia = append(ia, ms(s.times.irAfter))
		}
		if len(ss) == 0 {
			return
		}
		rep.metrics["plan_p50_ms"+suffix] = median(lat)
		rep.metrics["assign.ms"+suffix] = mean(as)
		rep.metrics["route.eval_ms"+suffix] = mean(rt)
		rep.metrics["power.ir_before_ms"+suffix] = mean(ib)
		rep.metrics["exchange.ms"+suffix] = mean(ex)
		rep.metrics["power.ir_after_ms"+suffix] = mean(ia)
	}
	layerMeans(samples, "")
	for circuit := 1; circuit <= 5; circuit++ {
		var ss []planSample
		for _, s := range samples {
			if s.c.circuit == circuit {
				ss = append(ss, s)
			}
		}
		layerMeans(ss, fmt.Sprintf(".c%d", circuit))
	}

	var untraced, gaps []float64
	for _, s := range samples {
		untraced = append(untraced, s.untraced)
		gaps = append(gaps, (ms(s.times.total())-s.untraced)/s.untraced)
	}
	rep.metrics["plan_p90_ms"] = quantile(untraced, 0.9)
	rep.metrics["plans_per_s"] = 1e3 * float64(len(untraced)) / sum(untraced)
	rep.metrics["failed_frac"] = frac(float64(rep.failed), float64(rep.attempted))
	// Each case ran both ways back to back; the median of the paired
	// differences is the tracing overhead, robust to a noisy pair. The
	// check fails when the overhead is outside the tolerance by more than
	// twice the median's standard error, so box noise alone does not fail
	// a run of a few plans.
	overhead := median(gaps)
	rep.metrics["trace.overhead_frac"] = overhead
	if len(gaps) > 0 {
		se := 0.93 * (quantile(gaps, 0.75) - quantile(gaps, 0.25)) / math.Sqrt(float64(len(gaps)))
		fmt.Fprintf(os.Stderr, "perfbench: layer times sum to %+.2f%% ± %.2f%% of the untraced plan time (median of %d pairs)\n",
			100*overhead, 100*se, len(gaps))
		rep.check(math.Abs(overhead)-2*se <= decompositionTolerance,
			"layer times sum to %+.1f%% ± %.1f%% of the untraced plan time (median of %d pairs), tolerance %.0f%%",
			100*overhead, 100*se, len(gaps), 100*decompositionTolerance)
	}

	// Exact counts and quality: means over the distinct cases run, summed
	// in case order so the float means are exact too.
	var c planCounts
	var eq3, dens, ir []float64
	ids := make([]int, 0, len(counts))
	for id := range counts {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		pc := counts[id]
		c.priced += pc.priced
		c.infeasible += pc.infeasible
		c.committed += pc.committed
		c.resyncs += pc.resyncs
		c.cgIters += pc.cgIters
		c.converged += pc.converged
		c.solves += pc.solves
		res := quality[id]
		eq3 = append(eq3, res.Exchange.RestartCosts[res.Exchange.Restart])
		dens = append(dens, float64(res.FinalStats.MaxDensity))
		ir = append(ir, 1e3*res.IRDropAfter)
	}
	n := float64(len(counts))
	rep.metrics["exchange.moves_priced"] = frac(float64(c.priced), n)
	rep.metrics["exchange.moves_infeasible"] = frac(float64(c.infeasible), n)
	rep.metrics["exchange.moves_committed"] = frac(float64(c.committed), n)
	rep.metrics["exchange.tracker_resyncs"] = frac(float64(c.resyncs), n)
	rep.metrics["power.cg_iters"] = frac(float64(c.cgIters), n)
	rep.metrics["power.converged_frac"] = frac(float64(c.converged), float64(c.solves))
	rep.metrics["anneal.accept_frac"] = frac(float64(c.committed), float64(c.priced))
	var exMs, moves float64
	for _, s := range samples {
		pc := counts[s.c.id]
		exMs += ms(s.times.exchange)
		moves += float64(pc.priced + pc.infeasible)
	}
	rep.metrics["exchange.ns_per_move"] = 1e6 * frac(exMs, moves)
	rep.metrics["eq3_cost"] = mean(eq3)
	rep.metrics["max_density"] = mean(dens)
	rep.metrics["ir_drop_mv"] = mean(ir)

	measureSpeedup(rep, order.cases)
	measureParse(rep, order.cases)
}

// measureParse times copack.ParseDesign on each distinct problem's design
// text and checks the parse reproduces the text.
func measureParse(rep *report, cases []*planCase) {
	var parse []float64
	done := map[*copack.Problem]bool{}
	for _, c := range cases {
		if done[c.p] {
			continue
		}
		done[c.p] = true
		text := copack.FormatDesign(c.p)
		t := time.Now()
		p, err := copack.ParseDesign(text)
		parse = append(parse, ms(time.Since(t)))
		if rep.check(err == nil, "%s: design does not parse: %v", c.label, err) {
			rep.check(copack.FormatDesign(p) == text, "%s: design does not round-trip", c.label)
		}
	}
	rep.metrics["design.parse_ms"] = median(parse)
}

// planSample is one case run both untraced and traced.
type planSample struct {
	c        *planCase
	untraced float64
	times    layerTimes
}

// speedupCases is how many cases measureSpeedup times.
const speedupCases = 2

// measureSpeedup times the exchange layer of the workload's last (largest)
// cases with Restarts = nproc, at Workers 1 and at Workers nproc, from the
// same start order, with one P per CPU. Workers never changes the result;
// that is checked too.
func measureSpeedup(rep *report, cases []*planCase) {
	n := runtime.NumCPU()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	var one, many time.Duration
	for _, c := range cases[max(0, len(cases)-speedupCases):] {
		initial, err := assign.DFA(c.p, assign.DFAOptions{Cut: c.opt.DFACut})
		if !rep.check(err == nil, "%s: assignment failed: %v", c.label, err) {
			return
		}
		exOpt := c.opt.Exchange
		exOpt.Seed, exOpt.Restarts = c.opt.Seed, max(exOpt.Restarts, n)
		var prints [2]string
		for k, workers := range []int{1, n} {
			exOpt.Workers = workers
			t := time.Now()
			ex, err := exchange.RunContext(context.Background(), c.p, initial, exOpt)
			d := time.Since(t)
			if !rep.check(err == nil, "%s: Workers %d exchange failed: %v", c.label, workers, err) {
				return
			}
			prints[k] = fingerprint(ex.Assignment)
			if workers == 1 {
				one += d
			} else {
				many += d
			}
		}
		rep.check(prints[0] == prints[1], "%s: Workers 1 and Workers %d exchanges differ", c.label, n)
	}
	rep.metrics["parallel.exchange_speedup"] = frac(float64(one), float64(many))
}
