package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"copack/internal/anneal"
	"copack/internal/assign"
	"copack/internal/bga"
	"copack/internal/core"
	"copack/internal/exchange"
	"copack/internal/exp"
	"copack/internal/gen"
	"copack/internal/obs"
	"copack/internal/parallel"
	"copack/internal/portfolio"
	"copack/internal/power"
)

// Bench sizing knobs. Package variables rather than constants so the tests
// can shrink the run to seconds while exercising the full code path.
var (
	benchWorkerCounts = []int{1, 2, 4, 8}
	benchPricingMoves = 2_000_000
	// Large-tier knobs: the IR grid edge (odd, so the multigrid hierarchy
	// is deep), the circuit generator and the annealing schedule. The CI
	// smoke shrinks all three; the committed BENCH uses the defaults.
	benchLargeGridN    = 513
	benchLargeCircuit  = gen.Large
	benchLargeSchedule = anneal.Schedule{InitialTemp: 0.5, FinalTemp: 1e-2, Cooling: 0.8, MovesPerTemp: 50_000}
	// benchMCMFReps repeats the flow solves so the assign/mcmf surface's
	// wall clock is measurable (one solve is microseconds).
	benchMCMFReps = 200
	// benchPortfolioBudget is the restart budget for the anneal/portfolio
	// surface and the fixed-vs-adaptive comparison entries.
	benchPortfolioBudget = 8
)

// benchEntry is one timed (surface, workers) measurement. NsPerMove and
// AllocsPerMove are only set for the exchange/move-pricing entry, which
// measures the annealer's hot loop rather than a parallel surface.
// AllocsPerOp and BytesPerOp are heap-counter deltas over the single timed
// run of the entry (runtime.MemStats Mallocs/TotalAlloc), recorded for
// every entry so the allocation-discipline work is pinned in the
// trajectory files.
type benchEntry struct {
	Name       string  `json:"name"`
	Workers    int     `json:"workers"`
	Seconds    float64 `json:"seconds"`
	SpeedupVs1 float64 `json:"speedup_vs_1"`
	NsPerMove  float64 `json:"ns_per_move,omitempty"`
	// AllocsPerMove is a pointer so the pricing entry records an explicit
	// 0 (the invariant under test) while the surface entries omit it.
	AllocsPerMove *float64 `json:"allocs_per_move,omitempty"`
	AllocsPerOp   float64  `json:"allocs_per_op"`
	BytesPerOp    float64  `json:"bytes_per_op"`
	// Moves and TargetCost are only set for the exchange/to-target
	// entries: the anneal moves proposed before reaching TargetCost (the
	// cold DFA-seeded run's final Eq 3 cost against the shared baseline).
	Moves      float64 `json:"moves,omitempty"`
	TargetCost float64 `json:"target_cost,omitempty"`
}

// benchReport is the BENCH_<date>.json schema. CPUs and GoMaxProcs are
// recorded because the speedups are only meaningful relative to them.
type benchReport struct {
	Date       string       `json:"date"`
	GoVersion  string       `json:"go_version"`
	CPUs       int          `json:"cpus"`
	GoMaxProcs int          `json:"gomaxprocs"`
	Size       string       `json:"size,omitempty"`
	Entries    []benchEntry `json:"entries"`
	// SolverInternals holds the obs telemetry snapshot of each surface's
	// workers=1 run (solver iterations, residuals, per-restart anneal
	// counters, ...), keyed by surface name. Only surfaces that accept a
	// Recorder appear. The snapshots are deterministic, so two runs of the
	// same binary produce identical SolverInternals even though the timing
	// entries differ.
	SolverInternals map[string]*obs.Snapshot `json:"solver_internals,omitempty"`
}

// benchSurface is one parallel surface: run executes it at a worker count
// and returns a determinism fingerprint of its output. runBench requires
// the fingerprint of every workers>1 pass to equal the workers=1 one — the
// bench doubles as the cross-worker byte-identity gate, so a determinism
// regression cannot produce a BENCH file at all.
type benchSurface struct {
	name string
	run  func(workers int, rec obs.Recorder) (string, error)
}

// fingerprintAssignment hashes a full slot assignment.
func fingerprintAssignment(a *core.Assignment) string {
	h := fnv.New64a()
	for _, side := range bga.Sides() {
		for _, id := range a.Slots[side] {
			fmt.Fprintf(h, "%d,", id)
		}
		fmt.Fprint(h, ";")
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// fingerprintFloats hashes a float64 field bit for bit.
func fingerprintFloats(vs []float64) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range vs {
		bits := math.Float64bits(v)
		for k := 0; k < 8; k++ {
			buf[k] = byte(bits >> (8 * k))
		}
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// defaultSurfaces are the paper-scale parallel surfaces benched since the
// first BENCH file: multi-start exchange, the 96×96 IR solve and the
// Table 2 harness.
func defaultSurfaces() ([]benchSurface, error) {
	p := gen.MustBuild(gen.Table1()[2], gen.Options{Seed: 1, Tiers: 4})
	dfaA, err := assign.DFA(p, assign.DFAOptions{})
	if err != nil {
		return nil, err
	}
	g := power.GridSpec{
		Nx: 96, Ny: 96, Width: 100, Height: 100,
		RsX: 0.05, RsY: 0.05, Vdd: 1.0, CurrentDensity: 1e-5,
	}
	var pads []power.Pad
	for i := 0; i < g.Nx; i += 7 {
		pads = append(pads, power.Pad{I: i, J: 0}, power.Pad{I: i, J: g.Ny - 1})
	}
	return []benchSurface{
		{"exchange/restarts4", func(w int, rec obs.Recorder) (string, error) {
			res, err := exchange.Run(p, dfaA, exchange.Options{Seed: 1, Restarts: 4, Workers: w, Recorder: rec})
			if err != nil {
				return "", err
			}
			return fingerprintAssignment(res.Assignment), nil
		}},
		{"power/solve96x96", func(w int, rec obs.Recorder) (string, error) {
			s, err := power.Solve(g, pads, power.SolveOptions{Workers: w, Recorder: rec})
			if err != nil {
				return "", err
			}
			return fingerprintFloats(s.V), nil
		}},
		{"exp/table2", func(w int, rec obs.Recorder) (string, error) {
			res, err := exp.Table2(context.Background(), 1, 10, exp.Harness{Workers: w})
			if err != nil {
				return "", err
			}
			return res.Format(), nil
		}},
		{"assign/mcmf", func(w int, rec obs.Recorder) (string, error) {
			// Fan the flow solves over the worker pool: each unit is one
			// (circuit, rep); fingerprints are reduced in index order, so
			// the surface doubles as the MCMF cross-worker identity gate.
			circuits := gen.Table1()
			fps := make([]string, len(circuits))
			err := parallel.ForEachErr(context.Background(), len(circuits), w, func(_ context.Context, i int) error {
				p := gen.MustBuild(circuits[i], gen.Options{Seed: 1})
				var fp string
				for r := 0; r < benchMCMFReps; r++ {
					a, err := assign.MCMF(p, assign.MCMFOptions{})
					if err != nil {
						return err
					}
					next := fingerprintAssignment(a)
					if fp != "" && next != fp {
						return fmt.Errorf("assign/mcmf: %s rep %d fingerprint drifted", circuits[i].Name, r)
					}
					fp = next
				}
				fps[i] = fp
				return nil
			})
			if err != nil {
				return "", err
			}
			return strings.Join(fps, "|"), nil
		}},
		{"exchange/warmstart", func(w int, rec obs.Recorder) (string, error) {
			mcmfA, err := assign.MCMF(p, assign.MCMFOptions{})
			if err != nil {
				return "", err
			}
			res, err := exchange.Run(p, dfaA, exchange.Options{
				Seed: 1, Restarts: 4, Workers: w, Recorder: rec,
				Initial: func(int) *core.Assignment { return mcmfA },
			})
			if err != nil {
				return "", err
			}
			return fingerprintAssignment(res.Assignment), nil
		}},
		{"anneal/portfolio", func(w int, rec obs.Recorder) (string, error) {
			// The adaptive bandit over the default arm set. The fingerprint
			// concatenates the winning order with the arm-allocation trace
			// hash, so a scheduling-dependent bandit decision — not just a
			// different final assignment — trips the identity gate.
			res, err := exchange.Run(p, dfaA, exchange.Options{
				Seed: 1, Workers: w, Recorder: rec,
				Portfolio: portfolio.Default(benchPortfolioBudget),
			})
			if err != nil {
				return "", err
			}
			return fingerprintAssignment(res.Assignment) +
				"/" + fmt.Sprintf("%016x", res.Portfolio.TraceHash()), nil
		}},
	}, nil
}

// largeSurfaces is the 100k+-net scaling tier: the 513×513 IR grid solved
// by CG, multigrid and multigrid-preconditioned CG at the same tolerance
// (the mg-vs-cg wall-clock ratio is the tier's headline number), and the
// annealer on the gen.Large circuit. Entry names carry the nominal "512"
// tier label; the actual grid is 2⁹+1 per side, the vertex-centered size
// the multigrid hierarchy coarsens all the way down.
func largeSurfaces() ([]benchSurface, error) {
	p := gen.MustBuild(benchLargeCircuit(), gen.Options{Seed: 1})
	dfaA, err := assign.DFA(p, assign.DFAOptions{})
	if err != nil {
		return nil, err
	}
	n := benchLargeGridN
	g := power.GridSpec{
		Nx: n, Ny: n, Width: 1000, Height: 1000,
		RsX: 0.05, RsY: 0.05, Vdd: 1.0, CurrentDensity: 1e-5,
	}
	var pads []power.Pad
	for i := 0; i < n; i += 8 {
		pads = append(pads,
			power.Pad{I: i, J: 0}, power.Pad{I: i, J: n - 1},
			power.Pad{I: 0, J: i}, power.Pad{I: n - 1, J: i})
	}
	mkPower := func(m power.Method) func(int, obs.Recorder) (string, error) {
		return func(w int, rec obs.Recorder) (string, error) {
			s, err := power.Solve(g, pads, power.SolveOptions{Method: m, Workers: w, Recorder: rec})
			if err != nil {
				return "", err
			}
			if !s.Converged {
				return "", fmt.Errorf("solver stopped: %s (residual %.3e)", s.Stopped, s.Residual)
			}
			return fingerprintFloats(s.V), nil
		}
	}
	return []benchSurface{
		{"power/cg512", mkPower(power.CG)},
		{"power/mg512", mkPower(power.MG)},
		{"power/mgcg512", mkPower(power.MGCG)},
		{"exchange/largeN", func(w int, rec obs.Recorder) (string, error) {
			res, err := exchange.Run(p, dfaA, exchange.Options{
				Seed: 1, Restarts: 4, Workers: w,
				Schedule: benchLargeSchedule, Recorder: rec,
			})
			if err != nil {
				return "", err
			}
			return fingerprintAssignment(res.Assignment), nil
		}},
	}, nil
}

// runBench times the parallelized surfaces at 1, 2, 4 and 8 workers, plus
// the annealer's per-move pricing rate. Every variant computes identical
// results — runBench fails if any worker count's output fingerprint
// diverges from the workers=1 run. size selects the tier: "default" is the
// paper-scale set, "large" appends the 100k-net/513-grid scaling tier.
// With jsonOut it writes BENCH_<date>.json into outDir
// (BENCH_<date>-<tag>.json with a non-empty tag, so a rerun can sit beside
// a same-day baseline).
func runBench(outDir string, jsonOut bool, tag, size string) error {
	rep := &benchReport{
		Date:            time.Now().Format("2006-01-02"),
		GoVersion:       runtime.Version(),
		CPUs:            runtime.NumCPU(),
		GoMaxProcs:      runtime.GOMAXPROCS(0),
		Size:            size,
		SolverInternals: map[string]*obs.Snapshot{},
	}
	surfaces, err := defaultSurfaces()
	if err != nil {
		return err
	}
	switch size {
	case "", "default":
		rep.Size = "default"
	case "large":
		ls, err := largeSurfaces()
		if err != nil {
			return err
		}
		surfaces = append(surfaces, ls...)
	default:
		return fmt.Errorf("unknown -size %q (want default or large)", size)
	}

	fmt.Printf("== Parallel speedup (%d CPUs, GOMAXPROCS=%d, %s, size=%s) ==\n",
		rep.CPUs, rep.GoMaxProcs, rep.GoVersion, rep.Size)
	var ms0, ms1 runtime.MemStats
	for _, s := range surfaces {
		var base float64
		var baseFP string
		for _, w := range benchWorkerCounts {
			var col *obs.Collector
			var rec obs.Recorder
			if w == 1 {
				col = obs.NewCollector()
				rec = col
			}
			runtime.ReadMemStats(&ms0)
			start := time.Now()
			fp, err := s.run(w, rec)
			if err != nil {
				return fmt.Errorf("%s workers=%d: %v", s.name, w, err)
			}
			secs := time.Since(start).Seconds()
			runtime.ReadMemStats(&ms1)
			if w == 1 {
				base, baseFP = secs, fp
				if snap := col.Snapshot(); len(snap.Keys()) > 0 {
					rep.SolverInternals[s.name] = &snap
				}
			} else if fp != baseFP {
				return fmt.Errorf("%s: workers=%d output fingerprint %s differs from workers=1 %s (determinism broken)",
					s.name, w, fp, baseFP)
			}
			e := benchEntry{
				Name: s.name, Workers: w, Seconds: secs,
				AllocsPerOp: float64(ms1.Mallocs - ms0.Mallocs),
				BytesPerOp:  float64(ms1.TotalAlloc - ms0.TotalAlloc),
			}
			if base > 0 {
				e.SpeedupVs1 = base / secs
			}
			rep.Entries = append(rep.Entries, e)
			fmt.Printf("%-20s workers=%d: %8.3fs  (%.2fx vs 1, %.0f allocs)\n",
				s.name, w, e.Seconds, e.SpeedupVs1, e.AllocsPerOp)
		}
	}

	// Hot-loop rate: how fast the annealer can price adjacent swaps, and
	// that doing so allocates nothing.
	p := gen.MustBuild(gen.Table1()[2], gen.Options{Seed: 1, Tiers: 4})
	dfaA, err := assign.DFA(p, assign.DFAOptions{})
	if err != nil {
		return err
	}
	pricingMoves := benchPricingMoves
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	ps, err := exchange.PricingBench(p, dfaA, exchange.Options{Seed: 1}, pricingMoves)
	if err != nil {
		return fmt.Errorf("move-pricing: %v", err)
	}
	secs := time.Since(start).Seconds()
	runtime.ReadMemStats(&ms1)
	rep.Entries = append(rep.Entries, benchEntry{
		Name: "exchange/move-pricing", Workers: 1,
		Seconds: secs, SpeedupVs1: 1,
		NsPerMove: ps.NsPerMove, AllocsPerMove: &ps.AllocsPerMove,
		AllocsPerOp: float64(ms1.Mallocs - ms0.Mallocs),
		BytesPerOp:  float64(ms1.TotalAlloc - ms0.TotalAlloc),
	})
	fmt.Printf("%-20s %.1f ns/move, %.3f allocs/move (%d moves)\n",
		"exchange/move-pricing", ps.NsPerMove, ps.AllocsPerMove, pricingMoves)

	// Warm-start time-to-target: the cold DFA-seeded full anneal fixes the
	// target Eq 3 cost; the MCMF-warm-started run then anneals tail
	// schedules of doubling length until it matches that cost. Both runs
	// share the DFA order as the Eq 3 baseline, so the costs are directly
	// comparable (see exchange.Options.Initial).
	runtime.ReadMemStats(&ms0)
	start = time.Now()
	cold, err := exchange.Run(p, dfaA, exchange.Options{Seed: 1})
	if err != nil {
		return fmt.Errorf("cold-to-target: %v", err)
	}
	secs = time.Since(start).Seconds()
	runtime.ReadMemStats(&ms1)
	target := cold.RestartCosts[0]
	rep.Entries = append(rep.Entries, benchEntry{
		Name: "exchange/to-target/dfa-cold", Workers: 1,
		Seconds: secs, SpeedupVs1: 1,
		Moves: float64(cold.Stats.Proposed), TargetCost: target,
		AllocsPerOp: float64(ms1.Mallocs - ms0.Mallocs),
		BytesPerOp:  float64(ms1.TotalAlloc - ms0.TotalAlloc),
	})
	fmt.Printf("%-20s %8.3fs  %8d moves to cost %.6f (full schedule)\n",
		"to-target/dfa-cold", secs, cold.Stats.Proposed, target)

	mcmfA, err := assign.MCMF(p, assign.MCMFOptions{})
	if err != nil {
		return err
	}
	sched := anneal.Schedule{}.WithDefaults()
	warmOpt := exchange.Options{Seed: 1,
		Initial: func(int) *core.Assignment { return mcmfA }}
	for k := 1; ; k *= 2 {
		// A k-temperature tail of the cold schedule: same final
		// temperature and cooling, starting k cooling steps above it.
		t0 := sched.FinalTemp / math.Pow(sched.Cooling, float64(k-1))
		capped := t0 >= sched.InitialTemp
		if capped {
			t0 = sched.InitialTemp
		}
		warmOpt.Schedule = anneal.Schedule{
			InitialTemp: t0, FinalTemp: sched.FinalTemp, Cooling: sched.Cooling}
		runtime.ReadMemStats(&ms0)
		start = time.Now()
		warm, err := exchange.Run(p, dfaA, warmOpt)
		if err != nil {
			return fmt.Errorf("warm-to-target: %v", err)
		}
		secs = time.Since(start).Seconds()
		runtime.ReadMemStats(&ms1)
		if warm.RestartCosts[0] <= target || capped {
			rep.Entries = append(rep.Entries, benchEntry{
				Name: "exchange/to-target/mcmf-warm", Workers: 1,
				Seconds: secs, SpeedupVs1: 1,
				Moves: float64(warm.Stats.Proposed), TargetCost: target,
				AllocsPerOp: float64(ms1.Mallocs - ms0.Mallocs),
				BytesPerOp:  float64(ms1.TotalAlloc - ms0.TotalAlloc),
			})
			fmt.Printf("%-20s %8.3fs  %8d moves to cost %.6f (%d-temp tail)\n",
				"to-target/mcmf-warm", secs, warm.Stats.Proposed, warm.RestartCosts[0], k)
			break
		}
	}

	// Fixed budget versus adaptive portfolio at equal total move budget: the
	// bandit run spends its restart budget across the default arm set; the
	// fixed baseline reruns the single legacy schedule, topped up with extra
	// restarts until it has proposed at least as many moves as the portfolio.
	// The bench fails outright if the adaptive Eq 3 cost is worse — the
	// portfolio's value claim is a gate, not a printout.
	budget := benchPortfolioBudget
	runtime.ReadMemStats(&ms0)
	start = time.Now()
	adaptive, err := exchange.Run(p, dfaA, exchange.Options{
		Seed: 1, Portfolio: portfolio.Default(budget)})
	if err != nil {
		return fmt.Errorf("portfolio-adaptive: %v", err)
	}
	secs = time.Since(start).Seconds()
	runtime.ReadMemStats(&ms1)
	var adaptiveMoves int64
	for _, al := range adaptive.Portfolio.Trace {
		adaptiveMoves += int64(al.Proposed)
	}
	adaptiveCost := adaptive.RestartCosts[adaptive.Restart]
	rep.Entries = append(rep.Entries, benchEntry{
		Name: "anneal/portfolio/adaptive", Workers: 1,
		Seconds: secs, SpeedupVs1: 1,
		Moves: float64(adaptiveMoves), TargetCost: adaptiveCost,
		AllocsPerOp: float64(ms1.Mallocs - ms0.Mallocs),
		BytesPerOp:  float64(ms1.TotalAlloc - ms0.TotalAlloc),
	})
	winner := adaptive.Portfolio.BestArm
	fmt.Printf("%-20s %8.3fs  %8d moves to cost %.6f (winner arm %d over %d pulls)\n",
		"portfolio/adaptive", secs, adaptiveMoves, adaptiveCost, winner, adaptive.Portfolio.Total)

	runFixed := func(restarts int) (float64, int64, benchEntry, error) {
		col := obs.NewCollector()
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		res, err := exchange.Run(p, dfaA, exchange.Options{
			Seed: 1, Restarts: restarts, Recorder: col})
		if err != nil {
			return 0, 0, benchEntry{}, err
		}
		secs := time.Since(start).Seconds()
		runtime.ReadMemStats(&ms1)
		snap := col.Snapshot()
		var moves int64
		for k := 0; k < restarts; k++ {
			moves += snap.Counters[fmt.Sprintf("exchange/restart%d/moves_priced", k)]
		}
		cost := res.RestartCosts[res.Restart]
		return cost, moves, benchEntry{
			Name: "anneal/portfolio/fixed", Workers: 1,
			Seconds: secs, SpeedupVs1: 1,
			Moves: float64(moves), TargetCost: cost,
			AllocsPerOp: float64(ms1.Mallocs - ms0.Mallocs),
			BytesPerOp:  float64(ms1.TotalAlloc - ms0.TotalAlloc),
		}, nil
	}
	fixedCost, fixedMoves, fixedEntry, err := runFixed(budget)
	if err != nil {
		return fmt.Errorf("portfolio-fixed: %v", err)
	}
	restarts := budget
	for try := 0; fixedMoves < adaptiveMoves && try < 3; try++ {
		// Top up from the observed per-restart move rate; ceil so one rerun
		// normally lands at or past the portfolio's move count.
		per := fixedMoves / int64(restarts)
		if per <= 0 {
			break
		}
		restarts += int((adaptiveMoves - fixedMoves + per - 1) / per)
		if fixedCost, fixedMoves, fixedEntry, err = runFixed(restarts); err != nil {
			return fmt.Errorf("portfolio-fixed: %v", err)
		}
	}
	rep.Entries = append(rep.Entries, fixedEntry)
	fmt.Printf("%-20s %8.3fs  %8d moves to cost %.6f (%d legacy restarts)\n",
		"portfolio/fixed", fixedEntry.Seconds, fixedMoves, fixedCost, restarts)
	if adaptiveCost > fixedCost {
		return fmt.Errorf("anneal/portfolio: adaptive Eq 3 cost %.6f exceeds the fixed-budget cost %.6f (fixed %d restarts / %d moves vs adaptive %d moves)",
			adaptiveCost, fixedCost, restarts, fixedMoves, adaptiveMoves)
	}

	if jsonOut {
		name := "BENCH_" + rep.Date
		if tag != "" {
			name += "-" + tag
		}
		path := filepath.Join(outDir, name+".json")
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	return nil
}
