// Package exp regenerates every table and figure of the paper's evaluation
// (see DESIGN.md's per-experiment index). Each experiment is a pure
// function of its seed, so runs are reproducible; Format methods render the
// same rows the paper prints.
package exp

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"copack/internal/assign"
	"copack/internal/bga"
	"copack/internal/core"
	"copack/internal/exchange"
	"copack/internal/gen"
	"copack/internal/power"
	"copack/internal/route"
	"copack/internal/svgplot"
)

// RandomBaseline mimics the paper's "randomly optimized method": the best
// (lowest max-density) of tries random monotonic-legal assignments.
func RandomBaseline(p *core.Problem, rng *rand.Rand, tries int) (*core.Assignment, *route.Stats, error) {
	var bestA *core.Assignment
	var bestS *route.Stats
	for i := 0; i < tries; i++ {
		a, err := assign.Random(p, rng)
		if err != nil {
			return nil, nil, err
		}
		s, err := route.Evaluate(p, a)
		if err != nil {
			return nil, nil, err
		}
		if bestS == nil || s.MaxDensity < bestS.MaxDensity {
			bestA, bestS = a, s
		}
	}
	return bestA, bestS, nil
}

// --- Table 1 -----------------------------------------------------------------

// Table1Text renders the test-circuit parameter table.
func Table1Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %8s %12s %12s %13s %12s\n",
		"circuit", "fingers", "ball space", "finger W", "finger H", "finger space")
	for _, tc := range gen.Table1() {
		fmt.Fprintf(&b, "%-10s %8d %12.3g %12.3g %13.3g %12.3g\n",
			tc.Name, tc.Fingers, tc.BallSpace, tc.FingerW, tc.FingerH, tc.FingerSpace)
	}
	return b.String()
}

// --- Table 2 -----------------------------------------------------------------

// Table2Row is one circuit's comparison of the three assignment methods.
type Table2Row struct {
	Circuit                               string
	RandomDensity, IFADensity, DFADensity int
	RandomWirelen, IFAWirelen, DFAWirelen float64
}

// Table2Result is the full Table 2 reproduction.
type Table2Result struct {
	Rows []Table2Row
	// Average ratios versus the random baseline (the paper's last row:
	// densities 1 / 0.63 / 0.36, wirelengths 1 / 0.88 / 0.82).
	AvgDensityIFA, AvgDensityDFA float64
	AvgWirelenIFA, AvgWirelenDFA float64
}

// Table2 reproduces Table 2: max package density and total routed
// wirelength for the random baseline, IFA and DFA on the five test
// circuits, fanned out over the harness pool. Rows land at their circuit's
// index and ratios are averaged afterwards in that order, so the result is
// identical for any worker count.
func Table2(ctx context.Context, seed int64, randomTries int, h Harness) (*Table2Result, error) {
	if randomTries < 1 {
		randomTries = 10
	}
	circuits := gen.Table1()
	rows, _, err := runUnits(ctx, h, len(circuits),
		func(i int) (Table2Row, error) { return table2Row(circuits[i], seed, randomTries) },
		func(_ int, row Table2Row, _ int) string {
			return fmt.Sprintf("table2 %s: density %d/%d/%d (random/IFA/DFA)",
				row.Circuit, row.RandomDensity, row.IFADensity, row.DFADensity)
		})
	if err != nil {
		return nil, err
	}
	out := &Table2Result{Rows: rows}
	var dIFA, dDFA, wIFA, wDFA float64
	for _, row := range rows {
		dIFA += float64(row.IFADensity) / float64(row.RandomDensity)
		dDFA += float64(row.DFADensity) / float64(row.RandomDensity)
		wIFA += row.IFAWirelen / row.RandomWirelen
		wDFA += row.DFAWirelen / row.RandomWirelen
	}
	n := float64(len(rows))
	out.AvgDensityIFA, out.AvgDensityDFA = dIFA/n, dDFA/n
	out.AvgWirelenIFA, out.AvgWirelenDFA = wIFA/n, wDFA/n
	return out, nil
}

// table2Row runs Table 2's three methods on one circuit. This is Table 2's
// unit of parallelism; it is self-contained (its rng is seeded locally), so
// rows can run in any order.
func table2Row(tc gen.TestCircuit, seed int64, randomTries int) (Table2Row, error) {
	var row Table2Row
	p, err := gen.Build(tc, gen.Options{Seed: seed})
	if err != nil {
		return row, err
	}
	rng := rand.New(rand.NewSource(seed))
	randA, randS, err := RandomBaseline(p, rng, randomTries)
	if err != nil {
		return row, err
	}
	ifaA, err := assign.IFA(p)
	if err != nil {
		return row, err
	}
	dfaA, err := assign.DFA(p, assign.DFAOptions{})
	if err != nil {
		return row, err
	}
	// The paper computes wirelength on the realized routing, where detoured
	// paths cost extra.
	wl := func(a *core.Assignment) (float64, error) {
		r, err := route.Realize(p, a)
		if err != nil {
			return 0, err
		}
		return r.TotalLength(), nil
	}
	ifaS, err := route.Evaluate(p, ifaA)
	if err != nil {
		return row, err
	}
	dfaS, err := route.Evaluate(p, dfaA)
	if err != nil {
		return row, err
	}
	row = Table2Row{Circuit: tc.Name,
		RandomDensity: randS.MaxDensity, IFADensity: ifaS.MaxDensity, DFADensity: dfaS.MaxDensity}
	if row.RandomWirelen, err = wl(randA); err != nil {
		return row, err
	}
	if row.IFAWirelen, err = wl(ifaA); err != nil {
		return row, err
	}
	if row.DFAWirelen, err = wl(dfaA); err != nil {
		return row, err
	}
	return row, nil
}

// Format renders the table in the paper's layout.
func (r *Table2Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s | %6s %5s %5s | %10s %10s %10s\n",
		"circuit", "random", "IFA", "DFA", "randomWL", "ifaWL", "dfaWL")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s | %6d %5d %5d | %10.0f %10.0f %10.0f\n",
			row.Circuit, row.RandomDensity, row.IFADensity, row.DFADensity,
			row.RandomWirelen, row.IFAWirelen, row.DFAWirelen)
	}
	fmt.Fprintf(&b, "%-10s | %6.2f %5.2f %5.2f | %10.2f %10.2f %10.2f\n",
		"avg ratio", 1.0, r.AvgDensityIFA, r.AvgDensityDFA, 1.0, r.AvgWirelenIFA, r.AvgWirelenDFA)
	return b.String()
}

// --- Table 3 -----------------------------------------------------------------

// Table3Row is one circuit's exchange outcome for one tier count.
type Table3Row struct {
	Circuit string
	Psi     int
	// DensityAfterDFA and DensityAfterExchange are the paper's two
	// density columns.
	DensityAfterDFA, DensityAfterExchange int
	// IRImprovedPct is (drop_before − drop_after)/drop_before·100 from
	// the full finite-difference solve.
	IRImprovedPct float64
	// BondImprovedPct is the paper's bonding-wire improvement: the drop
	// of the ω zero-bit count, normalized by the finger count
	// ((ω_before − ω_after)/α·100). Zero for ψ=1.
	BondImprovedPct float64
	// OmegaBefore/After expose the raw metric.
	OmegaBefore, OmegaAfter int
}

// Table3Result is the full Table 3 reproduction.
type Table3Result struct {
	Rows []Table3Row
	// Averages per tier count, as in the paper's last row.
	AvgIRPct   map[int]float64
	AvgBondPct float64
}

// Table3Grid returns the power grid used to score IR-drop in Table 3.
func Table3Grid(p *core.Problem) power.GridSpec {
	g := power.DefaultChipGrid(p)
	g.Nx, g.Ny = 40, 40
	return g
}

// psiInstance is one (circuit, ψ) instance of the Table 3 family.
type psiInstance struct {
	tc  gen.TestCircuit
	psi int
}

// table3Instances lists Table 3's ten instances: ψ-major, then circuit
// order.
func table3Instances() []psiInstance {
	var items []psiInstance
	for _, psi := range []int{1, 4} {
		for _, tc := range gen.Table1() {
			items = append(items, psiInstance{tc: tc, psi: psi})
		}
	}
	return items
}

// Table3 reproduces Table 3: for every test circuit and ψ ∈ {1, 4}, run
// DFA, then the finger/pad exchange, and report the density before/after,
// the solved IR-drop improvement and (for ψ=4) the bonding improvement.
// The ten instances fan out over the harness pool; averages are computed
// from the index-ordered rows, so the result is identical for any worker
// count.
func Table3(ctx context.Context, seed int64, h Harness) (*Table3Result, error) {
	items := table3Instances()
	rows, _, err := runUnits(ctx, h, len(items),
		func(i int) (Table3Row, error) { return table3Row(items[i].tc, items[i].psi, seed) },
		func(_ int, row Table3Row, _ int) string {
			return fmt.Sprintf("table3 %s ψ=%d: IR improved %.2f%%", row.Circuit, row.Psi, row.IRImprovedPct)
		})
	if err != nil {
		return nil, err
	}
	out := &Table3Result{Rows: rows, AvgIRPct: make(map[int]float64)}
	counts := make(map[int]int)
	var bondSum float64
	bondCount := 0
	for _, row := range rows {
		out.AvgIRPct[row.Psi] += row.IRImprovedPct
		counts[row.Psi]++
		if row.Psi > 1 {
			bondSum += row.BondImprovedPct
			bondCount++
		}
	}
	for psi, sum := range out.AvgIRPct {
		out.AvgIRPct[psi] = sum / float64(counts[psi])
	}
	if bondCount > 0 {
		out.AvgBondPct = bondSum / float64(bondCount)
	}
	return out, nil
}

// table3Row runs one (circuit, ψ) instance of Table 3: DFA, exchange, and
// the before/after IR solves. Self-contained, hence order-independent.
func table3Row(tc gen.TestCircuit, psi int, seed int64) (Table3Row, error) {
	var row Table3Row
	p, err := gen.Build(tc, gen.Options{Seed: seed, Tiers: psi})
	if err != nil {
		return row, err
	}
	dfaA, err := assign.DFA(p, assign.DFAOptions{})
	if err != nil {
		return row, err
	}
	res, err := exchange.Run(p, dfaA, exchange.Options{Seed: seed})
	if err != nil {
		return row, err
	}
	g := Table3Grid(p)
	before, err := power.SolveAssignment(p, dfaA, g, power.SolveOptions{})
	if err != nil {
		return row, err
	}
	after, err := power.SolveAssignment(p, res.Assignment, g, power.SolveOptions{})
	if err != nil {
		return row, err
	}
	row = Table3Row{
		Circuit:              tc.Name,
		Psi:                  psi,
		DensityAfterDFA:      res.Before.MaxDensity,
		DensityAfterExchange: res.After.MaxDensity,
		IRImprovedPct:        (before.MaxDrop() - after.MaxDrop()) / before.MaxDrop() * 100,
		OmegaBefore:          res.Before.Omega,
		OmegaAfter:           res.After.Omega,
	}
	if psi > 1 {
		row.BondImprovedPct = float64(row.OmegaBefore-row.OmegaAfter) / float64(p.Circuit.NumNets()) * 100
	}
	return row, nil
}

// Format renders the table in the paper's layout.
func (r *Table3Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %4s | %8s %8s | %9s | %9s\n",
		"circuit", "psi", "densDFA", "densExch", "IR imp %", "bond imp %")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %4d | %8d %8d | %9.2f | %9.2f\n",
			row.Circuit, row.Psi, row.DensityAfterDFA, row.DensityAfterExchange,
			row.IRImprovedPct, row.BondImprovedPct)
	}
	for _, psi := range []int{1, 4} {
		fmt.Fprintf(&b, "avg IR improvement (psi=%d): %.2f%%\n", psi, r.AvgIRPct[psi])
	}
	fmt.Fprintf(&b, "avg bonding improvement: %.2f%%\n", r.AvgBondPct)
	return b.String()
}

// --- Fig 5 / Fig 13 ----------------------------------------------------------

// FigDensities holds the worked-example density comparison.
type FigDensities struct {
	Name               string
	Random, IFA, DFA   int
	PaperRandom        int
	PaperIFA, PaperDFA int
}

// Fig5 reproduces the 12-net worked example: random order density 4, IFA
// and DFA density 2.
func Fig5() (*FigDensities, error) {
	p := gen.Fig5()
	r, err := route.EvaluateQuadrant(p, bga.Bottom, gen.Fig5RandomOrder())
	if err != nil {
		return nil, err
	}
	i, err := route.EvaluateQuadrant(p, bga.Bottom, assign.IFAQuadrant(p.Pkg.Quadrant(bga.Bottom)))
	if err != nil {
		return nil, err
	}
	d, err := route.EvaluateQuadrant(p, bga.Bottom, assign.DFAQuadrant(p.Pkg.Quadrant(bga.Bottom), assign.DFAOptions{}))
	if err != nil {
		return nil, err
	}
	return &FigDensities{Name: "fig5", Random: r.MaxDensity, IFA: i.MaxDensity, DFA: d.MaxDensity,
		PaperRandom: 4, PaperIFA: 2, PaperDFA: 2}, nil
}

// Fig13 reproduces the 20-net example: the paper's IFA order scores 6 and
// its DFA order 5; we evaluate our own algorithm outputs.
func Fig13() (*FigDensities, error) {
	p := gen.Fig13()
	i, err := route.EvaluateQuadrant(p, bga.Bottom, assign.IFAQuadrant(p.Pkg.Quadrant(bga.Bottom)))
	if err != nil {
		return nil, err
	}
	d, err := route.EvaluateQuadrant(p, bga.Bottom, assign.DFAQuadrant(p.Pkg.Quadrant(bga.Bottom), assign.DFAOptions{}))
	if err != nil {
		return nil, err
	}
	return &FigDensities{Name: "fig13", IFA: i.MaxDensity, DFA: d.MaxDensity,
		PaperIFA: 6, PaperDFA: 5}, nil
}

// Format renders a density comparison line.
func (f *FigDensities) Format() string {
	if f.PaperRandom > 0 {
		return fmt.Sprintf("%s: random %d (paper %d), IFA %d (paper %d), DFA %d (paper %d)",
			f.Name, f.Random, f.PaperRandom, f.IFA, f.PaperIFA, f.DFA, f.PaperDFA)
	}
	return fmt.Sprintf("%s: IFA %d (paper %d), DFA %d (paper %d)",
		f.Name, f.IFA, f.PaperIFA, f.DFA, f.PaperDFA)
}

// --- Fig 15 ------------------------------------------------------------------

// Fig15Result bundles the routing plots of circuit 2.
type Fig15Result struct {
	// SVG maps method name (random, ifa, dfa) to the rendered plot.
	SVG map[string][]byte
	// Density and Wirelen per method.
	Density map[string]int
	Wirelen map[string]float64
}

// Fig15 reproduces the routing plots of circuit 2 under the three
// assignment methods.
func Fig15(seed int64) (*Fig15Result, error) {
	p, err := gen.Build(gen.Table1()[1], gen.Options{Seed: seed})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	randA, _, err := RandomBaseline(p, rng, 10)
	if err != nil {
		return nil, err
	}
	ifaA, err := assign.IFA(p)
	if err != nil {
		return nil, err
	}
	dfaA, err := assign.DFA(p, assign.DFAOptions{})
	if err != nil {
		return nil, err
	}
	out := &Fig15Result{
		SVG:     make(map[string][]byte),
		Density: make(map[string]int),
		Wirelen: make(map[string]float64),
	}
	for name, a := range map[string]*core.Assignment{"random": randA, "ifa": ifaA, "dfa": dfaA} {
		r, err := route.Realize(p, a)
		if err != nil {
			return nil, err
		}
		out.SVG[name] = svgplot.Routing(p, r, "circuit2 "+name)
		out.Density[name] = r.Stats.MaxDensity
		out.Wirelen[name] = r.TotalLength()
	}
	return out, nil
}

// --- Stacking bonding-wire summary (abstract's 15.66% claim) -----------------

// BondSummary computes the average bonding improvement over the test
// circuits at the given ψ, the abstract's "bonding wires reduced by 15.66%
// if we use stacking chips".
func BondSummary(seed int64, psi int) (float64, error) {
	if psi < 2 {
		return 0, fmt.Errorf("exp: bonding summary needs ψ >= 2")
	}
	var sum float64
	n := 0
	for _, tc := range gen.Table1() {
		p, err := gen.Build(tc, gen.Options{Seed: seed, Tiers: psi})
		if err != nil {
			return 0, err
		}
		dfaA, err := assign.DFA(p, assign.DFAOptions{})
		if err != nil {
			return 0, err
		}
		res, err := exchange.Run(p, dfaA, exchange.Options{Seed: seed})
		if err != nil {
			return 0, err
		}
		sum += float64(res.Before.Omega-res.After.Omega) / float64(p.Circuit.NumNets()) * 100
		n++
	}
	return sum / float64(n), nil
}
