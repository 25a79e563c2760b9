package power

import (
	"context"
	"fmt"
	"math"
	"testing"

	"copack/internal/assign"
	"copack/internal/gen"
)

// gridCase is one solve input: a grid and its pads.
type gridCase struct {
	name string
	g    GridSpec
	pads []Pad
}

// table1Cases returns the five Table 1 circuits' default chip grids, each
// fed at its DFA assignment's power pads — the IR solves a plan runs.
func table1Cases(t *testing.T) []gridCase {
	t.Helper()
	var out []gridCase
	for _, c := range gen.Table1() {
		p := gen.MustBuild(c, gen.Options{Seed: 1})
		a, err := assign.DFA(p, assign.DFAOptions{})
		if err != nil {
			t.Fatal(err)
		}
		g := DefaultChipGrid(p)
		out = append(out, gridCase{c.Name, g, PadsForAssignment(p, a, g)})
	}
	return out
}

func padMask(g GridSpec, pads []Pad) []bool {
	isPad := make([]bool, g.Nx*g.Ny)
	for _, p := range pads {
		isPad[p.J*g.Nx+p.I] = true
	}
	return isPad
}

// requireSameBits fails unless got is bit-for-bit the reference solution.
func requireSameBits(t *testing.T, name string, got, want *Solution) {
	t.Helper()
	if got.Iterations != want.Iterations || got.Converged != want.Converged || got.Stopped != want.Stopped {
		t.Fatalf("%s: iterations/converged/stopped %d/%v/%q, reference %d/%v/%q", name,
			got.Iterations, got.Converged, got.Stopped, want.Iterations, want.Converged, want.Stopped)
	}
	if math.Float64bits(got.Residual) != math.Float64bits(want.Residual) {
		t.Fatalf("%s: residual %v, reference %v", name, got.Residual, want.Residual)
	}
	if len(got.V) != len(want.V) {
		t.Fatalf("%s: %d voltages, reference %d", name, len(got.V), len(want.V))
	}
	for k := range got.V {
		if math.Float64bits(got.V[k]) != math.Float64bits(want.V[k]) {
			t.Fatalf("%s: V[%d] = %v, reference %v", name, k, got.V[k], want.V[k])
		}
	}
}

// checkCGOracle solves c through SolveContext and through the reference
// loop with the same resolved options, and requires identical bits.
func checkCGOracle(t *testing.T, ctx func() context.Context, name string, c gridCase, opt SolveOptions) {
	t.Helper()
	got, err := SolveContext(ctx(), c.g, c.pads, opt)
	if err != nil {
		t.Fatal(err)
	}
	var mkPre func(unknowns []int, workers int) func(r, z []float64)
	isPad := padMask(c.g, c.pads)
	if opt.Method == MGCG {
		levels := buildHierarchy(c.g, isPad)
		if len(levels) < 2 {
			t.Fatalf("%s: grid does not coarsen", name)
		}
		mkPre = vcyclePre(levels)
	}
	want, err := refSolveCGPre(ctx(), c.g, isPad, opt.withDefaults(c.g), mkPre)
	if err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, name, got, want)
}

// The fused kernel must reproduce the closure-based CG loop bit for bit:
// every voltage, the iteration count, the residual and the convergence
// flag, on the grids plans use and on the shapes that exercise its edges.
func TestCGMatchesReferenceBits(t *testing.T) {
	bg := context.Background
	for _, c := range table1Cases(t) {
		checkCGOracle(t, bg, c.name, c, SolveOptions{Method: CG})
	}

	// Non-square, with duplicate pads and a clustered corner block: pads
	// next to pads and unknowns with several missing neighbours.
	ns := GridSpec{Nx: 37, Ny: 23, Width: 140, Height: 90, RsX: 0.04, RsY: 0.07, Vdd: 1.1, CurrentDensity: 2e-5}
	pads := []Pad{{0, 0}, {0, 0}, {1, 0}, {0, 1}, {1, 1}, {2, 1}, {36, 22}, {36, 22}, {18, 0}, {36, 11}, {5, 22}}
	checkCGOracle(t, bg, "non-square", gridCase{"non-square", ns, pads}, SolveOptions{Method: CG})

	// ≥ 4096 unknowns: several chunks, scheduled inline and on a pool.
	big := GridSpec{Nx: 96, Ny: 96, Width: 100, Height: 100, RsX: 0.05, RsY: 0.05, Vdd: 1, CurrentDensity: 1e-5}
	for _, w := range []int{1, 4} {
		name := fmt.Sprintf("96x96/workers=%d", w)
		checkCGOracle(t, bg, name, gridCase{name, big, ringPads(big)}, SolveOptions{Method: CG, Workers: w})
	}

	// MGCG plugs its V-cycle in between the update and r·z passes.
	mg := mgSpec()
	checkCGOracle(t, bg, "mgcg/65x65", gridCase{"mgcg", mg, ringPads(mg)}, SolveOptions{Method: MGCG})

	// Cancelled mid-run: both loops poll the context at the same point of
	// the same iteration and return the same partial iterate.
	for _, c := range []gridCase{table1Cases(t)[0], {"96x96", big, ringPads(big)}} {
		cancelAt := func() context.Context { return &cancelAfter{Context: context.Background(), left: 40} }
		checkCGOracle(t, cancelAt, "cancelled/"+c.name, c, SolveOptions{Method: CG, Workers: 2})
		sol, err := SolveContext(cancelAt(), c.g, c.pads, SolveOptions{Method: CG})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Converged || sol.Iterations != 40 || sol.Stopped != context.Canceled.Error() {
			t.Fatalf("cancelled/%s: converged %v after %d iterations (%q)", c.name, sol.Converged, sol.Iterations, sol.Stopped)
		}
	}
}

// cancelAfter is a context whose Err turns Canceled on the (left+1)-th call.
type cancelAfter struct {
	context.Context
	left int
}

func (c *cancelAfter) Err() error {
	if c.left <= 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

// A warm 49×49 Jacobi-CG or MGCG solve allocates a fixed number of objects,
// however many iterations it runs: the iteration loop, and MGCG's V-cycle,
// allocate nothing.
func TestCGSolveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	c := table1Cases(t)[0]
	for _, m := range []struct {
		method Method
		want   float64
	}{{CG, 10}, {MGCG, 29}} {
		for _, maxIter := range []int{2, 5, 0} {
			opt := SolveOptions{Method: m.method, MaxIter: maxIter}
			allocs := testing.AllocsPerRun(5, func() {
				if _, err := Solve(c.g, c.pads, opt); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != m.want {
				t.Errorf("method %d, MaxIter %d: %v allocations per 49x49 solve, want %v", m.method, maxIter, allocs, m.want)
			}
		}
	}
}

// With default options every method must converge on every Table 1 default
// grid and land on CG's voltages. 48×48 does not coarsen, so MG runs its
// SOR fallback, which must get SOR's own iteration budget.
func TestDefaultOptionsConvergeOnTable1Grids(t *testing.T) {
	for _, c := range table1Cases(t) {
		cg, err := Solve(c.g, c.pads, SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !cg.Converged {
			t.Fatalf("%s: default CG did not converge", c.name)
		}
		for _, m := range []Method{SOR, MG, MGCG} {
			sol, err := Solve(c.g, c.pads, SolveOptions{Method: m})
			if err != nil {
				t.Fatal(err)
			}
			if !sol.Converged {
				t.Errorf("%s method %d: default options stop unconverged after %d iterations (residual %g)",
					c.name, m, sol.Iterations, sol.Residual)
				continue
			}
			worst := 0.0
			for k := range sol.V {
				worst = math.Max(worst, math.Abs(sol.V[k]-cg.V[k]))
			}
			if worst > 1e-6 || math.Abs(sol.MaxDrop()-cg.MaxDrop()) > 1e-4*cg.MaxDrop() {
				t.Errorf("%s method %d: max |ΔV| %g, max drop %g vs CG %g", c.name, m, worst, sol.MaxDrop(), cg.MaxDrop())
			}
		}
	}
}
