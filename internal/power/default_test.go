package power

import (
	"fmt"
	"math"
	"testing"

	"copack/internal/assign"
	"copack/internal/gen"
	"copack/internal/obs"
)

// The zero-value SolveOptions on DefaultChipGrid is the solve every plan
// runs twice: it must take the multigrid preconditioner (not the Jacobi
// fallback), converge in a handful of iterations, and land on Jacobi CG's
// voltages within TestDefaultOptionsConvergeOnTable1Grids' bounds.
func TestDefaultGridTakesMultigrid(t *testing.T) {
	for _, c := range gen.Table1() {
		for _, psi := range []int{1, 4} {
			name := fmt.Sprintf("%s/psi%d", c.Name, psi)
			p := gen.MustBuild(c, gen.Options{Seed: 1, Tiers: psi})
			a, err := assign.DFA(p, assign.DFAOptions{})
			if err != nil {
				t.Fatal(err)
			}
			g := DefaultChipGrid(p)
			pads := PadsForAssignment(p, a, g)
			col := obs.NewCollector()
			sol, err := Solve(g, pads, SolveOptions{Recorder: col})
			if err != nil {
				t.Fatal(err)
			}
			if n := col.Snapshot().Counters["method/mgcg"]; n != 1 {
				t.Errorf("%s: method/mgcg = %d, want 1 (counters %v)", name, n, col.Snapshot().Counters)
			}
			if !sol.Converged || sol.Iterations > 20 {
				t.Errorf("%s: converged %v after %d iterations, want ≤ 20", name, sol.Converged, sol.Iterations)
			}
			cg, err := Solve(g, pads, SolveOptions{Method: CG})
			if err != nil {
				t.Fatal(err)
			}
			worst := 0.0
			for k := range sol.V {
				worst = math.Max(worst, math.Abs(sol.V[k]-cg.V[k]))
			}
			if worst > 1e-6 || math.Abs(sol.MaxDrop()-cg.MaxDrop()) > 1e-4*cg.MaxDrop() {
				t.Errorf("%s: max |ΔV| %g, max drop %g vs CG %g", name, worst, sol.MaxDrop(), cg.MaxDrop())
			}
		}
	}
}

// On a grid that cannot coarsen (Table 3's 40×40) the multigrid methods
// fall back before any multigrid set-up, and the telemetry names the
// method that ran, not the one requested: a zero-value solve records
// method/cg and allocates exactly what an explicit CG solve does.
func TestEvenGridFallsBackToCG(t *testing.T) {
	g := baseSpec()
	g.Nx, g.Ny = 40, 40
	pads := ringPads(g)
	for _, c := range []struct {
		method Method
		want   string
	}{{MGCG, "method/cg"}, {MG, "method/sor"}, {CG, "method/cg"}, {SOR, "method/sor"}} {
		col := obs.NewCollector()
		if _, err := Solve(g, pads, SolveOptions{Method: c.method, Recorder: col}); err != nil {
			t.Fatal(err)
		}
		counters := col.Snapshot().Counters
		if counters[c.want] != 1 || counters["method/mgcg"]+counters["method/mg"] != 0 {
			t.Errorf("method %d on 40x40: counters %v, want %s", c.method, counters, c.want)
		}
	}
	if raceEnabled {
		return // the race detector's instrumentation allocates
	}
	allocs := func(opt SolveOptions) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := Solve(g, pads, opt); err != nil {
				t.Fatal(err)
			}
		})
	}
	if zero, cg := allocs(SolveOptions{}), allocs(SolveOptions{Method: CG}); zero != cg {
		t.Errorf("40x40: zero-value solve allocates %v, explicit CG %v", zero, cg)
	}
}
