// Package power implements the compact IR-drop model the paper adopts from
// Shakeri–Meindl (reference [17]): the core power distribution grid is a
// uniform resistive mesh drawing a uniform current density J0, fed with Vdd
// at the power pad locations on the die boundary. Equation (1) of the paper
// is the finite-difference form of this model; Solve computes the resulting
// node voltages with conjugate gradients (multigrid-preconditioned by
// default), SOR or multigrid, and the Proxy* functions provide the fast
// pad-gap estimate the finger/pad exchange uses inside simulated annealing
// (a full solve per move would dominate the runtime, which is exactly why
// the paper introduces the Δx/Δy shortcut).
package power

import (
	"context"
	"fmt"
	"math"

	"copack/internal/faultinject"
	"copack/internal/obs"
	"copack/internal/parallel"
)

// GridSpec describes the discretized core power grid.
type GridSpec struct {
	// Nx, Ny are the node counts in x and y (at least 2 each).
	Nx, Ny int
	// Width, Height are the die core dimensions in µm.
	Width, Height float64
	// RsX, RsY are the effective sheet resistances of the power grid in
	// the x and y directions, in Ω/sq.
	RsX, RsY float64
	// Vdd is the supply voltage at the pads, in volts.
	Vdd float64
	// CurrentDensity is the uniform current draw J0 in A/µm².
	CurrentDensity float64
	// CurrentMap, when non-nil, scales the current density per node
	// (row-major, length Nx·Ny): node (i,j) draws
	// CurrentDensity·CurrentMap[j*Nx+i]·Δx·Δy. The paper's model assumes
	// a uniform map; hot-spot maps let the Fig 6 experiment model a chip
	// whose power draw is not uniform.
	CurrentMap []float64
}

// Validate checks the spec.
func (g GridSpec) Validate() error {
	switch {
	case g.Nx < 2 || g.Ny < 2:
		return fmt.Errorf("power: grid %dx%d too small", g.Nx, g.Ny)
	case g.Width <= 0 || g.Height <= 0:
		return fmt.Errorf("power: non-positive die size %gx%g", g.Width, g.Height)
	case g.RsX <= 0 || g.RsY <= 0:
		return fmt.Errorf("power: non-positive sheet resistance")
	case g.Vdd <= 0:
		return fmt.Errorf("power: non-positive Vdd")
	case g.CurrentDensity < 0:
		return fmt.Errorf("power: negative current density")
	case g.CurrentMap != nil && len(g.CurrentMap) != g.Nx*g.Ny:
		return fmt.Errorf("power: current map has %d entries, grid has %d nodes", len(g.CurrentMap), g.Nx*g.Ny)
	}
	if g.CurrentMap != nil {
		for k, c := range g.CurrentMap {
			if c < 0 || math.IsNaN(c) {
				return fmt.Errorf("power: current map entry %d is %g", k, c)
			}
		}
	}
	return nil
}

// Dx returns the node spacing in x.
func (g GridSpec) Dx() float64 { return g.Width / float64(g.Nx-1) }

// Dy returns the node spacing in y.
func (g GridSpec) Dy() float64 { return g.Height / float64(g.Ny-1) }

// Pad is a Dirichlet (Vdd) node of the grid.
type Pad struct {
	I, J int
}

// Method selects the linear solver.
type Method int

const (
	// MGCG is conjugate gradient preconditioned with one multigrid
	// V-cycle per iteration instead of the Jacobi diagonal — CG's
	// robustness with MG's mesh-independent convergence. It is the
	// default: on DefaultChipGrid's 49×49 mesh it converges in about 8
	// iterations where Jacobi CG takes about 150. Falls back to plain
	// (Jacobi) CG, bit for bit, when the grid cannot be coarsened.
	MGCG Method = iota
	// CG is conjugate gradient with the Jacobi (diagonal) preconditioner.
	CG
	// SOR is successive over-relaxation, kept as an independent
	// cross-check of CG (the package tests require the two to agree).
	SOR
	// MG is geometric multigrid: V-cycles over a coarsened GridSpec
	// hierarchy with a red-black Gauss-Seidel smoother. Its iteration
	// count is O(1) in the grid size, so it dominates CG on 512×512+
	// grids. Grids whose dimensions cannot be coarsened even once (see
	// multigrid.go) fall back to plain SOR transparently, with SOR's own
	// defaults for the options left unset.
	MG
)

// methodNames are the methods' telemetry names.
var methodNames = [...]string{MGCG: "mgcg", CG: "cg", SOR: "sor", MG: "mg"}

// SolveOptions tunes the solver.
type SolveOptions struct {
	Method Method
	// Tol is the relative residual target (default 1e-9).
	Tol float64
	// MaxIter bounds the iteration count (default 20·(Nx+Ny) for CG and
	// MGCG, 200·(Nx+Ny) for SOR).
	MaxIter int
	// Omega is the SOR relaxation factor (default 1.8). The multigrid
	// smoother does not use it: plain Gauss-Seidel (ω=1) smooths
	// high-frequency error, which is all a V-cycle asks of it.
	Omega float64
	// CheckEvery is the number of sweeps (SOR) or V-cycles (MG) between
	// convergence checks. residualNorm costs a full grid pass, so on
	// large grids checking every sweep doubles the work; 0 takes the
	// default (8 for SOR — bit-for-bit the historical behavior — and 1
	// for MG, whose cycles are expensive relative to the check). CG and
	// MGCG ignore it: their residual norm is a byproduct of the
	// iteration.
	CheckEvery int
	// Workers bounds the solver's concurrency (0 means one per available
	// CPU). It NEVER changes the result: grids below the parallel
	// threshold always run the exact legacy sequential scheme, and above
	// it the red-black/chunked kernels are worker-count independent by
	// construction — Workers only decides how their fixed work units are
	// scheduled (see parallel.go).
	Workers int
	// Recorder receives solver telemetry after the solve finishes:
	// iteration count, final residual, convergence, the worker shard
	// count and the grid/pad sizes. Nil disables recording; recording
	// never changes the solve. Callers namespace per solve stage with
	// obs.WithPrefix (gauges are last-write-wins).
	Recorder obs.Recorder
}

func (o SolveOptions) withDefaults(g GridSpec) SolveOptions {
	if o.Tol == 0 {
		o.Tol = 1e-9
	}
	if o.MaxIter == 0 {
		switch o.Method {
		case SOR:
			o.MaxIter = 200 * (g.Nx + g.Ny)
		case MG:
			// MaxIter counts V-cycles; multigrid needs O(1) of them
			// regardless of grid size, so a flat bound suffices.
			o.MaxIter = 100
		default:
			o.MaxIter = 20 * (g.Nx + g.Ny)
		}
	}
	if o.Omega == 0 {
		o.Omega = 1.8
	}
	if o.CheckEvery == 0 {
		switch o.Method {
		case MG:
			o.CheckEvery = 1
		default:
			o.CheckEvery = 8
		}
	}
	return o
}

// Solution holds the solved node voltages.
type Solution struct {
	Spec       GridSpec
	V          []float64 // row-major: V[j*Nx+i]
	Iterations int
	Residual   float64
	// Converged reports that the iteration met its tolerance. When false
	// — the solver ran out of MaxIter (starvation) or was cancelled — V
	// is the current iterate and Residual quantifies how far it is from a
	// solution; callers must treat the voltages as an estimate, not a
	// sign-off answer.
	Converged bool
	// Stopped is the reason a non-converged solve ended early ("max
	// iterations", the context error, …); empty when Converged.
	Stopped string
}

// At returns the voltage of node (i, j).
func (s *Solution) At(i, j int) float64 { return s.V[j*s.Spec.Nx+i] }

// MaxDrop returns Vdd minus the lowest node voltage — the paper's
// "maximum value of IR-drop".
func (s *Solution) MaxDrop() float64 {
	min := math.Inf(1)
	for _, v := range s.V {
		if v < min {
			min = v
		}
	}
	return s.Spec.Vdd - min
}

// AvgDrop returns the average IR-drop over all nodes.
func (s *Solution) AvgDrop() float64 {
	var sum float64
	for _, v := range s.V {
		sum += s.Spec.Vdd - v
	}
	return sum / float64(len(s.V))
}

// WorstNode returns the coordinates of the lowest-voltage node.
func (s *Solution) WorstNode() (i, j int) {
	min, at := math.Inf(1), 0
	for k, v := range s.V {
		if v < min {
			min, at = v, k
		}
	}
	return at % s.Spec.Nx, at / s.Spec.Nx
}

// Solve computes the grid voltages for the given pad set. At least one pad
// is required (otherwise the system is singular: every node only sinks
// current). Duplicate pads are allowed and collapse to one Dirichlet node.
func Solve(g GridSpec, pads []Pad, opt SolveOptions) (*Solution, error) {
	return SolveContext(context.Background(), g, pads, opt)
}

// SolveContext is Solve with cancellation: the iteration polls ctx and on
// cancellation returns the current iterate (Converged=false, Stopped set,
// Residual computed) instead of an error, so a deadline still yields a
// best-effort voltage map. Real input errors are still errors.
func SolveContext(ctx context.Context, g GridSpec, pads []Pad, opt SolveOptions) (*Solution, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if len(pads) == 0 {
		return nil, fmt.Errorf("power: no pads: grid has no supply")
	}
	isPad := make([]bool, g.Nx*g.Ny)
	for _, p := range pads {
		if p.I < 0 || p.I >= g.Nx || p.J < 0 || p.J >= g.Ny {
			return nil, fmt.Errorf("power: pad (%d,%d) outside %dx%d grid", p.I, p.J, g.Nx, g.Ny)
		}
		isPad[p.J*g.Nx+p.I] = true
	}
	// MG and MGCG fall back to SOR and Jacobi CG on a grid with no
	// coarser level. The fallback is resolved before the defaults, so an
	// unset MaxIter or CheckEvery takes the fallback solver's own default
	// (MG's 100 V-cycles would starve SOR), while explicit values pass
	// through.
	run := opt
	var levels []*mgLevel
	switch opt.Method {
	case MG, MGCG:
		if canCoarsen(g.Nx, g.Ny) {
			levels = buildHierarchy(g, isPad)
		}
		if len(levels) < 2 {
			run.Method = SOR
			if opt.Method == MGCG {
				run.Method = CG
			}
		}
	}
	run = run.withDefaults(g)
	if run.Omega <= 0 || run.Omega >= 2 {
		return nil, fmt.Errorf("power: SOR relaxation factor %g outside (0,2)", run.Omega)
	}
	if run.Tol < 0 || run.MaxIter < 1 {
		return nil, fmt.Errorf("power: invalid solve options (tol %g, maxIter %d)", run.Tol, run.MaxIter)
	}
	if run.CheckEvery < 1 {
		return nil, fmt.Errorf("power: invalid check interval %d", run.CheckEvery)
	}
	var sol *Solution
	var err error
	switch run.Method {
	case SOR:
		sol, err = solveSOR(ctx, g, isPad, run)
	case CG:
		sol, err = solveCGPre(ctx, g, isPad, run, nil)
	case MG:
		sol, err = solveMG(ctx, g, isPad, levels, run)
	case MGCG:
		sol, err = solveCGPre(ctx, g, isPad, run, vcyclePre(levels))
	default:
		return nil, fmt.Errorf("power: unknown method %d", opt.Method)
	}
	if err == nil {
		recordSolve(run, g, len(pads), sol)
	}
	return sol, err
}

// recordSolve emits one solve's telemetry under the method that ran (a
// fallback counts as the solver it fell back to). It runs strictly after
// the numeric work, so recording can never change the solution.
func recordSolve(opt SolveOptions, g GridSpec, pads int, sol *Solution) {
	rec := obs.OrNop(opt.Recorder)
	if _, nop := rec.(obs.NopRecorder); nop {
		return
	}
	rec.Add("method/"+methodNames[opt.Method], 1)
	rec.Add("solves", 1)
	rec.Add("iterations", int64(sol.Iterations))
	rec.Set("residual", sol.Residual)
	rec.Set("max_drop", sol.MaxDrop())
	if sol.Converged {
		rec.Set("converged", 1)
	} else {
		rec.Set("converged", 0)
	}
	rec.Set("nodes", float64(g.Nx*g.Ny))
	rec.Set("pads", float64(pads))
	// The worker shard count the solve actually used: 1 below the
	// parallel threshold (legacy sequential scheme), the resolved pool
	// size above it.
	workers := 1
	if g.Nx*g.Ny >= parallelNodeThreshold {
		workers = parallel.Workers(opt.Workers)
	}
	rec.Set("workers", float64(workers))
}

// iterCheck polls the fault-injection site and the context once per solver
// iteration; a non-nil result is the reason to stop iterating.
func iterCheck(ctx context.Context) error {
	if err := faultinject.Fire(faultinject.PowerIteration); err != nil {
		return err
	}
	return ctx.Err()
}

// conductances returns the branch conductances gx (between x-neighbors) and
// gy from Eq (1)'s finite differences.
func conductances(g GridSpec) (gx, gy float64) {
	dx, dy := g.Dx(), g.Dy()
	gx = dy / (g.RsX * dx)
	gy = dx / (g.RsY * dy)
	return
}

// sinks returns the per-node sink currents.
func sinks(g GridSpec) []float64 {
	base := g.CurrentDensity * g.Dx() * g.Dy()
	out := make([]float64, g.Nx*g.Ny)
	for k := range out {
		out[k] = base
		if g.CurrentMap != nil {
			out[k] *= g.CurrentMap[k]
		}
	}
	return out
}

// residualNorm returns the max KCL violation over non-pad nodes.
func residualNorm(g GridSpec, isPad []bool, v []float64) float64 {
	gx, gy := conductances(g)
	sink := sinks(g)
	worst := 0.0
	for j := 0; j < g.Ny; j++ {
		for i := 0; i < g.Nx; i++ {
			k := j*g.Nx + i
			if isPad[k] {
				continue
			}
			var sumG, sumGV float64
			if i > 0 {
				sumG += gx
				sumGV += gx * v[k-1]
			}
			if i < g.Nx-1 {
				sumG += gx
				sumGV += gx * v[k+1]
			}
			if j > 0 {
				sumG += gy
				sumGV += gy * v[k-g.Nx]
			}
			if j < g.Ny-1 {
				sumG += gy
				sumGV += gy * v[k+g.Nx]
			}
			r := sumGV - sumG*v[k] - sink[k]
			if a := math.Abs(r); a > worst {
				worst = a
			}
		}
	}
	return worst
}

func solveSOR(ctx context.Context, g GridSpec, isPad []bool, opt SolveOptions) (*Solution, error) {
	if g.Nx*g.Ny >= parallelNodeThreshold {
		// Large grids take the red-black path (worker-count independent;
		// see parallel.go). Small grids keep the exact legacy sweep.
		return solveSORRedBlack(ctx, g, isPad, opt)
	}
	gx, gy := conductances(g)
	sink := sinks(g)
	v := make([]float64, g.Nx*g.Ny)
	var scale float64
	for k := range v {
		v[k] = g.Vdd
		scale += math.Abs(sink[k])
	}
	scale /= float64(len(v)) // mean sink current sets the residual scale
	if scale == 0 {
		scale = 1
	}
	var res float64
	sweeps := 0 // completed sweeps: 0 means v is still the flat initial guess
	converged := false
	stopped := "max iterations"
	for it := 0; it < opt.MaxIter; it++ {
		if err := iterCheck(ctx); err != nil {
			stopped = err.Error()
			break
		}
		for j := 0; j < g.Ny; j++ {
			for i := 0; i < g.Nx; i++ {
				k := j*g.Nx + i
				if isPad[k] {
					continue
				}
				var sumG, sumGV float64
				if i > 0 {
					sumG += gx
					sumGV += gx * v[k-1]
				}
				if i < g.Nx-1 {
					sumG += gx
					sumGV += gx * v[k+1]
				}
				if j > 0 {
					sumG += gy
					sumGV += gy * v[k-g.Nx]
				}
				if j < g.Ny-1 {
					sumG += gy
					sumGV += gy * v[k+g.Nx]
				}
				next := (sumGV - sink[k]) / sumG
				v[k] += opt.Omega * (next - v[k])
			}
		}
		sweeps++
		if sweeps%opt.CheckEvery == 0 {
			res = residualNorm(g, isPad, v)
			if res <= opt.Tol*scale*float64(g.Nx*g.Ny) {
				converged = true
				break
			}
		}
	}
	res = residualNorm(g, isPad, v)
	if !converged {
		// The in-loop test only runs every 8 sweeps; the exit iterate may
		// already be good enough.
		converged = res <= opt.Tol*scale*float64(g.Nx*g.Ny)
	}
	sol := &Solution{Spec: g, V: v, Iterations: sweeps, Residual: res, Converged: converged}
	if !converged {
		sol.Stopped = stopped
	}
	return sol, nil
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
