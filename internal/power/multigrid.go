package power

import (
	"context"
	"math"

	"copack/internal/parallel"
)

// Geometric multigrid for the Eq (1) mesh. The hierarchy is vertex-centered:
// a fine grid with odd node counts (Nx, Ny ≥ 5) coarsens to ((Nx+1)/2,
// (Ny+1)/2) by keeping every other node, so coarse node (I,J) sits exactly on
// fine node (2I,2J). Because the branch conductances gx = Δy/(RsX·Δx) and
// gy = Δx/(RsY·Δy) are invariant under doubling both spacings, every level
// reuses the fine conductances verbatim — the coarse operator is the
// rediscretized five-point stencil, no Galerkin product needed.
//
// Transfer operators are the matched pair P (bilinear interpolation) and
// R = Pᵀ (full weighting with weights summing to 4: center 1, edges 1/2,
// corners 1/4). The 4× total weight is load-bearing, not a convention: the
// per-node sink current scales with the cell area Δx·Δy, so a coarse cell
// aggregates 4 fine cells' worth of right-hand side. With sum-to-1 weighting
// the coarse correction comes back 4× too small and the V-cycle degenerates
// to little better than smoothing.
//
// Determinism: every kernel below is sharded over index-disjoint outputs —
// red-black half-sweeps only read the opposite color,
// residual/restrict/prolong are pure gather-writes — and the only
// reduction (the convergence check) goes through dotChunked's fixed-chunk
// summation. Workers therefore never changes a single bit of the result.
const (
	// mgMinDim is the smallest odd dimension that still coarsens (to 3).
	mgMinDim = 5
	// mgPreSweeps / mgPostSweeps are the red-black Gauss-Seidel smoothing
	// sweeps on the way down / up. Post-smoothing reverses the color order
	// (black then red) so the whole V-cycle is a symmetric operator —
	// required for MGCG, where the preconditioner must be SPD.
	mgPreSweeps  = 2
	mgPostSweeps = 2
	// mgCoarsestSweeps is the number of symmetric sweep pairs on the
	// coarsest level, which is at most mgMinDim-ish on a side — cheap
	// enough to just hammer flat.
	mgCoarsestSweeps = 20
)

// mgLevel is one grid of the hierarchy. Level 0 is the fine problem; deeper
// levels hold the restricted residual equations.
//
// Pads coarsen in a hybrid of two representations. A pad that coincides
// with a coarse node (both coordinates even) stays an exact Dirichlet pin.
// A dropped pad (odd coordinate) instead becomes a diagonal "spring" on the
// free nodes around it: in the eliminated fine operator a node adjacent to
// a pad keeps the pad-link conductance on its diagonal without a matching
// off-diagonal — a grounding spring (the correction equation's ground is
// 0) — and those springs aggregate down the hierarchy with the Pᵀ weights.
// Neither representation suffices alone: ignoring dropped pads lets the
// coarse grid overcorrect through the missing pins and the V-iteration
// amplifies ~4× per cycle on the paper's sparse pad rings, while growing
// the Dirichlet set to cover dropped pads over-pins and roughly halves the
// per-cycle contraction. Springs only add to the diagonal, so the coarse
// operators stay SPD and the cycle remains a valid MGCG preconditioner.
type mgLevel struct {
	nx, ny int
	gx, gy float64
	isPad  []bool    // level 0: the real pads; deeper levels: surviving (coincident) pads
	spring []float64 // diagonal Dirichlet coupling; level 0: all zero (pads are pinned directly)
	diag   []float64 // spring plus the in-grid link conductances: the free node's full diagonal
	v      []float64 // iterate (level 0) / correction (deeper levels)
	rhs    []float64 // -sink or CG residual (level 0) / restricted residual
	res    []float64 // residual scratch
}

// canCoarsen reports whether a (nx, ny) vertex grid has a coarser level:
// both dimensions odd (so every coarse node coincides with a fine node) and
// at least mgMinDim (so the coarse grid is a real grid, not a line).
func canCoarsen(nx, ny int) bool {
	return nx >= mgMinDim && ny >= mgMinDim && nx%2 == 1 && ny%2 == 1
}

// buildHierarchy constructs the level stack for g, finest first (see the
// mgLevel comment for the hybrid pad/spring coarsening rule). Coarsening
// stops when the dimensions stop being coarsenable or when the next level
// would have neither pads nor springs (such a level is singular — red-black
// sweeps on it could drift the correction by an arbitrary constant). A
// result of length 1 means the grid cannot be coarsened even once and the
// caller should fall back to a single-level solver.
func buildHierarchy(g GridSpec, isPad []bool) []*mgLevel {
	gx, gy := conductances(g)
	levels := []*mgLevel{newLevel(g.Nx, g.Ny, gx, gy, isPad)}
	for {
		cur := levels[len(levels)-1]
		if !canCoarsen(cur.nx, cur.ny) {
			break
		}
		cnx, cny := (cur.nx+1)/2, (cur.ny+1)/2

		// A pad survives to the coarse grid iff it coincides with a coarse
		// node (both coordinates even) — those stay exact Dirichlet pins.
		survives := func(fi, fj int) bool { return fi%2 == 0 && fj%2 == 0 }

		// seed is the per-free-node coupling the coarse grid must inherit as
		// diagonal springs: the level's own springs plus the link
		// conductances to pads that do NOT survive coarsening. Links to
		// surviving pads are excluded — they reappear as real coarse-grid
		// links to the coarse pad, and counting them twice over-stiffens
		// the boundary.
		seed := cur.res // free until the solve's first residual
		anyPad := false
		for j := 0; j < cur.ny; j++ {
			for i := 0; i < cur.nx; i++ {
				k := j*cur.nx + i
				if cur.isPad[k] {
					seed[k] = 0
					continue
				}
				s := cur.spring[k]
				if i > 0 && cur.isPad[k-1] && !survives(i-1, j) {
					s += gx
				}
				if i < cur.nx-1 && cur.isPad[k+1] && !survives(i+1, j) {
					s += gx
				}
				if j > 0 && cur.isPad[k-cur.nx] && !survives(i, j-1) {
					s += gy
				}
				if j < cur.ny-1 && cur.isPad[k+cur.nx] && !survives(i, j+1) {
					s += gy
				}
				seed[k] = s
			}
		}
		next := newLevel(cnx, cny, gx, gy, make([]bool, cnx*cny))
		pad, spring := next.isPad, next.spring
		var total float64
		for J := 0; J < cny; J++ {
			for I := 0; I < cnx; I++ {
				ck := J*cnx + I
				if cur.isPad[(2*J)*cur.nx+2*I] {
					pad[ck] = true
					anyPad = true
					continue
				}
				spring[ck] = gatherFW(seed, cur.nx, cur.ny, I, J)
				total += spring[ck]
			}
		}
		if !anyPad && total == 0 {
			break
		}
		levels = append(levels, next)
	}
	for _, lv := range levels {
		for k := range lv.diag {
			i, j := k%lv.nx, k/lv.nx
			d := lv.spring[k]
			if i > 0 {
				d += gx
			}
			if i < lv.nx-1 {
				d += gx
			}
			if j > 0 {
				d += gy
			}
			if j < lv.ny-1 {
				d += gy
			}
			lv.diag[k] = d
		}
	}
	return levels
}

// newLevel allocates an (nx, ny) level whose five vectors share one
// backing array.
func newLevel(nx, ny int, gx, gy float64, isPad []bool) *mgLevel {
	n := nx * ny
	vec := make([]float64, 5*n)
	return &mgLevel{
		nx: nx, ny: ny, gx: gx, gy: gy, isPad: isPad,
		spring: vec[:n:n], diag: vec[n : 2*n : 2*n],
		v: vec[2*n : 3*n : 3*n], rhs: vec[3*n : 4*n : 4*n], res: vec[4*n:],
	}
}

// gatherFW applies the Pᵀ full-weighting stencil (center 1, edges 1/2,
// corners 1/4) to src at coarse node (I, J) over a (fnx, fny) fine grid.
func gatherFW(src []float64, fnx, fny, I, J int) float64 {
	fi, fj := 2*I, 2*J
	fk := fj*fnx + fi
	s := src[fk]
	if fi > 0 {
		s += 0.5 * src[fk-1]
	}
	if fi < fnx-1 {
		s += 0.5 * src[fk+1]
	}
	if fj > 0 {
		s += 0.5 * src[fk-fnx]
		if fi > 0 {
			s += 0.25 * src[fk-fnx-1]
		}
		if fi < fnx-1 {
			s += 0.25 * src[fk-fnx+1]
		}
	}
	if fj < fny-1 {
		s += 0.5 * src[fk+fnx]
		if fi > 0 {
			s += 0.25 * src[fk+fnx-1]
		}
		if fi < fnx-1 {
			s += 0.25 * src[fk+fnx+1]
		}
	}
	return s
}

// Every kernel below runs its row function inline when workers is 1, the
// case for every grid under parallelNodeThreshold, so a V-cycle allocates
// nothing; only the pooled path builds a parallelRange closure. Interior
// nodes take a branch-free five-point stencil over the precomputed diag
// and the boundary ring goes through linkSum; both sum the neighbours
// left, right, down, up, so the split changes no bit of the result.

// linkSum returns Σ g·v over the in-grid neighbours of node k = (i, j).
func (lv *mgLevel) linkSum(i, j, k int) float64 {
	var s float64
	if i > 0 {
		s += lv.gx * lv.v[k-1]
	}
	if i < lv.nx-1 {
		s += lv.gx * lv.v[k+1]
	}
	if j > 0 {
		s += lv.gy * lv.v[k-lv.nx]
	}
	if j < lv.ny-1 {
		s += lv.gy * lv.v[k+lv.nx]
	}
	return s
}

// rbSweep runs one half-sweep of plain Gauss-Seidel (ω=1 — a smoother wants
// to kill high-frequency error, over-relaxation only helps the low
// frequencies the coarse grids already handle) over the given color. A node
// of one color reads only the opposite color, so any row partition and any
// visiting order within a row produce the same iterate.
func rbSweep(lv *mgLevel, color, workers int) {
	if workers <= 1 {
		rbSweepRows(lv, color, 0, lv.ny)
		return
	}
	parallelRange(lv.ny, workers, func(jlo, jhi int) { rbSweepRows(lv, color, jlo, jhi) })
}

func rbSweepRows(lv *mgLevel, color, jlo, jhi int) {
	nx, gx, gy := lv.nx, lv.gx, lv.gy
	v, rhs, isPad, diag := lv.v, lv.rhs, lv.isPad, lv.diag
	relax := func(i, j int) {
		if k := j*nx + i; !isPad[k] {
			v[k] = (lv.linkSum(i, j, k) + rhs[k]) / diag[k]
		}
	}
	for j := jlo; j < jhi; j++ {
		first := (color + j) % 2
		if j == 0 || j == lv.ny-1 {
			for i := first; i < nx; i += 2 {
				relax(i, j)
			}
			continue
		}
		lo := first
		if first == 0 {
			relax(0, j)
			lo = 2
		}
		for k := j*nx + lo; k < (j+1)*nx-1; k += 2 {
			if !isPad[k] {
				v[k] = (gx*v[k-1] + gx*v[k+1] + gy*v[k-nx] + gy*v[k+nx] + rhs[k]) / diag[k]
			}
		}
		if (nx-1-first)%2 == 0 {
			relax(nx-1, j)
		}
	}
}

// computeResidual fills lv.res with rhs - A·v (zero at pads).
func computeResidual(lv *mgLevel, workers int) {
	if workers <= 1 {
		residualRows(lv, 0, lv.ny)
		return
	}
	parallelRange(lv.ny, workers, func(jlo, jhi int) { residualRows(lv, jlo, jhi) })
}

func residualRows(lv *mgLevel, jlo, jhi int) {
	nx, gx, gy := lv.nx, lv.gx, lv.gy
	v, rhs, res, isPad, diag := lv.v, lv.rhs, lv.res, lv.isPad, lv.diag
	for j := jlo; j < jhi; j++ {
		for i := 0; i < nx; i++ {
			switch k := j*nx + i; {
			case isPad[k]:
				res[k] = 0
			case i == 0 || i == nx-1 || j == 0 || j == lv.ny-1:
				res[k] = rhs[k] + lv.linkSum(i, j, k) - diag[k]*v[k]
			default:
				res[k] = rhs[k] + (gx*v[k-1] + gx*v[k+1] + gy*v[k-nx] + gy*v[k+nx]) - diag[k]*v[k]
			}
		}
	}
}

// restrict transfers the fine residual to the coarse right-hand side with
// R = Pᵀ full weighting (center 1, edges 1/2, corners 1/4 — see the package
// comment for why the weights sum to 4, not 1). Fine pad residuals are zero,
// so pads drop out of the gather without a special case. Each coarse node is
// a pure gather from the fine residual.
func restrict(fine, coarse *mgLevel, workers int) {
	if workers <= 1 {
		restrictRows(fine, coarse, 0, coarse.ny)
		return
	}
	parallelRange(coarse.ny, workers, func(Jlo, Jhi int) { restrictRows(fine, coarse, Jlo, Jhi) })
}

func restrictRows(fine, coarse *mgLevel, Jlo, Jhi int) {
	for J := Jlo; J < Jhi; J++ {
		for I := 0; I < coarse.nx; I++ {
			coarse.rhs[J*coarse.nx+I] = gatherFW(fine.res, fine.nx, fine.ny, I, J)
		}
	}
}

// prolong adds the bilinear interpolation of the coarse correction into the
// fine iterate, skipping fine pads (pinned Dirichlet values). Formulated as
// a pull per fine node — each fine node gathers from its 1, 2 or 4 parent
// coarse nodes and writes only itself — so row sharding is conflict-free.
func prolong(coarse, fine *mgLevel, workers int) {
	if workers <= 1 {
		prolongRows(coarse, fine, 0, fine.ny)
		return
	}
	parallelRange(fine.ny, workers, func(jlo, jhi int) { prolongRows(coarse, fine, jlo, jhi) })
}

func prolongRows(coarse, fine *mgLevel, jlo, jhi int) {
	cnx := coarse.nx
	cv, v, isPad := coarse.v, fine.v, fine.isPad
	for j := jlo; j < jhi; j++ {
		J := j / 2
		for i := 0; i < fine.nx; i++ {
			k := j*fine.nx + i
			if isPad[k] {
				continue
			}
			I := i / 2
			ck := J*cnx + I
			switch {
			case i%2 == 0 && j%2 == 0:
				v[k] += cv[ck]
			case i%2 == 1 && j%2 == 0:
				v[k] += 0.5 * (cv[ck] + cv[ck+1])
			case i%2 == 0 && j%2 == 1:
				v[k] += 0.5 * (cv[ck] + cv[ck+cnx])
			default:
				v[k] += 0.25 * (cv[ck] + cv[ck+1] + cv[ck+cnx] + cv[ck+cnx+1])
			}
		}
	}
}

// vcycle runs one V-cycle rooted at level l. Pre-smoothing sweeps red then
// black; post-smoothing black then red; the coarsest level runs symmetric
// sweep pairs — together that makes the cycle a symmetric operator, which is
// what lets vcyclePre serve MGCG as an SPD preconditioner.
func vcycle(levels []*mgLevel, l, workers int) {
	lv := levels[l]
	if l == len(levels)-1 {
		for s := 0; s < mgCoarsestSweeps; s++ {
			rbSweep(lv, 0, workers)
			rbSweep(lv, 1, workers)
			rbSweep(lv, 1, workers)
			rbSweep(lv, 0, workers)
		}
		return
	}
	for s := 0; s < mgPreSweeps; s++ {
		rbSweep(lv, 0, workers)
		rbSweep(lv, 1, workers)
	}
	computeResidual(lv, workers)
	next := levels[l+1]
	restrict(lv, next, workers)
	for i := range next.v {
		next.v[i] = 0
	}
	vcycle(levels, l+1, workers)
	prolong(next, lv, workers)
	for s := 0; s < mgPostSweeps; s++ {
		rbSweep(lv, 1, workers)
		rbSweep(lv, 0, workers)
	}
}

// solveMG is the standalone multigrid driver: V-cycles until the true
// fine-grid residual meets CG's exact criterion ‖r‖₂ ≤ Tol·‖b‖₂ (b being the
// eliminated system's right-hand side), so "mg at the same tolerance as cg"
// means the same mathematical statement, not two different norms. levels is
// buildHierarchy's stack, at least two deep (SolveContext sends grids that
// cannot be coarsened to plain SOR instead).
func solveMG(ctx context.Context, g GridSpec, isPad []bool, levels []*mgLevel, opt SolveOptions) (*Solution, error) {
	workers := 1
	if g.Nx*g.Ny >= parallelNodeThreshold {
		workers = parallel.Workers(opt.Workers)
	}
	fine := levels[0]
	sink := sinks(g)
	gx, gy := fine.gx, fine.gy
	// b is the eliminated-system right-hand side scattered onto the full
	// grid (zero at pads): -sink plus the Dirichlet terms of pad neighbors.
	// Its 2-norm anchors the relative tolerance exactly as in solveCGPre.
	b := make([]float64, g.Nx*g.Ny)
	for j := 0; j < g.Ny; j++ {
		for i := 0; i < g.Nx; i++ {
			k := j*g.Nx + i
			fine.v[k] = g.Vdd
			if isPad[k] {
				continue
			}
			fine.rhs[k] = -sink[k]
			bk := -sink[k]
			if i > 0 && isPad[k-1] {
				bk += gx * g.Vdd
			}
			if i < g.Nx-1 && isPad[k+1] {
				bk += gx * g.Vdd
			}
			if j > 0 && isPad[k-g.Nx] {
				bk += gy * g.Vdd
			}
			if j < g.Ny-1 && isPad[k+g.Nx] {
				bk += gy * g.Vdd
			}
			b[k] = bk
		}
	}
	bnorm := math.Sqrt(dotChunked(b, b, workers))
	if bnorm == 0 {
		bnorm = 1
	}
	rnorm := func() float64 {
		computeResidual(fine, workers)
		return math.Sqrt(dotChunked(fine.res, fine.res, workers))
	}
	cycles := 0
	converged := rnorm() <= opt.Tol*bnorm
	stopped := "max iterations"
	for it := 0; it < opt.MaxIter && !converged; it++ {
		if err := iterCheck(ctx); err != nil {
			stopped = err.Error()
			break
		}
		vcycle(levels, 0, workers)
		cycles++
		if cycles%opt.CheckEvery == 0 && rnorm() <= opt.Tol*bnorm {
			converged = true
		}
	}
	if !converged {
		// The in-loop test only runs every CheckEvery cycles; the exit
		// iterate may already be good enough.
		converged = rnorm() <= opt.Tol*bnorm
	}
	sol := &Solution{
		Spec: g, V: fine.v, Iterations: cycles,
		Residual: residualNormWorkers(g, isPad, fine.v, workers), Converged: converged,
	}
	if !converged {
		sol.Stopped = stopped
	}
	return sol, nil
}

// vcyclePre is MGCG's preconditioner for solveCGPre: one V-cycle over
// levels per CG iteration. The cycle is a symmetric positive operator
// (symmetric smoothing order, matched Pᵀ/P transfers, zero initial
// correction), so CG's convergence theory applies and the iteration count
// inherits multigrid's mesh independence. levels is at least two deep
// (SolveContext sends grids that cannot be coarsened to Jacobi CG).
func vcyclePre(levels []*mgLevel) func(unknowns []int, workers int) func(r, z []float64) {
	fine := levels[0]
	return func(unknowns []int, workers int) func(r, z []float64) {
		return func(r, z []float64) {
			for i := range fine.rhs {
				fine.rhs[i] = 0
				fine.v[i] = 0
			}
			for u, k := range unknowns {
				fine.rhs[k] = r[u]
			}
			vcycle(levels, 0, workers)
			for u, k := range unknowns {
				z[u] = fine.v[k]
			}
		}
	}
}
