package power

import (
	"context"
	"math"

	"copack/internal/parallel"
)

// Parallel solve kernels. The cardinal rule: the numeric scheme is selected
// by PROBLEM SIZE ONLY, never by worker count, so a solve's result is
// byte-identical for every SolveOptions.Workers value.
//
//   - SOR keeps the lexicographic sweep below parallelNodeThreshold and
//     switches to red-black ordering at or above it. Red and black
//     half-sweeps only read the opposite color, so any partition of a
//     half-sweep commutes.
//   - CG is one kernel (cg.go) whose passes walk fixed dotChunkSize chunks
//     and add the chunk partials in chunk order, whichever worker ran a
//     chunk. Below the threshold there is a single chunk, which is the
//     plain sequential sum; the chunks only go to the worker pool at or
//     above it.
//   - Multigrid and residual kernels write disjoint rows, and their
//     reductions go through dotChunked or a max.
//
// Workers therefore only decides how the fixed work units are scheduled
// (see DESIGN.md).
const (
	// parallelNodeThreshold is the node count at which the solvers switch
	// to the parallel (red-black / chunked) schemes. 4096 nodes (64×64)
	// is safely above every grid the plans and experiments use (49×49 and
	// smaller), so all published numbers ride the sequential paths.
	parallelNodeThreshold = 4096
	// dotChunkSize is the fixed reduction granule of chunked dot
	// products. It never varies with the worker count — that is what
	// keeps the summation order, and thus the result, deterministic.
	dotChunkSize = 4096
)

// parallelRange invokes fn over a partition of [0, n) on up to workers
// goroutines. fn must write only to index-disjoint outputs; under that
// contract the result is identical for every worker count. workers <= 1
// calls fn(0, n) inline.
func parallelRange(n, workers int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers <= 1 || n == 1 {
		fn(0, n)
		return
	}
	if workers > n {
		workers = n
	}
	chunk := (n + workers - 1) / workers
	chunks := (n + chunk - 1) / chunk
	parallel.ForEach(context.Background(), chunks, workers, func(_ context.Context, c int) {
		lo := c * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		fn(lo, hi)
	})
}

// dotChunked is the deterministic parallel dot product: fixed-size partial
// sums, combined in chunk order. For any workers value (including 1) it
// returns the same bits; it differs from the plain sequential loop only in
// association, which is why it is gated by problem size, not workers.
func dotChunked(a, b []float64, workers int) float64 {
	n := len(a)
	chunks := (n + dotChunkSize - 1) / dotChunkSize
	if chunks <= 1 {
		return dot(a, b)
	}
	partial := make([]float64, chunks)
	parallelRange(chunks, workers, func(clo, chi int) {
		for c := clo; c < chi; c++ {
			lo := c * dotChunkSize
			hi := lo + dotChunkSize
			if hi > n {
				hi = n
			}
			var s float64
			for i := lo; i < hi; i++ {
				s += a[i] * b[i]
			}
			partial[c] = s
		}
	})
	var s float64
	for _, p := range partial {
		s += p
	}
	return s
}

// residualNormWorkers is residualNorm with row sharding. Max-reduction is
// order-independent, so the result equals the sequential one exactly.
func residualNormWorkers(g GridSpec, isPad []bool, v []float64, workers int) float64 {
	if workers <= 1 {
		return residualNorm(g, isPad, v)
	}
	gx, gy := conductances(g)
	sink := sinks(g)
	rowMax := make([]float64, g.Ny)
	parallelRange(g.Ny, workers, func(jlo, jhi int) {
		for j := jlo; j < jhi; j++ {
			worst := 0.0
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
			rowMax[j] = worst
		}
	})
	worst := 0.0
	for _, m := range rowMax {
		if m > worst {
			worst = m
		}
	}
	return worst
}

// solveSORRedBlack is the large-grid SOR path: red-black ordering, each
// half-sweep sharded across rows. A red node's stencil touches only black
// nodes and vice versa, so the updates inside one half-sweep are mutually
// independent — any row partition produces the same iterate, making the
// solve worker-count independent. It converges to the same fixed point as
// the lexicographic sweep (same update equation, same Dirichlet pads),
// just in a different visit order.
func solveSORRedBlack(ctx context.Context, g GridSpec, isPad []bool, opt SolveOptions) (*Solution, error) {
	gx, gy := conductances(g)
	sink := sinks(g)
	workers := parallel.Workers(opt.Workers)
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
	halfSweep := func(color int) {
		parallelRange(g.Ny, workers, func(jlo, jhi int) {
			for j := jlo; j < jhi; j++ {
				for i := (color + j) % 2; i < g.Nx; i += 2 {
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
		})
	}
	var res float64
	sweeps := 0
	converged := false
	stopped := "max iterations"
	for it := 0; it < opt.MaxIter; it++ {
		if err := iterCheck(ctx); err != nil {
			stopped = err.Error()
			break
		}
		halfSweep(0)
		halfSweep(1)
		sweeps++
		if sweeps%opt.CheckEvery == 0 {
			res = residualNormWorkers(g, isPad, v, workers)
			if res <= opt.Tol*scale*float64(g.Nx*g.Ny) {
				converged = true
				break
			}
		}
	}
	res = residualNormWorkers(g, isPad, v, workers)
	if !converged {
		converged = res <= opt.Tol*scale*float64(g.Nx*g.Ny)
	}
	sol := &Solution{Spec: g, V: v, Iterations: sweeps, Residual: res, Converged: converged}
	if !converged {
		sol.Stopped = stopped
	}
	return sol, nil
}
