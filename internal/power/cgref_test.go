package power

import (
	"context"
	"math"

	"copack/internal/parallel"
)

// refSolveCGPre is the closure-based Jacobi-CG loop the fused kernel in
// cg.go replaced, kept verbatim as the bit-identity oracle for
// cg_test.go: separate mat-vec, preconditioner, axpy and dot passes,
// index lookups through idx, and dot or dotChunked chosen by the unknown
// count. mkPre has solveCGPre's contract.
func refSolveCGPre(ctx context.Context, g GridSpec, isPad []bool, opt SolveOptions, mkPre func(unknowns []int, workers int) func(r, z []float64)) (*Solution, error) {
	gx, gy := conductances(g)
	sink := sinks(g)
	n := g.Nx * g.Ny

	// Unknown indexing.
	idx := make([]int, n)
	var unknowns []int
	for k := 0; k < n; k++ {
		if isPad[k] {
			idx[k] = -1
			continue
		}
		idx[k] = len(unknowns)
		unknowns = append(unknowns, k)
	}
	m := len(unknowns)
	if m == 0 {
		v := make([]float64, n)
		for k := range v {
			v[k] = g.Vdd
		}
		return &Solution{Spec: g, V: v, Iterations: 0, Converged: true}, nil
	}

	diag := make([]float64, m)
	b := make([]float64, m)
	for u, k := range unknowns {
		i, j := k%g.Nx, k/g.Nx
		var sumG float64
		add := func(nk int, cond float64) {
			sumG += cond
			if isPad[nk] {
				b[u] += cond * g.Vdd
			}
		}
		if i > 0 {
			add(k-1, gx)
		}
		if i < g.Nx-1 {
			add(k+1, gx)
		}
		if j > 0 {
			add(k-g.Nx, gy)
		}
		if j < g.Ny-1 {
			add(k+g.Nx, gy)
		}
		diag[u] = sumG
		b[u] -= sink[k]
	}

	// Above the node threshold the kernels go parallel: row-sharded
	// mat-vec (each row writes a disjoint output — identical for any
	// partition) and fixed-chunk dot products (deterministic summation
	// order; see parallel.go). Below it, the exact legacy sequential
	// scheme runs, whatever Workers says.
	par := m >= parallelNodeThreshold
	workers := 1
	if par {
		workers = parallel.Workers(opt.Workers)
	}
	dotf := dot
	if par {
		dotf = func(a, b []float64) float64 { return dotChunked(a, b, workers) }
	}

	// mul computes y = A·x for the eliminated Laplacian.
	mul := func(x, y []float64) {
		parallelRange(m, workers, func(lo, hi int) {
			for u := lo; u < hi; u++ {
				k := unknowns[u]
				i, j := k%g.Nx, k/g.Nx
				acc := diag[u] * x[u]
				if i > 0 && idx[k-1] >= 0 {
					acc -= gx * x[idx[k-1]]
				}
				if i < g.Nx-1 && idx[k+1] >= 0 {
					acc -= gx * x[idx[k+1]]
				}
				if j > 0 && idx[k-g.Nx] >= 0 {
					acc -= gy * x[idx[k-g.Nx]]
				}
				if j < g.Ny-1 && idx[k+g.Nx] >= 0 {
					acc -= gy * x[idx[k+g.Nx]]
				}
				y[u] = acc
			}
		})
	}

	x := make([]float64, m) // start from Vdd everywhere
	for u := range x {
		x[u] = g.Vdd
	}
	r := make([]float64, m)
	ax := make([]float64, m)
	mul(x, ax)
	var bnorm float64
	for u := range r {
		r[u] = b[u] - ax[u]
		bnorm += b[u] * b[u]
	}
	bnorm = math.Sqrt(bnorm)
	if bnorm == 0 {
		bnorm = 1
	}

	z := make([]float64, m)
	p := make([]float64, m)
	ap := make([]float64, m)
	precond := func(r, z []float64) {
		for u := range z {
			z[u] = r[u] / diag[u]
		}
	}
	if mkPre != nil {
		if p := mkPre(unknowns, workers); p != nil {
			precond = p
		}
	}
	precond(r, z)
	copy(p, z)
	rz := dotf(r, z)

	var it int
	converged := false
	stopped := "max iterations"
	for it = 0; it < opt.MaxIter; it++ {
		if math.Sqrt(dotf(r, r)) <= opt.Tol*bnorm {
			converged = true
			break
		}
		if err := iterCheck(ctx); err != nil {
			stopped = err.Error()
			break
		}
		mul(p, ap)
		alpha := rz / dotf(p, ap)
		for u := range x {
			x[u] += alpha * p[u]
			r[u] -= alpha * ap[u]
		}
		precond(r, z)
		rzNext := dotf(r, z)
		beta := rzNext / rz
		rz = rzNext
		for u := range p {
			p[u] = z[u] + beta*p[u]
		}
	}

	if !converged {
		// MaxIter may have landed exactly on a converged iterate.
		converged = math.Sqrt(dotf(r, r)) <= opt.Tol*bnorm
	}
	v := make([]float64, n)
	for k := 0; k < n; k++ {
		if isPad[k] {
			v[k] = g.Vdd
		} else {
			v[k] = x[idx[k]]
		}
	}
	sol := &Solution{Spec: g, V: v, Iterations: it, Residual: residualNorm(g, isPad, v), Converged: converged}
	if !converged {
		sol.Stopped = stopped
	}
	return sol, nil
}
