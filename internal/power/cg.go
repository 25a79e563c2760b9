package power

import (
	"context"
	"math"

	"copack/internal/parallel"
)

// The conjugate-gradient engine behind CG and MGCG: one fused kernel over
// the Dirichlet-eliminated five-point system (see DESIGN.md, "Fused Jacobi
// CG"). An iteration is three passes over the unknowns:
//
//	matvec     ap = A·p, and p·ap
//	update     x += α·p, r −= α·ap; with the Jacobi preconditioner also
//	           z = r/diag, r·z and r·r
//	direction  p = z + β·p
//
// A custom preconditioner runs between the update pass and a dots pass
// that forms r·z and r·r.
//
// Every pass walks fixed dotChunkSize chunks of the unknowns. A chunk's
// sums accumulate element by element in index order, and the chunk
// partials are added in chunk order, whichever worker ran the chunk. Below
// dotChunkSize unknowns there is one chunk, which is the plain sequential
// sum; at or above it the sums are dotChunked's. Workers only decides how
// chunks are scheduled, never a bit of the result.

// cgPass selects what one kernel pass computes.
type cgPass int

const (
	passMatVec cgPass = iota
	passUpdate
	passDots
	passDirection
)

// cgKernel holds one solve's eliminated system and CG vectors.
type cgKernel struct {
	m      int
	gx, gy float64
	// nb holds the four neighbours of unknown u at nb[4u:4u+4], in the
	// order left, right, down, up. A neighbour that is off the grid or a
	// pad points at index m, where p holds the sentinel +0.
	nb   []int32
	diag []float64
	x, r []float64
	z    []float64
	p    []float64 // length m+1; p[m] is the +0 sentinel
	ap   []float64
	// jacobi folds z = r/diag into the update and dots passes; false
	// when a custom preconditioner fills z between them.
	jacobi bool
	// scale is the α or β of the running update or direction pass.
	scale float64
	// sum0, sum1 hold each chunk's partial sums.
	sum0, sum1 []float64
	workers    int
}

// run executes one pass over every chunk and returns its two sums (each
// pass documents which it fills), added in chunk order.
func (k *cgKernel) run(pass cgPass, scale float64) (s0, s1 float64) {
	k.scale = scale
	chunks := len(k.sum0)
	if k.workers <= 1 || chunks == 1 {
		for c := 0; c < chunks; c++ {
			k.chunk(pass, c)
		}
	} else {
		parallel.ForEach(context.Background(), chunks, k.workers, func(_ context.Context, c int) {
			k.chunk(pass, c)
		})
	}
	for c := 0; c < chunks; c++ {
		s0 += k.sum0[c]
		s1 += k.sum1[c]
	}
	return s0, s1
}

// chunk runs one pass over chunk c and stores its partial sums:
//
//	passMatVec     sum0 = p·ap
//	passUpdate     sum0 = r·z, sum1 = r·r (Jacobi only)
//	passDots       sum0 = r·z, sum1 = r·r
//	passDirection  none
func (k *cgKernel) chunk(pass cgPass, c int) {
	lo := c * dotChunkSize
	hi := min(lo+dotChunkSize, k.m)
	x, r, z, p, ap, diag := k.x, k.r, k.z, k.p, k.ap, k.diag
	var s0, s1 float64
	switch pass {
	case passMatVec:
		gx, gy, nb := k.gx, k.gy, k.nb
		for u := lo; u < hi; u++ {
			n := nb[4*u : 4*u+4 : 4*u+4]
			// One subtraction per neighbour, in this order: a missing
			// neighbour subtracts gx·(+0) = +0, which leaves acc as it is.
			acc := diag[u] * p[u]
			acc -= gx * p[n[0]]
			acc -= gx * p[n[1]]
			acc -= gy * p[n[2]]
			acc -= gy * p[n[3]]
			ap[u] = acc
			s0 += p[u] * ap[u]
		}
	case passUpdate:
		alpha := k.scale
		if !k.jacobi {
			for u := lo; u < hi; u++ {
				x[u] += alpha * p[u]
				r[u] -= alpha * ap[u]
			}
			break
		}
		for u := lo; u < hi; u++ {
			x[u] += alpha * p[u]
			r[u] -= alpha * ap[u]
			z[u] = r[u] / diag[u]
			s0 += r[u] * z[u]
			s1 += r[u] * r[u]
		}
	case passDots:
		if k.jacobi {
			for u := lo; u < hi; u++ {
				z[u] = r[u] / diag[u]
			}
		}
		for u := lo; u < hi; u++ {
			s0 += r[u] * z[u]
			s1 += r[u] * r[u]
		}
	case passDirection:
		beta := k.scale
		for u := lo; u < hi; u++ {
			p[u] = z[u] + beta*p[u]
		}
	}
	k.sum0[c], k.sum1[c] = s0, s1
}

// solveCGPre solves the Dirichlet-eliminated SPD system with preconditioned
// conjugate gradients. mkPre, when non-nil, is called once with the unknown
// index list and the resolved worker count and must return a function
// computing z ≈ A⁻¹r (r and z are eliminated-system vectors); the operator
// must be symmetric positive definite for CG's theory to hold. A nil mkPre
// (or a nil function from it) selects the Jacobi (diagonal) preconditioner,
// fused into the kernel's passes: the CG method.
func solveCGPre(ctx context.Context, g GridSpec, isPad []bool, opt SolveOptions, mkPre func(unknowns []int, workers int) func(r, z []float64)) (*Solution, error) {
	gx, gy := conductances(g)
	sink := sinks(g)
	n := g.Nx * g.Ny

	// Unknown indexing: idx maps a node to its unknown, or -1 at a pad.
	idx := make([]int32, n)
	m := 0
	for k := 0; k < n; k++ {
		if isPad[k] {
			idx[k] = -1
			continue
		}
		idx[k] = int32(m)
		m++
	}
	v := make([]float64, n)
	if m == 0 {
		for k := range v {
			v[k] = g.Vdd
		}
		return &Solution{Spec: g, V: v, Iterations: 0, Converged: true}, nil
	}
	unknowns := make([]int, 0, m)
	for k := 0; k < n; k++ {
		if !isPad[k] {
			unknowns = append(unknowns, k)
		}
	}

	chunks := (m + dotChunkSize - 1) / dotChunkSize
	vec := make([]float64, 6*m+1+2*chunks)
	kn := &cgKernel{
		m: m, gx: gx, gy: gy,
		nb:   make([]int32, 4*m),
		diag: vec[0:m:m],
		x:    vec[m : 2*m : 2*m],
		r:    vec[2*m : 3*m : 3*m],
		z:    vec[3*m : 4*m : 4*m],
		ap:   vec[4*m : 5*m : 5*m],
		p:    vec[5*m : 6*m+1 : 6*m+1],
		sum0: vec[6*m+1 : 6*m+1+chunks : 6*m+1+chunks],
		sum1: vec[6*m+1+chunks:],
	}
	// b is the right-hand side: the sink current plus the Dirichlet terms
	// of pad neighbours. It lives in r until the initial residual
	// overwrites it.
	b := kn.r
	for u, k := range unknowns {
		i, j := k%g.Nx, k/g.Nx
		has := [4]bool{i > 0, i < g.Nx-1, j > 0, j < g.Ny-1}
		off := [4]int{-1, 1, -g.Nx, g.Nx}
		cond := [4]float64{gx, gx, gy, gy}
		var sumG float64
		for d := range has {
			slot := int32(m)
			if has[d] {
				nk := k + off[d]
				sumG += cond[d]
				if isPad[nk] {
					b[u] += cond[d] * g.Vdd
				} else {
					slot = idx[nk]
				}
			}
			kn.nb[4*u+d] = slot
		}
		kn.diag[u] = sumG
		b[u] -= sink[k]
	}

	// Above the node threshold the chunks run on the worker pool (and a
	// custom preconditioner gets the same count). Below it every pass is
	// one inline chunk, whatever Workers says.
	workers := 1
	if m >= parallelNodeThreshold {
		workers = parallel.Workers(opt.Workers)
	}
	kn.workers = workers

	// Start from Vdd everywhere: the initial mat-vec runs on p = x.
	for u := 0; u < m; u++ {
		kn.x[u] = g.Vdd
		kn.p[u] = g.Vdd
	}
	kn.run(passMatVec, 0)
	var bnorm float64
	for u := 0; u < m; u++ {
		bnorm += b[u] * b[u]
		kn.r[u] = b[u] - kn.ap[u]
	}
	bnorm = math.Sqrt(bnorm)
	if bnorm == 0 {
		bnorm = 1
	}

	var pre func(r, z []float64)
	if mkPre != nil {
		pre = mkPre(unknowns, workers)
	}
	if pre == nil {
		kn.jacobi = true
	} else {
		pre(kn.r, kn.z)
	}
	rz, rr := kn.run(passDots, 0)
	copy(kn.p[:m], kn.z)

	var it int
	converged := false
	stopped := "max iterations"
	for it = 0; it < opt.MaxIter; it++ {
		if math.Sqrt(rr) <= opt.Tol*bnorm {
			converged = true
			break
		}
		if err := iterCheck(ctx); err != nil {
			stopped = err.Error()
			break
		}
		pap, _ := kn.run(passMatVec, 0)
		alpha := rz / pap
		rzNext, rrNext := kn.run(passUpdate, alpha)
		if !kn.jacobi {
			pre(kn.r, kn.z)
			rzNext, rrNext = kn.run(passDots, 0)
		}
		rr = rrNext
		beta := rzNext / rz
		rz = rzNext
		kn.run(passDirection, beta)
	}

	if !converged {
		// MaxIter may have landed exactly on a converged iterate.
		converged = math.Sqrt(rr) <= opt.Tol*bnorm
	}
	for k := range v {
		v[k] = g.Vdd
	}
	for u, k := range unknowns {
		v[k] = kn.x[u]
	}
	sol := &Solution{Spec: g, V: v, Iterations: it, Residual: residualNorm(g, isPad, v), Converged: converged}
	if !converged {
		sol.Stopped = stopped
	}
	return sol, nil
}
