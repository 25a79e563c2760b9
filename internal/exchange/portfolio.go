package exchange

import (
	"context"
	"fmt"

	"copack/internal/anneal"
	"copack/internal/assign"
	"copack/internal/core"
	"copack/internal/obs"
	"copack/internal/portfolio"
)

// runPortfolio is RunContext's adaptive path: instead of spending
// Options.Restarts pulls on one schedule, Portfolio.Budget pulls are
// allocated across the declared arms by the deterministic bandit in
// internal/portfolio. Each pull replicates one legacy restart exactly —
// same state construction, same SplitSeed(Seed, k) rng, same resync /
// interrupted-fallback / from-scratch scoring — so a single-arm portfolio
// with no overrides is byte-identical to the fixed-budget path (the
// equivalence tests compare Float64bits).
func runPortfolio(ctx context.Context, p *core.Problem, initial *core.Assignment, opt Options) (*Result, error) {
	if opt.Initial != nil {
		return nil, fmt.Errorf("exchange: Portfolio and Initial are mutually exclusive (portfolio arms own their warm starts)")
	}
	cfg := *opt.Portfolio
	cfg.Seed = opt.Seed // one seed drives the whole run
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	// Resolve each arm's warm-start engine (EngineAuto from the instance
	// features) and build the warm orders once — an engine's order is a pure
	// function of the problem, so arms sharing an engine share the order.
	feats := portfolio.Compute(p)
	engines := make([]portfolio.Engine, len(cfg.Arms))
	warm := make(map[portfolio.Engine]*core.Assignment)
	for i, arm := range cfg.Arms {
		e := arm.Engine
		if e == portfolio.EngineAuto {
			e = feats.SelectEngine()
		}
		engines[i] = e
		if e == portfolio.EngineCold {
			continue
		}
		if _, ok := warm[e]; ok {
			continue
		}
		var (
			w   *core.Assignment
			err error
		)
		switch e {
		case portfolio.EngineIFA:
			w, err = assign.IFA(p)
		case portfolio.EngineDFA:
			w, err = assign.DFA(p, assign.DFAOptions{})
		case portfolio.EngineMCMF:
			w, err = assign.MCMF(p, assign.MCMFOptions{})
		}
		if err == nil {
			err = core.CheckMonotonic(p, w)
		}
		if err != nil {
			return nil, fmt.Errorf("exchange: portfolio warm start %q: %v", e, err)
		}
		warm[e] = w
	}

	// Resolve and validate each arm's schedule up front, so a bad override
	// fails the run before any budget is spent.
	scheds := make([]anneal.Schedule, len(cfg.Arms))
	for i, arm := range cfg.Arms {
		scheds[i] = arm.ApplyTo(opt.Schedule).WithDefaults()
		if err := scheds[i].Validate(); err != nil {
			return nil, fmt.Errorf("exchange: portfolio arm %q: %v", arm.Name, err)
		}
	}

	// Per-pull results land at the pull's global restart index, so the
	// post-run reduction is scheduling-independent (same discipline as the
	// fixed-budget path).
	budget := cfg.Budget
	states := make([]*state, budget)
	startCosts := make([]float64, budget)
	allStats := make([]anneal.Stats, budget)
	terms := make([]eq3Breakdown, budget)
	armOf := make([]int, budget)

	// Before-metrics come from a cold throwaway state, exactly like the
	// legacy path's states[0] (which is cold whenever Initial is nil).
	before, err := measure(p, initial, newState(p, initial, opt, nil), opt)
	if err != nil {
		return nil, err
	}

	outcome, err := portfolio.Run(ctx, cfg, opt.Workers, func(ctx context.Context, arm, k int) (float64, anneal.Stats, error) {
		st := newState(p, initial, opt, warm[engines[arm]])
		states[k], armOf[k] = st, arm
		startCosts[k] = st.cost()
		rng := anneal.NewRand(anneal.SplitSeed(cfg.Seed, k))
		s, err := anneal.MinimizeContext(ctx, st, startCosts[k], scheds[arm], rng)
		if err != nil {
			return 0, s, err
		}
		allStats[k] = s
		st.trk.resyncProxy() // clear bounded drift before scoring
		if s.Interrupted && st.cost() > startCosts[k] {
			// Same never-lose-ground fallback as the legacy path: an
			// interrupted pull reports its start order when the cut caught
			// it in a worse state.
			if w := warm[engines[arm]]; w != nil {
				st.a = w.Clone()
			} else {
				st.a = initial.Clone()
			}
		}
		terms[k] = eq3Terms(p, st, opt)
		return terms[k].Total, s, nil
	})
	if err != nil {
		return nil, err
	}

	costs := make([]float64, outcome.Total)
	for k := range costs {
		costs[k] = terms[k].Total
	}
	win := outcome.BestRestart
	res, err := finishResult(p, opt, states[win], before, allStats[win], win, costs)
	if err != nil {
		return nil, err
	}
	res.Portfolio = outcome
	recordPortfolio(opt, scheds, armOf, states, allStats, terms, res, outcome)
	return res, nil
}

// recordPortfolio emits the portfolio run's telemetry: everything recordRun
// emits (each restart recorded against its arm's schedule) plus the bandit's
// own keys under portfolio/ — budget, winner, trace hash and per-arm pull /
// cost / elimination summaries. Emission is post-run in index order, same as
// recordRun, so recording can never perturb the run.
func recordPortfolio(opt Options, scheds []anneal.Schedule, armOf []int, states []*state, stats []anneal.Stats, terms []eq3Breakdown, res *Result, out *portfolio.Outcome) {
	rec := obs.OrNop(opt.Recorder)
	if _, nop := rec.(obs.NopRecorder); nop {
		return
	}
	recordRunWith(opt, func(k int) anneal.Schedule { return scheds[armOf[k]] }, states, stats, terms, res)
	pr := obs.WithPrefix(rec, "portfolio/")
	pr.Set("arms", float64(len(out.Arms)))
	pr.Set("budget", float64(out.Total))
	pr.Set("winner_arm", float64(out.BestArm))
	pr.Set("winner_restart", float64(out.BestRestart))
	pr.Set("best_cost", out.BestCost)
	pr.Add("trace_hash", int64(out.TraceHash()))
	for _, as := range out.Arms {
		ar := obs.WithPrefix(pr, fmt.Sprintf("arm%d/", as.Arm))
		ar.Set("pulls", float64(as.Pulls))
		if as.Pulls > 0 {
			// A never-pulled arm's best cost is +Inf — meaningless as a
			// gauge and unrepresentable in a JSON snapshot.
			ar.Set("best_cost", as.BestCost)
		}
		ar.Set("eliminated_round", float64(as.EliminatedRound))
	}
}
