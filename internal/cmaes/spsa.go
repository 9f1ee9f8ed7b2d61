package cmaes

import (
	"context"
	"math"

	"bprom/internal/rng"
)

// SPSA minimizes obj by simultaneous-perturbation stochastic approximation:
// two evaluations per step estimate a descent direction, a third scores the
// stepped point. Cheapest in queries; noisier than CMA-ES. Used as an
// ablation against CMA-ES prompting.
//
// SPSA honors the same run bounds as the CMA-ES entry points: it stops
// between steps once ctx is cancelled, and opt.MaxEvals caps total objective
// evaluations — a step whose remaining budget cannot cover all three of its
// evaluations returns before spending any of them, so res.Evals never
// exceeds the cap and no partial step burns budget on results that would be
// discarded. This is how vp.BlackBoxConfig.MaxQueries bounds SPSA audits
// identically to CMA-ES ones.
func SPSA(ctx context.Context, obj Objective, x0 []float64, steps int, a, cGain float64, opt Options, r *rng.RNG) Result {
	n := len(x0)
	x := append([]float64(nil), x0...)
	res := Result{Best: append([]float64(nil), x0...), BestValue: math.Inf(1)}
	delta := make([]float64, n)
	plus := make([]float64, n)
	minus := make([]float64, n)
	budget := func(next int) bool {
		return opt.MaxEvals <= 0 || res.Evals+next <= opt.MaxEvals
	}
	for k := 0; k < steps; k++ {
		if ctx.Err() != nil || !budget(3) {
			return res
		}
		ak := a / math.Pow(float64(k+1), 0.602)
		ck := cGain / math.Pow(float64(k+1), 0.101)
		for i := range delta {
			if r.Float64() < 0.5 {
				delta[i] = 1
			} else {
				delta[i] = -1
			}
			plus[i] = x[i] + ck*delta[i]
			minus[i] = x[i] - ck*delta[i]
		}
		clipInto(plus, opt.Lo, opt.Hi)
		clipInto(minus, opt.Lo, opt.Hi)
		fp, fm := obj(plus), obj(minus)
		res.Evals += 2
		for i := range x {
			g := (fp - fm) / (2 * ck * delta[i])
			x[i] -= ak * g
		}
		clipInto(x, opt.Lo, opt.Hi)
		res.Iters = k + 1
		f := obj(x)
		res.Evals++
		if f < res.BestValue {
			res.BestValue = f
			copy(res.Best, x)
		}
	}
	return res
}
