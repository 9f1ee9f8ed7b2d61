// Package cmaes implements the gradient-free optimizers BPROM uses to learn
// visual prompts against a black-box oracle: sep-CMA-ES (Hansen's
// (μ/μ_w, λ) strategy with a diagonal covariance, which scales to prompts of
// hundreds of pixels) and SPSA as a cheap baseline.
//
// Both minimize a possibly stochastic objective f: R^n -> R using only
// function evaluations — exactly the access a defender has to an MLaaS
// endpoint (confidence vectors in, loss out).
package cmaes

import (
	"fmt"
	"math"
	"sort"

	"bprom/internal/rng"
)

// Objective is a function to minimize. It may be stochastic (mini-batch
// losses); rank-based selection makes CMA-ES robust to that noise.
type Objective func(x []float64) float64

// BatchObjective evaluates one whole generation of candidates at once and
// returns one value per candidate, in order. It exists for objectives whose
// dominant cost is a batched backend call (an oracle Predict, an MLaaS
// round-trip): fusing the λ evaluations lets the backend see one full-width
// batch per generation instead of λ narrow ones. The candidate slices are
// owned by the optimizer — implementations must not retain or mutate them.
type BatchObjective func(cands [][]float64) []float64

// Options configures a minimization run.
type Options struct {
	// Sigma0 is the initial step size. Default 0.3.
	Sigma0 float64
	// PopSize overrides λ (default 4+⌊3·ln n⌋).
	PopSize int
	// MaxIters bounds the number of generations. Default 100.
	MaxIters int
	// MaxEvals bounds total objective evaluations (0 = unlimited).
	MaxEvals int
	// Lo/Hi clip candidate coordinates when Hi > Lo (box constraint for
	// pixel-valued prompts).
	Lo, Hi float64
	// TolFun stops when the best value improves by less than this across a
	// generation window. <= 0 disables.
	TolFun float64
	// OnIter, when non-nil, is invoked after every completed generation
	// with the 1-based generation count — a progress hook for long
	// optimizations (server-side audit jobs report it live). It must not
	// mutate optimizer state, and it does not fire for a generation cut
	// short by MaxEvals.
	OnIter func(iter int)
	// OnState, when non-nil, is invoked after every completed generation
	// with a snapshot of the full optimizer state (it fires alongside
	// OnIter, and like OnIter it does not fire for a generation cut short
	// by MaxEvals or for the generation that trips TolFun). Passing the
	// snapshot back via Resume continues the run bit-exactly, which is how
	// server-side audit jobs survive restarts. The snapshot is deep-copied;
	// the callback owns it.
	OnState func(st *SepState)
	// Resume, when non-nil, restores a MinimizeSep run from an OnState
	// snapshot instead of starting at x0. The caller must supply the same
	// dimension, population size, and strategy options as the original run;
	// only the loop state (mean, paths, RNG, budget accounting) comes from
	// the snapshot.
	Resume *SepState
	// Evaluate, when non-nil, replaces the per-candidate Objective calls
	// with one fused BatchObjective call per generation. The call receives
	// the λ clipped candidates in sample order (fewer when MaxEvals
	// truncates the final generation), and eval counting, best-point
	// tracking, and selection consume its values in that same order — so a
	// run with Evaluate is bit-identical to the scalar path as long as the
	// two evaluators agree per candidate. The scalar objective argument is
	// ignored (and may be nil) while Evaluate is set.
	Evaluate BatchObjective
}

func (o *Options) defaults(n int) {
	if o.Sigma0 <= 0 {
		o.Sigma0 = 0.3
	}
	if o.PopSize <= 0 {
		o.PopSize = 4 + int(3*math.Log(float64(n)))
	}
	if o.PopSize < 4 {
		o.PopSize = 4
	}
	if o.MaxIters <= 0 {
		o.MaxIters = 100
	}
}

// SepState is the complete loop state of a MinimizeSep run at a generation
// boundary: distribution parameters, evolution paths, best-so-far tracking,
// stagnation counters, and the sampling RNG. A run resumed from a SepState
// produces the same remaining sample sequence — and therefore the same
// result — as the uninterrupted run, provided the objective itself is
// deterministic or checkpoints its own randomness alongside (vp.SearchState
// carries the mini-batch RNG for exactly that reason).
type SepState struct {
	Iter      int // completed generations; the resumed loop starts here
	Evals     int
	Sigma     float64
	Mean      []float64
	Diag      []float64
	Ps        []float64
	Pc        []float64
	Best      []float64
	BestValue float64
	PrevBest  float64
	Stale     int
	RNG       [6]uint64
}

// clone deep-copies the snapshot so the optimizer's live buffers are never
// shared with the checkpoint consumer.
func (st *SepState) clone() *SepState {
	c := *st
	c.Mean = append([]float64(nil), st.Mean...)
	c.Diag = append([]float64(nil), st.Diag...)
	c.Ps = append([]float64(nil), st.Ps...)
	c.Pc = append([]float64(nil), st.Pc...)
	c.Best = append([]float64(nil), st.Best...)
	return &c
}

// Result reports the best point found.
type Result struct {
	Best      []float64
	BestValue float64
	Evals     int
	Iters     int
}

// weightsFor returns the standard log-rank recombination weights and μ_eff.
func weightsFor(lambda int) (w []float64, mu int, muEff float64) {
	mu = lambda / 2
	w = make([]float64, mu)
	sum := 0.0
	for i := 0; i < mu; i++ {
		w[i] = math.Log(float64(lambda)/2+0.5) - math.Log(float64(i+1))
		sum += w[i]
	}
	sqSum := 0.0
	for i := range w {
		w[i] /= sum
		sqSum += w[i] * w[i]
	}
	return w, mu, 1 / sqSum
}

func clipInto(x []float64, lo, hi float64) {
	if hi <= lo {
		return
	}
	for i, v := range x {
		if v < lo {
			x[i] = lo
		} else if v > hi {
			x[i] = hi
		}
	}
}

// evaluatePop scores the already-sampled candidates xs into fs: one fused
// batch call when configured, otherwise one scalar call per candidate. Both
// paths visit candidates in sample order, so a stochastic objective drawing
// from its own RNG stream sees the identical draw sequence either way.
func evaluatePop(obj Objective, batch BatchObjective, xs [][]float64, fs []float64) error {
	if batch == nil {
		for i, x := range xs {
			fs[i] = obj(x)
		}
		return nil
	}
	vals := batch(xs)
	if len(vals) != len(xs) {
		return fmt.Errorf("cmaes: batch evaluator returned %d values for %d candidates", len(vals), len(xs))
	}
	copy(fs, vals)
	return nil
}

// generationBudget reports how many of the λ candidates of the next
// generation fit in the remaining eval budget (λ when unlimited).
func generationBudget(opt Options, done, lambda int) int {
	if opt.MaxEvals <= 0 {
		return lambda
	}
	if remaining := opt.MaxEvals - done; remaining < lambda {
		return remaining
	}
	return lambda
}

// MinimizeSep runs sep-CMA-ES (diagonal covariance) from x0: visual prompts
// have hundreds of dimensions, where a full covariance update is unnecessary
// and slow.
func MinimizeSep(obj Objective, x0 []float64, opt Options, r *rng.RNG) (Result, error) {
	n := len(x0)
	if n == 0 {
		return Result{}, fmt.Errorf("cmaes: empty start point")
	}
	opt.defaults(n)
	lambda := opt.PopSize
	w, mu, muEff := weightsFor(lambda)

	// Strategy constants (Ros & Hansen 2008 for the separable variant; c_cov
	// scaled by (n+2)/3 relative to full CMA).
	cs := (muEff + 2) / (float64(n) + muEff + 5)
	ds := 1 + 2*math.Max(0, math.Sqrt((muEff-1)/float64(n+1))-1) + cs
	cc := (4 + muEff/float64(n)) / (float64(n) + 4 + 2*muEff/float64(n))
	c1 := 2 / (math.Pow(float64(n)+1.3, 2) + muEff) * (float64(n) + 2) / 3
	cmu := math.Min(1-c1, 2*(muEff-2+1/muEff)/(math.Pow(float64(n)+2, 2)+muEff)*(float64(n)+2)/3)
	chiN := math.Sqrt(float64(n)) * (1 - 1/(4*float64(n)) + 1/(21*float64(n)*float64(n)))

	mean := append([]float64(nil), x0...)
	sigma := opt.Sigma0
	diag := make([]float64, n) // diagonal of C
	for i := range diag {
		diag[i] = 1
	}
	ps := make([]float64, n)
	pc := make([]float64, n)

	type cand struct {
		x, z []float64
		f    float64
	}
	pop := make([]cand, lambda)
	xs := make([][]float64, lambda) // candidate views handed to the evaluator
	fs := make([]float64, lambda)
	zMean := make([]float64, n) // recombination scratch, zeroed per generation
	newMean := make([]float64, n)
	for i := range pop {
		pop[i].x = make([]float64, n)
		pop[i].z = make([]float64, n)
	}

	res := Result{Best: append([]float64(nil), x0...), BestValue: math.Inf(1)}
	prevBest := math.Inf(1)
	stale := 0
	startIter := 0
	if st := opt.Resume; st != nil {
		if len(st.Mean) != n || len(st.Diag) != n || len(st.Ps) != n || len(st.Pc) != n || len(st.Best) != n {
			return res, fmt.Errorf("cmaes: resume state dimension mismatch (want %d)", n)
		}
		copy(mean, st.Mean)
		copy(diag, st.Diag)
		copy(ps, st.Ps)
		copy(pc, st.Pc)
		copy(res.Best, st.Best)
		sigma = st.Sigma
		res.BestValue = st.BestValue
		res.Evals = st.Evals
		res.Iters = st.Iter
		prevBest = st.PrevBest
		stale = st.Stale
		startIter = st.Iter
		r = rng.FromState(st.RNG)
	}
	for iter := startIter; iter < opt.MaxIters; iter++ {
		// Sample the whole generation first (RNG draw order is identical to
		// drawing per candidate: the objective never touches r), then score
		// it — one fused call when Evaluate is set.
		take := generationBudget(opt, res.Evals, lambda)
		for i := 0; i < take; i++ {
			for j := 0; j < n; j++ {
				z := r.NormFloat64()
				pop[i].z[j] = z
				pop[i].x[j] = mean[j] + sigma*math.Sqrt(diag[j])*z
			}
			clipInto(pop[i].x, opt.Lo, opt.Hi)
			xs[i] = pop[i].x
		}
		if err := evaluatePop(obj, opt.Evaluate, xs[:take], fs[:take]); err != nil {
			return res, err
		}
		for i := 0; i < take; i++ {
			pop[i].f = fs[i]
			res.Evals++
			if pop[i].f < res.BestValue {
				res.BestValue = pop[i].f
				copy(res.Best, pop[i].x)
			}
		}
		if take < lambda || (opt.MaxEvals > 0 && res.Evals >= opt.MaxEvals) {
			res.Iters = iter + 1
			return res, nil
		}
		// sort ascending by f (selection)
		sort.Slice(pop, func(a, b int) bool { return pop[a].f < pop[b].f })

		// recombination in z-space and x-space
		clear(zMean)
		clear(newMean)
		for i := 0; i < mu; i++ {
			for j := 0; j < n; j++ {
				zMean[j] += w[i] * pop[i].z[j]
				newMean[j] += w[i] * pop[i].x[j]
			}
		}
		copy(mean, newMean)

		// step-size path (coordinates are already whitened in z-space)
		psNorm := 0.0
		for j := 0; j < n; j++ {
			ps[j] = (1-cs)*ps[j] + math.Sqrt(cs*(2-cs)*muEff)*zMean[j]
			psNorm += ps[j] * ps[j]
		}
		psNorm = math.Sqrt(psNorm)
		sigma *= math.Exp((cs / ds) * (psNorm/chiN - 1))
		if math.IsNaN(sigma) {
			return res, fmt.Errorf("cmaes: step size became NaN at iteration %d", iter)
		}
		// Box-clipped runs can flatten selection at a boundary, sending the
		// step-size random walk upward; cap it instead of diverging.
		if maxSigma := 100 * opt.Sigma0; sigma > maxSigma {
			sigma = maxSigma
		}
		if sigma < 1e-14 {
			sigma = 1e-14
		}

		// covariance path and diagonal update
		hsig := 0.0
		if psNorm/math.Sqrt(1-math.Pow(1-cs, 2*float64(iter+1)))/chiN < 1.4+2/(float64(n)+1) {
			hsig = 1
		}
		for j := 0; j < n; j++ {
			pc[j] = (1-cc)*pc[j] + hsig*math.Sqrt(cc*(2-cc)*muEff)*math.Sqrt(diag[j])*zMean[j]
		}
		for j := 0; j < n; j++ {
			rankMu := 0.0
			for i := 0; i < mu; i++ {
				rankMu += w[i] * diag[j] * pop[i].z[j] * pop[i].z[j]
			}
			diag[j] = (1-c1-cmu)*diag[j] + c1*pc[j]*pc[j] + cmu*rankMu
			if diag[j] < 1e-12 {
				diag[j] = 1e-12
			}
		}

		res.Iters = iter + 1
		if opt.OnIter != nil {
			opt.OnIter(iter + 1)
		}
		if opt.TolFun > 0 {
			if prevBest-res.BestValue < opt.TolFun {
				stale++
				if stale >= 10 {
					break
				}
			} else {
				stale = 0
			}
			prevBest = res.BestValue
		}
		if opt.OnState != nil {
			st := SepState{
				Iter:      iter + 1,
				Evals:     res.Evals,
				Sigma:     sigma,
				Mean:      mean,
				Diag:      diag,
				Ps:        ps,
				Pc:        pc,
				Best:      res.Best,
				BestValue: res.BestValue,
				PrevBest:  prevBest,
				Stale:     stale,
				RNG:       r.State(),
			}
			opt.OnState(st.clone())
		}
	}
	return res, nil
}
