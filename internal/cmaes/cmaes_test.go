package cmaes

import (
	"context"
	"math"
	"testing"

	"bprom/internal/rng"
)

func sphere(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return s
}

func shiftedSphere(target []float64) Objective {
	return func(x []float64) float64 {
		s := 0.0
		for i, v := range x {
			d := v - target[i]
			s += d * d
		}
		return s
	}
}

func TestMinimizeSepSphere(t *testing.T) {
	x0 := make([]float64, 20)
	rng.New(2).Uniform(x0, -3, 3)
	res, err := MinimizeSep(sphere, x0, Options{MaxIters: 300, Sigma0: 1}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.BestValue > 1e-4 {
		t.Fatalf("sep-CMA on sphere: best %v", res.BestValue)
	}
}

func TestMinimizeSepShiftedTarget(t *testing.T) {
	target := []float64{1, -2, 0.5, 3}
	res, err := MinimizeSep(shiftedSphere(target), make([]float64, 4), Options{MaxIters: 300, Sigma0: 1}, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.Best {
		if math.Abs(v-target[i]) > 0.01 {
			t.Fatalf("dim %d: %v, want %v", i, v, target[i])
		}
	}
}

func TestBoundsRespected(t *testing.T) {
	// minimum at 2 but box is [-1, 1]: solution should ride the boundary.
	obj := shiftedSphere([]float64{2, 2, 2})
	res, err := MinimizeSep(obj, make([]float64, 3), Options{MaxIters: 200, Sigma0: 0.5, Lo: -1, Hi: 1}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Best {
		if v < -1-1e-12 || v > 1+1e-12 {
			t.Fatalf("candidate outside box: %v", v)
		}
	}
	if res.Best[0] < 0.9 {
		t.Fatalf("expected boundary solution near 1, got %v", res.Best[0])
	}
}

func TestMaxEvalsBudget(t *testing.T) {
	evals := 0
	obj := func(x []float64) float64 {
		evals++
		return sphere(x)
	}
	res, err := MinimizeSep(obj, []float64{5, 5}, Options{MaxIters: 1000, MaxEvals: 40}, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	if evals > 40 || res.Evals > 40 {
		t.Fatalf("budget exceeded: %d evals (reported %d)", evals, res.Evals)
	}
}

func TestNoisyObjective(t *testing.T) {
	// CMA-ES must tolerate mini-batch style noise.
	noise := rng.New(9)
	obj := func(x []float64) float64 {
		return sphere(x) + 0.05*noise.NormFloat64()
	}
	res, err := MinimizeSep(obj, []float64{3, -3, 2}, Options{MaxIters: 250, Sigma0: 1}, rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	// true value at the returned point (without noise)
	if sphere(res.Best) > 0.5 {
		t.Fatalf("noisy sphere: true value %v at best point", sphere(res.Best))
	}
}

func TestEmptyStartRejected(t *testing.T) {
	if _, err := MinimizeSep(sphere, nil, Options{}, rng.New(1)); err == nil {
		t.Fatal("expected error for empty x0")
	}
}

func TestDeterministicRuns(t *testing.T) {
	x0 := []float64{1, 2, 3}
	r1, err := MinimizeSep(sphere, x0, Options{MaxIters: 50}, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := MinimizeSep(sphere, x0, Options{MaxIters: 50}, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	if r1.BestValue != r2.BestValue {
		t.Fatal("same seed produced different trajectories")
	}
	for i := range r1.Best {
		if r1.Best[i] != r2.Best[i] {
			t.Fatal("same seed produced different best points")
		}
	}
}

func TestSPSAConverges(t *testing.T) {
	res := SPSA(context.Background(), sphere, []float64{3, -2, 4}, 500, 0.2, 0.1, Options{}, rng.New(12))
	if res.BestValue > 0.1 {
		t.Fatalf("SPSA best %v", res.BestValue)
	}
}

func TestSPSABounds(t *testing.T) {
	res := SPSA(context.Background(), shiftedSphere([]float64{5, 5}), []float64{0, 0}, 200, 0.3, 0.1, Options{Lo: -1, Hi: 1}, rng.New(13))
	for _, v := range res.Best {
		if v < -1 || v > 1 {
			t.Fatalf("SPSA left the box: %v", v)
		}
	}
}

func TestSPSAMaxEvalsBudget(t *testing.T) {
	for _, maxEvals := range []int{1, 2, 3, 7, 29, 30} {
		evals := 0
		obj := func(x []float64) float64 {
			evals++
			return sphere(x)
		}
		res := SPSA(context.Background(), obj, []float64{3, -2}, 1000, 0.2, 0.1, Options{MaxEvals: maxEvals}, rng.New(14))
		if evals > maxEvals || res.Evals != evals {
			t.Fatalf("MaxEvals=%d: %d objective calls (reported %d)", maxEvals, evals, res.Evals)
		}
		// A step either runs all three of its evaluations or none: the
		// budget must never be spent on a discarded partial step.
		if want := 3 * (maxEvals / 3); evals != want {
			t.Fatalf("MaxEvals=%d: %d evals, want %d full steps' worth", maxEvals, evals, want)
		}
	}
}

func TestSPSAContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	evals := 0
	obj := func(x []float64) float64 {
		evals++
		if evals == 6 { // cancel mid-run: the next step must not start
			cancel()
		}
		return sphere(x)
	}
	res := SPSA(ctx, obj, []float64{3, -2}, 1000, 0.2, 0.1, Options{}, rng.New(15))
	if evals > 6 {
		t.Fatalf("SPSA kept evaluating after cancellation: %d evals", evals)
	}
	if res.Iters >= 1000 {
		t.Fatal("SPSA ran to completion despite cancellation")
	}
}

// batchFrom adapts a scalar objective into a BatchObjective that records
// call widths, for the parity tests below.
func batchFrom(obj Objective, widths *[]int) BatchObjective {
	return func(cands [][]float64) []float64 {
		*widths = append(*widths, len(cands))
		out := make([]float64, len(cands))
		for i, x := range cands {
			out[i] = obj(x)
		}
		return out
	}
}

// TestBatchEvaluateBitParity locks the tentpole contract: a run whose
// generations are evaluated by one fused call must be bit-identical to the
// scalar run — same best point, same value, same eval count, same iteration
// count — with and without a truncating MaxEvals.
func TestBatchEvaluateBitParity(t *testing.T) {
	cases := []struct {
		name string
		opt  Options
	}{
		{"sep", Options{MaxIters: 60, Sigma0: 0.7}},
		{"sep-maxevals", Options{MaxIters: 60, Sigma0: 0.7, MaxEvals: 47}}, // not a λ multiple: truncates a generation
		{"sep-box", Options{MaxIters: 40, Sigma0: 0.5, Lo: -1, Hi: 1}},
	}
	x0 := []float64{2, -3, 1, 4, -2, 0.5}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Stochastic objective with its own stream, like a mini-batch
			// loss: parity must hold for the draw sequence too.
			mkObj := func(seed uint64) Objective {
				noise := rng.New(seed)
				return func(x []float64) float64 { return sphere(x) + 0.01*noise.NormFloat64() }
			}
			serial, err := MinimizeSep(mkObj(77), x0, tc.opt, rng.New(21))
			if err != nil {
				t.Fatal(err)
			}
			var widths []int
			opt := tc.opt
			opt.Evaluate = batchFrom(mkObj(77), &widths)
			batched, err := MinimizeSep(nil, x0, opt, rng.New(21))
			if err != nil {
				t.Fatal(err)
			}
			if batched.BestValue != serial.BestValue || batched.Evals != serial.Evals || batched.Iters != serial.Iters {
				t.Fatalf("batched %+v != serial %+v", batched, serial)
			}
			for i := range serial.Best {
				if batched.Best[i] != serial.Best[i] {
					t.Fatalf("best[%d]: batched %v != serial %v", i, batched.Best[i], serial.Best[i])
				}
			}
			if len(widths) != serial.Iters {
				t.Fatalf("%d fused calls for %d generations", len(widths), serial.Iters)
			}
			total := 0
			for _, w := range widths {
				total += w
			}
			if total != serial.Evals {
				t.Fatalf("fused widths sum to %d, want %d evals", total, serial.Evals)
			}
			if tc.opt.MaxEvals > 0 && widths[len(widths)-1] >= widths[0] && serial.Evals == tc.opt.MaxEvals && tc.opt.MaxEvals%widths[0] != 0 {
				t.Fatalf("expected a truncated final generation, widths %v", widths)
			}
		})
	}
}

func TestBatchEvaluateWrongWidthRejected(t *testing.T) {
	bad := func(cands [][]float64) []float64 { return make([]float64, len(cands)+1) }
	if _, err := MinimizeSep(nil, []float64{1, 2}, Options{MaxIters: 5, Evaluate: bad}, rng.New(1)); err == nil {
		t.Fatal("expected error for wrong-width batch evaluator")
	}
}
