//go:build !race

package vp

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"bprom/internal/oracle"
	"bprom/internal/rng"
	"bprom/internal/tensor"
)

// A warm generation of the fused evaluator against an in-process oracle
// allocates nothing that scales with its rows or with the training set:
// sample indices go into reused scratch, the canvas comes from the pool,
// and the confidences land in the evaluator's one tensor. What is left —
// tensor headers and the worker pool's per-call closures — is a few KiB
// however wide the generation and however large the dataset.
func TestWarmGenerationAllocationBudget(t *testing.T) {
	// A collection would empty the canvas and workspace pools and charge
	// their refills to the generation being measured. One P and a serial
	// tensor pool do the same for sync.Pool's per-P caches: nn's inference
	// arenas are pooled per P, and a pass that lands on a P whose cache is
	// empty sizes a new arena — nn's locality, not this evaluator's.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tensor.SetWorkers(1)
	defer tensor.SetWorkers(0)
	const budget = 1 << 10 // bytes per generation
	for _, tc := range []struct{ perClass, lam, k int }{{30, 6, 8}, {300, 18, 24}} {
		m, p, train := untrainedSetup(t, tc.perClass)
		var oracleErr error
		ev := &genEvaluator{
			ctx: context.Background(), oracle: oracle.NewCounter(oracle.NewModelOracle(m)), prompt: p,
			windows: NewWindows(p, train), k: tc.k, batchRNG: rng.New(7), errp: &oracleErr,
		}
		cands := make([][]float64, tc.lam)
		for i := range cands {
			cands[i] = p.Clone().Theta
		}
		ev.evaluate(cands) // warm: scratch, canvas, probs and arenas sized
		const gens = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < gens; i++ {
			ev.evaluate(cands)
		}
		runtime.ReadMemStats(&after)
		if oracleErr != nil {
			t.Fatal(oracleErr)
		}
		rows, n := tc.lam*tc.k, train.Len()
		perGen := (after.TotalAlloc - before.TotalAlloc) / gens
		t.Logf("n=%d rows=%d: %d B per warm generation", n, rows, perGen)
		if perGen > budget {
			t.Fatalf("n=%d rows=%d: a warm generation allocates %d B, budget %d B (a confidence tensor is %d B, a sample permutation %d B)",
				n, rows, perGen, budget, rows*10*8, n*8)
		}
	}
}
