package nn

import (
	"math"
	"sync"
	"testing"

	"bprom/internal/rng"
	"bprom/internal/tensor"
)

// Concurrency harness for the shared tensor pool: many goroutines hammer one
// frozen model through Model.Predict while the block driver fans row blocks
// onto the same pool underneath. CI runs this under -race, which is the
// point — any write overlap between blocks, any layer-state mutation on the
// inference path, or any pool-queue misuse surfaces here. Only a batch wider
// than predictBlock reaches the pool, so the pool legs here are poolRows wide.

// poolRows is two full row blocks and an 8-row tail.
const poolRows = 2*predictBlock + 8

func raceModel(t *testing.T) *Model {
	t.Helper()
	m, err := Build(ArchConfig{
		Arch: ArchResNetLite, C: 3, H: 12, W: 12, NumClasses: 10, Hidden: 32,
	}, rng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestConcurrentPredictSharedPool: N goroutines × several iterations each,
// one shared pool, results bitwise equal to the single-caller baseline. The
// 8-row leg is the narrow pass, which stays on each caller; the wide leg
// fans its blocks out onto the pool from every goroutine at once.
func TestConcurrentPredictSharedPool(t *testing.T) {
	// Pin the pool above 1 so the parallel dispatch path runs even on
	// single-core machines (where DefaultWorkers would make it inline).
	tensor.SetWorkers(4)
	defer tensor.SetWorkers(0)
	m := raceModel(t)
	for _, rows := range []int{8, poolRows} {
		x := tensor.New(rows, m.InputDim)
		rng.New(23).Uniform(x.Data, 0, 1)
		want := m.Predict(x.Clone())

		const goroutines, iters = 16, 5
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				in := x.Clone()
				for it := 0; it < iters; it++ {
					got := m.Predict(in)
					for i := range got.Data {
						if got.Data[i] != want.Data[i] {
							t.Errorf("%d rows: concurrent Predict diverged at element %d: got %v, want %v",
								rows, i, got.Data[i], want.Data[i])
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestPredictSerialPoolMatchesParallel pins the shared pool to one worker —
// the serial degradation path — and to a forced width, and demands
// bitwise-identical predictions over a multi-block batch: dispatch only
// partitions output rows, so pool width must never leak into results.
func TestPredictSerialPoolMatchesParallel(t *testing.T) {
	defer tensor.SetWorkers(0)
	m := raceModel(t)
	x := tensor.New(poolRows, m.InputDim)
	rng.New(29).Uniform(x.Data, 0, 1)

	tensor.SetWorkers(1)
	if tensor.Workers() != 1 {
		t.Fatalf("Workers = %d after SetWorkers(1)", tensor.Workers())
	}
	serial := m.Predict(x.Clone())

	tensor.SetWorkers(8)
	parallel := m.Predict(x.Clone())

	for i := range serial.Data {
		if serial.Data[i] != parallel.Data[i] {
			t.Fatalf("pool width changed Predict output at element %d: serial %v, parallel %v",
				i, serial.Data[i], parallel.Data[i])
		}
	}
}

// TestConv2DBackwardPoolWidth: Conv2D.Backward splits a batch worth
// parallelizing into image chunks, and its input and parameter gradients
// must not depend on how wide the pool is.
func TestConv2DBackwardPoolWidth(t *testing.T) {
	defer tensor.SetWorkers(0)
	d := tensor.ConvDims{InC: 3, InH: 12, InW: 12, OutC: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}
	x := tensor.New(9, 3, 12, 12)
	rng.New(37).Gaussian(x.Data, 0, 1)
	if !tensor.WorthParallel(9 * 144 * 27 * 8) {
		t.Fatal("batch too small to take the parallel path")
	}
	run := func(workers int) (dx, dw, db []float64) {
		tensor.SetWorkers(workers)
		c := NewConv2D(d, rng.New(41))
		out, cache := c.Forward(x, true)
		dx = c.Backward(cache, out).Data
		return dx, c.W.Grad.Data, c.B.Grad.Data
	}
	dx1, dw1, db1 := run(1)
	dx4, dw4, db4 := run(4)
	for _, g := range []struct {
		name         string
		serial, wide []float64
	}{{"dx", dx1, dx4}, {"W.Grad", dw1, dw4}, {"B.Grad", db1, db4}} {
		for i := range g.serial {
			if math.Float64bits(g.serial[i]) != math.Float64bits(g.wide[i]) {
				t.Fatalf("%s[%d]: 1 worker %v, 4 workers %v", g.name, i, g.serial[i], g.wide[i])
			}
		}
	}
}

// TestConcurrentTrainingPasses: concurrent recording Forwards on one model
// (each with its own Pass) must stay memory-safe while the batch-parallel
// Conv2D forward shares the pool. Gradient work stays single-flight per the
// package contract, so only Forward runs concurrently here.
func TestConcurrentTrainingPasses(t *testing.T) {
	tensor.SetWorkers(4)
	defer tensor.SetWorkers(0)
	m := raceModel(t)
	x := tensor.New(4, m.InputDim)
	rng.New(31).Uniform(x.Data, 0, 1)

	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := m.NewPass()
			defer p.Release()
			logits := p.Forward(x.Clone(), false)
			if logits.Dim(0) != 4 || logits.Dim(1) != m.NumClasses {
				t.Errorf("Forward shape %v", logits.Shape())
			}
		}()
	}
	wg.Wait()
}
