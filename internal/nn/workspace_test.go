package nn

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"bprom/internal/rng"
	"bprom/internal/tensor"
)

// Harness for the planned inference pass: whatever the row-block driver, the
// pooled arena and the serial kernels do, every entry point must return the
// bits of the layers' public Infer methods chained by hand over the whole
// batch — fresh zeroed tensors, pool-dispatching kernels, no blocks.

// referenceLogits is that chain.
func referenceLogits(layers []Layer, x *tensor.Tensor) *tensor.Tensor {
	h := x
	for _, l := range layers {
		h = l.Infer(h)
	}
	return h
}

func referencePredict(m *Model, x *tensor.Tensor) *tensor.Tensor {
	out := referenceLogits(m.Layers, x).Clone()
	SoftmaxInPlace(out)
	return out
}

// oddStack covers what the four families do not: a layer without a planned
// form (GlobalAvgPool, which allocates its own output mid-pass), Tanh, a
// Residual whose body opens with an in-place layer (the join still needs
// the input) and ends in an identity, and ReLU straight after a view.
func oddStack(t *testing.T) *Model {
	t.Helper()
	r := rng.New(5)
	dims := tensor.ConvDims{InC: 3, InH: 12, InW: 12, OutC: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}
	m := &Model{
		Arch: "odd", InputDim: 3 * 12 * 12, NumClasses: 10,
		Layers: []Layer{
			&ToImage{C: 3, H: 12, W: 12},
			&ReLU{},
			NewConv2D(dims, r.Split("conv")),
			&Tanh{},
			&GlobalAvgPool{},
			&ReLU{},
			NewDense(8, 8, r.Split("mix")), // signed again, so an overwritten join input shows
			&Residual{Body: []Layer{&ReLU{}, NewDense(8, 8, r.Split("body")), NewDropout(0.5, r)}},
			&Flatten{},
			&ReLU{},
			NewDense(8, 10, r.Split("head")),
		},
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	return m
}

// arenaModels returns the four families at a geometry whose conv layers
// clear the parallel-dispatch floor on the public Infer path, plus oddStack.
func arenaModels(t *testing.T) []*Model {
	t.Helper()
	models := []*Model{oddStack(t)}
	for _, arch := range []Arch{ArchResNetLite, ArchMobileNetLite, ArchVitLite, ArchConvLite} {
		m, err := Build(ArchConfig{Arch: arch, C: 3, H: 12, W: 12, NumClasses: 10, Hidden: 24}, rng.New(9))
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
	}
	return models
}

func requireSameBits(t *testing.T, label string, got, want *tensor.Tensor) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Errorf("%s: %d elements, want %d", label, got.Len(), want.Len())
		return
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Errorf("%s: element %d = %v, want %v", label, i, got.Data[i], want.Data[i])
			return
		}
	}
}

// TestArenaSafety poisons every arena with NaN whenever its memory is handed
// out again, then demands reference bits from wide and narrow Predict on
// every family in fp64 and int8, serially and from 8 goroutines at once
// (CI runs this under -race). A kernel that relied on tensor.New's zeroing,
// a result still pointing into a released arena, or two passes sharing one
// arena all surface as NaN or as a torn row.
func TestArenaSafety(t *testing.T) {
	poisonArenas = true
	defer func() { poisonArenas = false }()
	tensor.SetWorkers(4) // force the dispatching paths on single-core machines
	defer tensor.SetWorkers(0)

	for _, fp := range arenaModels(t) {
		for _, m := range []*Model{fp, nil} {
			precision := "fp64"
			if m == nil {
				precision = "int8"
				m = cloneModel(t, fp)
				if m.Quantize(-1) == 0 { // every layer, so the conv path runs in int8 too
					t.Fatalf("%s: nothing quantized", fp.Arch)
				}
			}
			// 1 and 8 are narrow (one block on the caller), 16 is the
			// widest single block, 17 adds a one-row tail block, 40 spreads
			// three blocks over the pool.
			for _, rows := range []int{1, 8, 16, 17, 40} {
				label := fmt.Sprintf("%s/%s/%d rows", fp.Arch, precision, rows)
				x := tensor.New(rows, m.InputDim)
				rng.New(uint64(rows)).Uniform(x.Data, -1, 1) // signed, so an in-place ReLU on it shows
				input := x.Clone()
				want := referencePredict(m, x)

				first := m.Predict(x)
				requireSameBits(t, label+" cold", first, want)
				requireSameBits(t, label+" warm", m.Predict(x), want)
				// first outlived the passes that followed it.
				requireSameBits(t, label+" retained result", first, want)

				var wg sync.WaitGroup
				for g := 0; g < 8; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for it := 0; it < 2; it++ {
							requireSameBits(t, label+" concurrent", m.Predict(x), want)
						}
					}()
				}
				wg.Wait()
				requireSameBits(t, label+" input untouched", x, input)
			}
		}
	}
}

// TestEntryPointsMatchPerRow pins the other three entry points to the same
// driver: Infer, Features and PredictClasses over a wide batch equal, bit
// for bit, what each row gives on its own.
func TestEntryPointsMatchPerRow(t *testing.T) {
	const rows = 50 // three full blocks and a 2-row tail
	for _, m := range arenaModels(t) {
		x := tensor.New(rows, m.InputDim)
		rng.New(3).Uniform(x.Data, -1, 1)
		logits, feats, classes := m.Infer(x), m.Features(x), m.PredictClasses(x)
		requireSameBits(t, string(m.Arch)+" Infer vs reference", logits, referenceLogits(m.Layers, x))
		if len(classes) != rows || feats.Dim(0) != rows || feats.Rank() != 2 {
			t.Fatalf("%s: %d classes, features %v", m.Arch, len(classes), feats.Shape())
		}
		fw := feats.Dim(1)
		for i := 0; i < rows; i++ {
			row := tensor.FromSlice(x.Data[i*m.InputDim:(i+1)*m.InputDim], 1, m.InputDim)
			label := fmt.Sprintf("%s row %d", m.Arch, i)
			requireSameBits(t, label+" Infer", tensor.FromSlice(logits.Row(i), 1, m.NumClasses), m.Infer(row))
			requireSameBits(t, label+" Features", tensor.FromSlice(feats.Data[i*fw:(i+1)*fw], 1, fw), m.Features(row))
			if got := m.PredictClasses(row)[0]; got != classes[i] || got != argmax(logits.Row(i)) {
				t.Errorf("%s: PredictClasses = %d alone, %d in the batch, argmax %d", label, got, classes[i], argmax(logits.Row(i)))
			}
		}
	}
}

// TestPredictAllocationBudget keeps the arena from silently rotting: a warm
// Predict on the bench zoo's shape allocates its result and little else —
// at generation width (the parent of the arena allocated 12.5 MB there) and
// at request width, where a pass that dispatched its kernels would pay for
// their closures and per-chunk conv scratch.
func TestPredictAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	m := benchZooModel(t)
	// A collection would empty the arena pool mid-measurement.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, leg := range []struct {
		rows      int
		results   uint64 // byte budget: results result tensors plus slack
		slack     uint64
		maxAllocs float64
	}{
		{benchWideRows, 2, 4096, 32},
		{benchNarrowRows, 1, 1024, 8},
	} {
		x := tensor.New(leg.rows, m.InputDim)
		rng.New(2).Uniform(x.Data, 0, 1)
		for i := 0; i < 3; i++ {
			m.Predict(x)
		}

		const calls = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			m.Predict(x)
		}
		runtime.ReadMemStats(&after)
		perCall := (after.TotalAlloc - before.TotalAlloc) / calls
		result := uint64(8 * leg.rows * m.NumClasses)
		if budget := leg.results*result + leg.slack; perCall > budget {
			t.Errorf("warm %d-row Predict allocates %d B per call; budget %d (result tensor %d)", leg.rows, perCall, budget, result)
		}
		if allocs := testing.AllocsPerRun(calls, func() { m.Predict(x) }); allocs > leg.maxAllocs {
			t.Errorf("warm %d-row Predict makes %.0f allocations per call; budget %.0f", leg.rows, allocs, leg.maxAllocs)
		}
	}
}
