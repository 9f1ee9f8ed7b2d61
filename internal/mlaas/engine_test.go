package mlaas

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"bprom/internal/rng"
	"bprom/internal/tensor"
	"bprom/internal/vp"
)

// engineInputs returns deterministic batches of the given row counts for
// testModel (input dim 16).
func engineInputs(rows ...int) []*tensor.Tensor {
	r := rng.New(31)
	xs := make([]*tensor.Tensor, len(rows))
	for i, n := range rows {
		xs[i] = tensor.New(n, 16)
		r.Uniform(xs[i].Data, 0, 1)
	}
	return xs
}

// nanTensor is a destination whose every value a missed write would leave
// visible.
func nanTensor(rows, cols int) *tensor.Tensor {
	t := tensor.New(rows, cols)
	t.Fill(math.NaN())
	return t
}

// Every kind of tick — one job alone, several coalesced, several coalesced
// with screened jobs' prompted views appended — writes exactly
// model.Predict's bits into a caller's dst and hands dst itself back, while
// jobs without a dst still get fresh tensors. The ticks are driven through
// runBatch directly, so which jobs share a pass is fixed, not left to
// scheduling.
func TestEngineTicksWritePredictBitsIntoDst(t *testing.T) {
	m := testModel(t)
	sc := testScreener(t, 0.5)
	e := newEngine(m, sc, 64, 1)
	defer e.close()
	k := m.NumClasses
	xs := engineInputs(5, 3, 7)

	// A single job through the queue.
	dst := nanTensor(5, k)
	got, screening, err := e.predictInto(context.Background(), xs[0], dst, false)
	if err != nil {
		t.Fatal(err)
	}
	if got != dst || screening != nil {
		t.Fatal("single tick: dst not returned, or unasked-for screening")
	}
	sameBits(t, "single tick", dst, m.Predict(xs[0]))

	for _, screened := range [][]bool{{false, false, false}, {true, false, true}} {
		batch := make([]*predictJob, len(xs))
		rows := 0
		for i, x := range xs {
			batch[i] = &predictJob{x: x, screen: screened[i], out: make(chan predictResult, 1)}
			if i != 1 { // job 1 keeps the fresh-tensor path
				batch[i].dst = nanTensor(x.Dim(0), k)
			}
			rows += x.Dim(0)
		}
		e.runBatch(batch, rows)
		for i, j := range batch {
			res := <-j.out
			if j.dst != nil && res.probs != j.dst {
				t.Fatalf("screened=%v job %d: result is not the caller's dst", screened, i)
			}
			sameBits(t, fmt.Sprintf("screened=%v job %d", screened, i), res.probs, m.Predict(xs[i]))
			var want []vp.ScreenResult
			if screened[i] {
				want = sc.Screen(m, xs[i])
			}
			if !reflect.DeepEqual(res.screening, want) {
				t.Fatalf("screened=%v job %d: screening %v, want %v", screened, i, res.screening, want)
			}
		}
	}

	if _, _, err := e.predictInto(context.Background(), xs[0], nanTensor(4, k), false); err == nil {
		t.Fatal("a destination with the wrong row count was accepted")
	}
}

// A caller that gives up on a job does not stop the engine from answering
// it: the job stays queued, and a worker later writes the caller's dst.
// That is why a dst whose predict failed is dropped, never reused (the
// oracle.IntoPredictor contract). Under -race this also checks the late
// write is ordered before what the test reads.
func TestCancelledPredictIntoIsStillWritten(t *testing.T) {
	m := testModel(t)
	// No workers yet: a submitted job waits in the queue.
	e := &engine{model: m, maxBatch: 64, queue: make(chan *predictJob, 4), done: make(chan struct{})}
	defer e.close()
	xs := engineInputs(4, 2)
	dst := nanTensor(4, m.NumClasses)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := e.predictInto(ctx, xs[0], dst, false)
		errc <- err
	}()
	for len(e.queue) == 0 {
		runtime.Gosched()
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled predict returned %v", err)
	}

	go e.worker()
	// The worker takes the abandoned job first; this one is answered in the
	// same tick or the next, after the abandoned dst has been written.
	if _, _, err := e.predictInto(context.Background(), xs[1], nil, false); err != nil {
		t.Fatal(err)
	}
	sameBits(t, "abandoned job's dst", dst, m.Predict(xs[0]))
}

// The server-side audit oracle answers a batch wider than the provider's
// row limit chunk by chunk, each chunk written by the engine straight into
// its rows of the caller's tensor, with Predict's bits.
func TestProviderOracleChunksIntoDst(t *testing.T) {
	m := testModel(t)
	prov := &singleProvider{info: ModelInfo{ID: DefaultModelID, Classes: m.NumClasses, InputDim: m.InputDim}, eng: newEngine(m, nil, 4, 2)}
	defer prov.Close()
	o := &providerOracle{prov: prov, id: DefaultModelID, classes: m.NumClasses, inputDim: m.InputDim}
	for _, rows := range []int{3, 4, 11} {
		x := engineInputs(rows)[0]
		want := m.Predict(x)
		dst := nanTensor(rows, m.NumClasses)
		if err := o.PredictInto(context.Background(), dst, x); err != nil {
			t.Fatal(err)
		}
		sameBits(t, fmt.Sprintf("PredictInto, %d rows", rows), dst, want)
		got, err := o.Predict(context.Background(), x)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, fmt.Sprintf("Predict, %d rows", rows), got, want)
	}
	if err := o.PredictInto(context.Background(), nanTensor(2, m.NumClasses), engineInputs(3)[0]); err == nil {
		t.Fatal("a destination with the wrong row count was accepted")
	}
}
