package vp

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"bprom/internal/data"
	"bprom/internal/nn"
	"bprom/internal/oracle"
	"bprom/internal/rng"
	"bprom/internal/tensor"
)

// untrainedSetup is an untrained ConvLite source model and an n-sample
// target training set: enough for tests about shapes, buffers and
// allocation, which do not care what the model has learned.
func untrainedSetup(t *testing.T, perClass int) (*nn.Model, *Prompt, *data.Dataset) {
	t.Helper()
	src, _ := shapes()
	m, err := nn.Build(nn.ArchConfig{Arch: nn.ArchConvLite, C: src.C, H: src.H, W: src.W, NumClasses: 10, Hidden: 24}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	train := data.NewGenerator(data.MustSpec(data.STL10), 4).Generate(perClass, rng.New(5))
	p, err := NewPrompt(src, train.Shape, 0.83)
	if err != nil {
		t.Fatal(err)
	}
	return m, p, train
}

// shortOracle answers one row fewer than it was asked for.
type shortOracle struct{ oracle.Oracle }

func (o shortOracle) Predict(ctx context.Context, x *tensor.Tensor) (*tensor.Tensor, error) {
	out, err := o.Oracle.Predict(ctx, x)
	if err != nil {
		return nil, err
	}
	k := out.Dim(1)
	return tensor.FromSlice(out.Data[:(out.Dim(0)-1)*k], out.Dim(0)-1, k), nil
}

// A reply with the wrong number of rows is an error naming both shapes, on
// the fused CMA-ES path and on the per-candidate SPSA path alike — not an
// index out of range in the loss loop.
func TestWrongShapeOracleReplyIsAnError(t *testing.T) {
	m, _, train := untrainedSetup(t, 3)
	for _, spsa := range []bool{false, true} {
		p, err := NewPrompt(data.Shape{C: 3, H: 12, W: 12}, train.Shape, 0.83)
		if err != nil {
			t.Fatal(err)
		}
		o := oracle.NewCounter(shortOracle{oracle.NewModelOracle(m)})
		cfg := BlackBoxConfig{Iterations: 2, PopSize: 6, BatchSize: 5, UseSPSA: spsa}
		err = TrainBlackBox(context.Background(), o, p, train, cfg, rng.New(1))
		if err == nil {
			t.Fatalf("spsa=%v: a short reply trained without error", spsa)
		}
		rows := 5 // SPSA: one candidate per query
		if !spsa {
			rows = 6 * 5 // one fused query per generation
		}
		for _, want := range []string{fmt.Sprint([]int{rows - 1, 10}), fmt.Sprint([]int{rows, 10})} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("spsa=%v: error %q does not name shape %s", spsa, err, want)
			}
		}
		if o.Queries() != 0 {
			t.Fatalf("spsa=%v: a rejected reply was billed %d queries", spsa, o.Queries())
		}
	}
}

// lateWriter is an IntoPredictor whose first query fails while its backend
// keeps writing the caller's dst — what a serving engine does with a job
// whose caller gave up — until stop is closed. Later queries succeed.
type lateWriter struct {
	*oracle.ModelOracle
	failed  *tensor.Tensor
	stop    chan struct{}
	writer  sync.WaitGroup
	dsts    []*float64
	canvass []*float64
}

func (o *lateWriter) PredictInto(ctx context.Context, dst, x *tensor.Tensor) error {
	o.dsts = append(o.dsts, &dst.Data[0])
	o.canvass = append(o.canvass, &x.Data[0])
	if o.failed == nil {
		o.failed = dst
		o.writer.Add(1)
		go func() {
			defer o.writer.Done()
			for {
				select {
				case <-o.stop:
					return
				default:
					dst.Data[0]++
					x.Data[0]++
					runtime.Gosched()
				}
			}
		}()
		return context.Canceled
	}
	return o.ModelOracle.PredictInto(ctx, dst, x)
}

// A generation whose query failed drops both its canvas and its confidence
// tensor: the next generation gets storage of its own, never the buffers a
// backend may still be writing. Under -race the late writer turns any
// reuse into a reported race as well as a failed pointer check.
func TestFailedQueryDropsItsBuffers(t *testing.T) {
	m, p, train := untrainedSetup(t, 3)
	o := &lateWriter{ModelOracle: oracle.NewModelOracle(m), stop: make(chan struct{})}
	defer func() {
		close(o.stop)
		o.writer.Wait()
	}()
	var oracleErr error
	ev := &genEvaluator{
		ctx: context.Background(), oracle: o, prompt: p, windows: NewWindows(p, train),
		k: 4, batchRNG: rng.New(2), errp: &oracleErr,
	}
	cands := [][]float64{p.Clone().Theta, p.Clone().Theta}
	ev.evaluate(cands)
	if oracleErr == nil || ev.probs != nil {
		t.Fatalf("failed generation: error %v, retained probs %v", oracleErr, ev.probs != nil)
	}
	for gen := 0; gen < 3; gen++ {
		oracleErr = nil // as if the search carried on past the failure
		ev.evaluate(cands)
		if oracleErr != nil {
			t.Fatal(oracleErr)
		}
	}
	for i := 1; i < len(o.dsts); i++ {
		if o.dsts[i] == o.dsts[0] || o.canvass[i] == o.canvass[0] {
			t.Fatalf("generation %d reused the failed generation's buffers", i)
		}
	}
	if o.dsts[1] != o.dsts[3] {
		t.Fatal("healthy generations did not share one confidence tensor")
	}
}

// One Windows serves concurrent searches — how a bprom.Detector shares its
// windows across audits — and each search learns exactly the θ it learns
// on windows of its own. Under -race this is the sharing's data-race
// harness. Windows cut for another geometry are refused.
func TestSharedWindowsMatchOwnWindows(t *testing.T) {
	m, p0, train := untrainedSetup(t, 4)
	ctx := context.Background()
	cfg := BlackBoxConfig{Iterations: 3, BatchSize: 6}
	shared := NewWindows(p0, train)
	const searches = 4
	got := make([]*Prompt, searches)
	errs := make([]error, searches)
	var wg sync.WaitGroup
	for i := range got {
		got[i] = p0.Clone()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = TrainBlackBoxWindows(ctx, oracle.NewModelOracle(m), got[i], shared, cfg, rng.New(uint64(90+i%2)))
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		want := p0.Clone()
		if err := TrainBlackBox(ctx, oracle.NewModelOracle(m), want, train, cfg, rng.New(uint64(90+i%2))); err != nil {
			t.Fatal(err)
		}
		for j := range want.Theta {
			if got[i].Theta[j] != want.Theta[j] {
				t.Fatalf("search %d: theta[%d] %v on shared windows, %v on its own", i, j, got[i].Theta[j], want.Theta[j])
			}
		}
	}

	other, err := NewPrompt(p0.Source, train.Shape, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := TrainBlackBoxWindows(ctx, oracle.NewModelOracle(m), other, shared, cfg, rng.New(1)); err == nil {
		t.Fatal("windows cut for another window size were accepted")
	}
}
