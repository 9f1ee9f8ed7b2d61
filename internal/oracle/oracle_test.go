package oracle

import (
	"context"
	"math"
	"sync"
	"testing"

	"bprom/internal/nn"
	"bprom/internal/rng"
	"bprom/internal/tensor"
)

func testModel(t *testing.T) *nn.Model {
	t.Helper()
	m, err := nn.Build(nn.ArchConfig{Arch: nn.ArchResNetLite, C: 1, H: 4, W: 4, NumClasses: 3, Hidden: 8}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestModelOraclePredictConfidences(t *testing.T) {
	o := NewModelOracle(testModel(t))
	if o.NumClasses() != 3 || o.InputDim() != 16 {
		t.Fatalf("metadata %d/%d", o.NumClasses(), o.InputDim())
	}
	x := tensor.New(4, 16)
	rng.New(2).Uniform(x.Data, 0, 1)
	probs, err := o.Predict(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		sum := 0.0
		for _, v := range probs.Row(i) {
			if v < 0 || v > 1 {
				t.Fatalf("confidence %v outside [0,1]", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row sums to %v", sum)
		}
	}
}

func TestModelOracleRejectsBadShape(t *testing.T) {
	o := NewModelOracle(testModel(t))
	if _, err := o.Predict(context.Background(), tensor.New(2, 7)); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestModelOracleRespectsContext(t *testing.T) {
	o := NewModelOracle(testModel(t))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := o.Predict(ctx, tensor.New(1, 16)); err == nil {
		t.Fatal("expected context error")
	}
}

func TestCounterCountsSamples(t *testing.T) {
	c := NewCounter(NewModelOracle(testModel(t)))
	ctx := context.Background()
	if _, err := c.Predict(ctx, tensor.New(5, 16)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Predict(ctx, tensor.New(3, 16)); err != nil {
		t.Fatal(err)
	}
	if c.Queries() != 8 {
		t.Fatalf("Queries = %d, want 8", c.Queries())
	}
	c.Reset()
	if c.Queries() != 0 {
		t.Fatal("Reset failed")
	}
}

func TestCounterDoesNotCountFailures(t *testing.T) {
	c := NewCounter(NewModelOracle(testModel(t)))
	if _, err := c.Predict(context.Background(), tensor.New(2, 7)); err == nil {
		t.Fatal("expected error")
	}
	if c.Queries() != 0 {
		t.Fatalf("failed query counted: %d", c.Queries())
	}
}

func TestCounterConcurrentSafety(t *testing.T) {
	c := NewCounter(&stubOracle{classes: 2, dim: 4})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if _, err := c.Predict(context.Background(), tensor.New(2, 4)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if c.Queries() != 8*100*2 {
		t.Fatalf("Queries = %d, want %d", c.Queries(), 8*100*2)
	}
}

// stubOracle is a trivial thread-safe oracle for concurrency tests.
type stubOracle struct {
	classes, dim int
}

func (s *stubOracle) Predict(ctx context.Context, x *tensor.Tensor) (*tensor.Tensor, error) {
	out := tensor.New(x.Dim(0), s.classes)
	for i := 0; i < x.Dim(0); i++ {
		out.Set(1, i, 0)
	}
	return out, nil
}

func (s *stubOracle) NumClasses() int { return s.classes }
func (s *stubOracle) InputDim() int   { return s.dim }

var _ Oracle = (*stubOracle)(nil)

// limitedStub is a stubOracle that advertises a per-request batch cap.
type limitedStub struct {
	stubOracle
	max int
}

func (s *limitedStub) MaxBatch() int { return s.max }

func TestCounterExposesBatchLimit(t *testing.T) {
	plain := NewCounter(&stubOracle{classes: 3, dim: 4})
	if got := plain.MaxBatch(); got != 0 {
		t.Fatalf("unlimited oracle reported MaxBatch %d, want 0", got)
	}
	capped := NewCounter(&limitedStub{stubOracle: stubOracle{classes: 3, dim: 4}, max: 64})
	if got := capped.MaxBatch(); got != 64 {
		t.Fatalf("MaxBatch %d not forwarded through Counter, want 64", got)
	}
	var _ BatchLimiter = capped
}

// predictOnly hides every optional interface of the oracle it wraps.
type predictOnly struct{ Oracle }

// PredictInto writes Predict's bits, through an oracle's own PredictInto
// or through Predict and a copy, and a Counter forwards it and counts the
// rows once. A destination of the wrong shape is an error either way.
func TestPredictIntoMatchesPredict(t *testing.T) {
	m := testModel(t)
	x := tensor.New(37, 16) // more than one of the model's row blocks
	rng.New(3).Uniform(x.Data, 0, 1)
	want := m.Predict(x)
	for name, o := range map[string]Oracle{
		"model":          NewModelOracle(m),
		"predict-only":   predictOnly{NewModelOracle(m)},
		"counted model":  NewCounter(NewModelOracle(m)),
		"counted bypass": NewCounter(predictOnly{NewModelOracle(m)}),
	} {
		dst := tensor.New(37, 3)
		dst.Fill(math.NaN())
		if err := PredictInto(context.Background(), o, dst, x); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range want.Data {
			if math.Float64bits(dst.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("%s: value %d is %v, Predict gives %v", name, i, dst.Data[i], want.Data[i])
			}
		}
		if c, ok := o.(*Counter); ok && c.Queries() != 37 {
			t.Fatalf("%s: counted %d queries for 37 rows", name, c.Queries())
		}
		if err := PredictInto(context.Background(), o, tensor.New(36, 3), x); err == nil {
			t.Fatalf("%s: a 36-row destination for 37 rows was accepted", name)
		}
	}
}
