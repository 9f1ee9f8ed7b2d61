package vp

import (
	"context"
	"math"
	"sync"
	"testing"

	"bprom/internal/cmaes"
	"bprom/internal/data"
	"bprom/internal/nn"
	"bprom/internal/oracle"
	"bprom/internal/rng"
	"bprom/internal/trainer"
)

func shapes() (src, tgt data.Shape) {
	return data.Shape{C: 3, H: 12, W: 12}, data.Shape{C: 3, H: 16, W: 16}
}

func TestNewPromptGeometry(t *testing.T) {
	src, tgt := shapes()
	p, err := NewPrompt(src, tgt, 0.83)
	if err != nil {
		t.Fatal(err)
	}
	if p.Inner != 10 {
		t.Fatalf("inner window %d, want 10", p.Inner)
	}
	wantBorder := src.Dim() - 3*10*10
	if p.Dim() != wantBorder {
		t.Fatalf("border dim %d, want %d", p.Dim(), wantBorder)
	}
}

func TestNewPromptValidation(t *testing.T) {
	src, tgt := shapes()
	if _, err := NewPrompt(src, tgt, 0); err == nil {
		t.Fatal("expected error for frac 0")
	}
	if _, err := NewPrompt(src, tgt, 1); err == nil {
		t.Fatal("expected error for no border")
	}
	if _, err := NewPrompt(src, data.Shape{C: 1, H: 16, W: 16}, 0.8); err == nil {
		t.Fatal("expected error for channel mismatch")
	}
	if _, err := NewPrompt(data.Shape{}, tgt, 0.8); err == nil {
		t.Fatal("expected error for invalid shape")
	}
}

func TestApplyPlacesImageAndTheta(t *testing.T) {
	src, tgt := shapes()
	p, err := NewPrompt(src, tgt, 0.83)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Theta {
		p.Theta[i] = 0.25
	}
	img := make([]float64, tgt.Dim())
	for i := range img {
		img[i] = 1 // all-white target image
	}
	dst := make([]float64, src.Dim())
	p.Apply(dst, img, tgt)
	// center pixel must be the image (1), a corner pixel must be θ (0.25)
	center := (src.H/2)*src.W + src.W/2
	if dst[center] != 1 {
		t.Fatalf("center pixel %v, want 1", dst[center])
	}
	if dst[0] != 0.25 {
		t.Fatalf("corner pixel %v, want theta 0.25", dst[0])
	}
}

func TestApplyClampsTheta(t *testing.T) {
	src, tgt := shapes()
	p, _ := NewPrompt(src, tgt, 0.83)
	p.Theta[0] = 5
	p.Theta[1] = -3
	dst := make([]float64, src.Dim())
	img := make([]float64, tgt.Dim())
	p.Apply(dst, img, tgt)
	if dst[0] != 1 {
		t.Fatalf("over-range theta not clamped: %v", dst[0])
	}
}

func TestBatchMatchesApply(t *testing.T) {
	src, _ := shapes()
	gen := data.NewGenerator(data.MustSpec(data.STL10), 1)
	ds := gen.Generate(2, rng.New(2))
	p, err := NewPrompt(src, ds.Shape, 0.83)
	if err != nil {
		t.Fatal(err)
	}
	rng.New(3).Uniform(p.Theta, 0, 1)
	batch := p.Batch(ds, []int{3, 7})
	single := make([]float64, src.Dim())
	p.Apply(single, ds.Sample(7), ds.Shape)
	row := batch.Row(1)
	for i := range single {
		if math.Abs(single[i]-row[i]) > 1e-12 {
			t.Fatal("Batch differs from Apply")
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	src, tgt := shapes()
	p, _ := NewPrompt(src, tgt, 0.83)
	c := p.Clone()
	c.Theta[0] = 0.9
	if p.Theta[0] == 0.9 {
		t.Fatal("Clone aliases Theta")
	}
}

// trainSourceModel fits a small model on the synthetic CIFAR analogue.
func trainSourceModel(t *testing.T, seed uint64) (*nn.Model, *data.Dataset) {
	t.Helper()
	gen := data.NewGenerator(data.MustSpec(data.CIFAR10), seed)
	ds := gen.Generate(30, rng.New(seed))
	m, err := nn.Build(nn.ArchConfig{
		Arch: nn.ArchConvLite, C: ds.Shape.C, H: ds.Shape.H, W: ds.Shape.W,
		NumClasses: ds.Classes, Hidden: 24,
	}, rng.New(seed+1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trainer.Train(context.Background(), m, ds, trainer.Config{Epochs: 10}, rng.New(seed+2)); err != nil {
		t.Fatal(err)
	}
	return m, ds
}

func TestWhiteBoxPromptingImprovesOverRandomTheta(t *testing.T) {
	ctx := context.Background()
	model, src := trainSourceModel(t, 1)
	tgtGen := data.NewGenerator(data.MustSpec(data.STL10), 5)
	tgtTrain, tgtTest := tgtGen.GenerateSplit(12, 6, rng.New(6))

	p, err := NewPrompt(src.Shape, tgtTrain.Shape, 0.83)
	if err != nil {
		t.Fatal(err)
	}
	rng.New(7).Uniform(p.Theta, 0, 1)
	before, err := (&Prompted{Oracle: oracle.NewModelOracle(model), Prompt: p}).Accuracy(ctx, tgtTest)
	if err != nil {
		t.Fatal(err)
	}
	if err := TrainWhiteBox(ctx, model, p, tgtTrain, WhiteBoxConfig{Epochs: 6}, rng.New(8)); err != nil {
		t.Fatal(err)
	}
	after, err := (&Prompted{Oracle: oracle.NewModelOracle(model), Prompt: p}).Accuracy(ctx, tgtTest)
	if err != nil {
		t.Fatal(err)
	}
	if after < before-0.05 {
		t.Fatalf("white-box prompting hurt: %.3f -> %.3f", before, after)
	}
	if after < 0.5 {
		t.Fatalf("prompted accuracy %.3f too low on clean model", after)
	}
}

func TestBlackBoxPromptingReachesUsefulAccuracy(t *testing.T) {
	ctx := context.Background()
	model, src := trainSourceModel(t, 11)
	tgtGen := data.NewGenerator(data.MustSpec(data.STL10), 15)
	tgtTrain, tgtTest := tgtGen.GenerateSplit(12, 6, rng.New(16))

	p, err := NewPrompt(src.Shape, tgtTrain.Shape, 0.83)
	if err != nil {
		t.Fatal(err)
	}
	o := oracle.NewCounter(oracle.NewModelOracle(model))
	if err := TrainBlackBox(ctx, o, p, tgtTrain, BlackBoxConfig{Iterations: 25}, rng.New(17)); err != nil {
		t.Fatal(err)
	}
	if o.Queries() == 0 {
		t.Fatal("black-box prompting made no oracle queries")
	}
	acc, err := (&Prompted{Oracle: o, Prompt: p}).Accuracy(ctx, tgtTest)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.5 {
		t.Fatalf("black-box prompted accuracy %.3f on clean model", acc)
	}
}

func TestBlackBoxQueryBudget(t *testing.T) {
	ctx := context.Background()
	model, src := trainSourceModel(t, 21)
	tgtGen := data.NewGenerator(data.MustSpec(data.STL10), 25)
	tgtTrain, _ := tgtGen.GenerateSplit(10, 4, rng.New(26))
	p, _ := NewPrompt(src.Shape, tgtTrain.Shape, 0.83)
	o := oracle.NewCounter(oracle.NewModelOracle(model))
	cfg := BlackBoxConfig{Iterations: 100, BatchSize: 20, MaxQueries: 500}
	if err := TrainBlackBox(ctx, o, p, tgtTrain, cfg, rng.New(27)); err != nil {
		t.Fatal(err)
	}
	if o.Queries() > 520 { // one batch of slack
		t.Fatalf("query budget exceeded: %d", o.Queries())
	}
}

func TestTrainValidation(t *testing.T) {
	ctx := context.Background()
	model, src := trainSourceModel(t, 31)
	big := data.NewGenerator(data.MustSpec(data.GTSRB), 33).Generate(2, rng.New(34))
	p, _ := NewPrompt(src.Shape, big.Shape, 0.83)
	// 43-class target task cannot map onto 10-class source model.
	if err := TrainWhiteBox(ctx, model, p, big, WhiteBoxConfig{}, rng.New(35)); err == nil {
		t.Fatal("expected class-count error")
	}
	if err := TrainBlackBox(ctx, oracle.NewModelOracle(model), p, big, BlackBoxConfig{}, rng.New(36)); err == nil {
		t.Fatal("expected class-count error")
	}
	empty := &data.Dataset{Shape: big.Shape, Classes: 5}
	if err := TrainWhiteBox(ctx, model, p, empty, WhiteBoxConfig{}, rng.New(37)); err == nil {
		t.Fatal("expected empty-dataset error")
	}
}

func TestSPSAPathRuns(t *testing.T) {
	ctx := context.Background()
	model, src := trainSourceModel(t, 41)
	tgtGen := data.NewGenerator(data.MustSpec(data.STL10), 45)
	tgtTrain, _ := tgtGen.GenerateSplit(8, 4, rng.New(46))
	p, _ := NewPrompt(src.Shape, tgtTrain.Shape, 0.83)
	cfg := BlackBoxConfig{Iterations: 5, UseSPSA: true}
	if err := TrainBlackBox(ctx, oracle.NewModelOracle(model), p, tgtTrain, cfg, rng.New(47)); err != nil {
		t.Fatal(err)
	}
	for _, v := range p.Theta {
		if v < 0 || v > 1 {
			t.Fatalf("theta %v outside [0,1] after SPSA", v)
		}
	}
}

func TestAccuracyEmptySet(t *testing.T) {
	model, src := trainSourceModel(t, 51)
	tgt := data.Shape{C: 3, H: 16, W: 16}
	p, _ := NewPrompt(src.Shape, tgt, 0.83)
	empty := &data.Dataset{Shape: tgt, Classes: 10}
	if _, err := (&Prompted{Oracle: oracle.NewModelOracle(model), Prompt: p}).Accuracy(context.Background(), empty); err == nil {
		t.Fatal("expected error for empty evaluation set")
	}
}

// TestBlackBoxSerialBatchedBitParity locks the generation-batched evaluator
// to its reference: TrainBlackBox (one fused oracle call per generation)
// must be bit-identical to sep-CMA-ES run on serialObjective (one oracle
// call per candidate) — same learned θ, same oracle query count — including
// when MaxQueries truncates the final generation mid-population.
func TestBlackBoxSerialBatchedBitParity(t *testing.T) {
	ctx := context.Background()
	model, src := trainSourceModel(t, 61)
	tgtGen := data.NewGenerator(data.MustSpec(data.STL10), 65)
	tgtTrain, _ := tgtGen.GenerateSplit(10, 4, rng.New(66))

	// trainSerial is TrainBlackBox's CMA-ES path with the fused evaluator
	// swapped for the per-candidate objective: same RNG splits in the same
	// order, same optimizer options.
	trainSerial := func(o oracle.Oracle, p *Prompt, cfg BlackBoxConfig, r *rng.RNG) error {
		cfg.defaults()
		batchRNG := r.Split("batches")
		k := cfg.BatchSize
		if n := tgtTrain.Len(); k > n {
			k = n
		}
		opt := cmaes.Options{Sigma0: cfg.Sigma0, PopSize: cfg.PopSize, MaxIters: cfg.Iterations, Lo: 0, Hi: 1}
		if cfg.MaxQueries > 0 {
			opt.MaxEvals = cfg.MaxQueries / cfg.BatchSize
		}
		var oracleErr error
		obj := serialObjective(ctx, o, p.Clone(), tgtTrain, k, batchRNG, &oracleErr)
		res, err := cmaes.MinimizeSep(obj, p.Theta, opt, r.Split("cmaes"))
		if err != nil {
			return err
		}
		if oracleErr != nil {
			return oracleErr
		}
		copy(p.Theta, res.Best)
		p.clampTheta()
		return nil
	}

	cases := []struct {
		name string
		cfg  BlackBoxConfig
	}{
		{"default", BlackBoxConfig{Iterations: 8}},
		{"custom-pop", BlackBoxConfig{Iterations: 6, PopSize: 9, BatchSize: 5}},
		{"truncating-budget", BlackBoxConfig{Iterations: 50, BatchSize: 6, MaxQueries: 6 * 23}}, // 23 evals: not a λ multiple
		{"batch-capped-by-n", BlackBoxConfig{Iterations: 4, BatchSize: 64}},                     // k capped to len(train)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(serial bool) (*Prompt, int64) {
				p, err := NewPrompt(src.Shape, tgtTrain.Shape, 0.83)
				if err != nil {
					t.Fatal(err)
				}
				o := oracle.NewCounter(oracle.NewModelOracle(model))
				if serial {
					err = trainSerial(o, p, tc.cfg, rng.New(67))
				} else {
					err = TrainBlackBox(ctx, o, p, tgtTrain, tc.cfg, rng.New(67))
				}
				if err != nil {
					t.Fatal(err)
				}
				return p, o.Queries()
			}
			pSerial, qSerial := run(true)
			pBatched, qBatched := run(false)
			if qBatched != qSerial {
				t.Fatalf("query count diverged: batched %d, serial %d", qBatched, qSerial)
			}
			if qSerial == 0 {
				t.Fatal("no oracle queries made")
			}
			for i := range pSerial.Theta {
				if pBatched.Theta[i] != pSerial.Theta[i] {
					t.Fatalf("theta[%d] diverged: batched %v, serial %v", i, pBatched.Theta[i], pSerial.Theta[i])
				}
			}
		})
	}
}

// TestBatchedEvaluatorSharedOracleRace drives several concurrent
// generation-batched trainings against ONE shared ModelOracle (the fleet
// audit topology: every audit goroutine funnels into the shared tensor
// worker pool). Run under -race this is the data-race harness; the result
// check asserts the trainings stay independent despite the shared oracle
// and the shared canvas pool.
func TestBatchedEvaluatorSharedOracleRace(t *testing.T) {
	ctx := context.Background()
	model, src := trainSourceModel(t, 71)
	tgtGen := data.NewGenerator(data.MustSpec(data.STL10), 75)
	tgtTrain, _ := tgtGen.GenerateSplit(10, 4, rng.New(76))
	shared := oracle.NewModelOracle(model)

	const workers = 4
	thetas := make([][]float64, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p, err := NewPrompt(src.Shape, tgtTrain.Shape, 0.83)
			if err != nil {
				errs[w] = err
				return
			}
			// Workers 0 and 2 share a seed; they must agree bit-for-bit
			// even while racing workers 1 and 3 on the same oracle.
			if errs[w] = TrainBlackBox(ctx, shared, p, tgtTrain, BlackBoxConfig{Iterations: 5}, rng.New(80+uint64(w%2))); errs[w] == nil {
				thetas[w] = p.Theta
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	for i := range thetas[0] {
		if thetas[0][i] != thetas[2][i] {
			t.Fatal("same-seed concurrent trainings diverged: shared state leaked between workers")
		}
	}
}

// TestSPSARespectsQueryBudgetAndContext covers the SPSA parity satellite:
// MaxQueries must bound SPSA audits exactly as it bounds CMA-ES ones, and a
// cancelled context must stop the optimization with an error.
func TestSPSARespectsQueryBudgetAndContext(t *testing.T) {
	ctx := context.Background()
	model, src := trainSourceModel(t, 81)
	tgtGen := data.NewGenerator(data.MustSpec(data.STL10), 85)
	tgtTrain, _ := tgtGen.GenerateSplit(10, 4, rng.New(86))

	p, _ := NewPrompt(src.Shape, tgtTrain.Shape, 0.83)
	o := oracle.NewCounter(oracle.NewModelOracle(model))
	cfg := BlackBoxConfig{Iterations: 100, BatchSize: 20, MaxQueries: 500, UseSPSA: true}
	if err := TrainBlackBox(ctx, o, p, tgtTrain, cfg, rng.New(87)); err != nil {
		t.Fatal(err)
	}
	if o.Queries() == 0 {
		t.Fatal("SPSA made no oracle queries")
	}
	if o.Queries() > 500 {
		t.Fatalf("SPSA exceeded MaxQueries: %d > 500", o.Queries())
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	p2, _ := NewPrompt(src.Shape, tgtTrain.Shape, 0.83)
	if err := TrainBlackBox(cancelled, oracle.NewModelOracle(model), p2, tgtTrain, cfg, rng.New(88)); err == nil {
		t.Fatal("expected cancellation error from SPSA path")
	}
}

// TestConfidencesMatchesBatchPredict pins the refactored chunked
// Confidences path to the reference Batch+Predict composition.
func TestConfidencesMatchesBatchPredict(t *testing.T) {
	ctx := context.Background()
	model, src := trainSourceModel(t, 91)
	tgtGen := data.NewGenerator(data.MustSpec(data.STL10), 95)
	ds := tgtGen.Generate(3, rng.New(96))
	p, err := NewPrompt(src.Shape, ds.Shape, 0.83)
	if err != nil {
		t.Fatal(err)
	}
	rng.New(97).Uniform(p.Theta, 0, 1)
	o := oracle.NewModelOracle(model)
	idx := []int{5, 0, 17, 3}
	pm := &Prompted{Oracle: o, Prompt: p}
	got, err := pm.Confidences(ctx, ds, idx)
	if err != nil {
		t.Fatal(err)
	}
	want, err := o.Predict(ctx, p.Batch(ds, idx))
	if err != nil {
		t.Fatal(err)
	}
	if got.Dim(0) != want.Dim(0) || got.Dim(1) != want.Dim(1) {
		t.Fatalf("shape %v, want %v", got.Shape(), want.Shape())
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("confidence %d diverged: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

// TestResizeCacheMatchesDirectResize pins the cache to data.ResizeImage.
func TestResizeCacheMatchesDirectResize(t *testing.T) {
	src, _ := shapes()
	gen := data.NewGenerator(data.MustSpec(data.STL10), 99)
	ds := gen.Generate(2, rng.New(99))
	p, err := NewPrompt(src, ds.Shape, 0.83)
	if err != nil {
		t.Fatal(err)
	}
	windows := NewWindows(p, ds)
	inner := data.Shape{C: p.Source.C, H: p.Inner, W: p.Inner}
	want := make([]float64, inner.Dim())
	for i := 0; i < ds.Len(); i++ {
		data.ResizeImage(ds.Sample(i), ds.Shape, want, inner)
		got := windows.resized(i)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("cached resize of sample %d differs at %d", i, j)
			}
		}
	}
}
