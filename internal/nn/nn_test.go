package nn

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"bprom/internal/rng"
	"bprom/internal/tensor"
)

// numericGrad estimates dLoss/dTheta for one scalar via central differences.
func numericGrad(f func() float64, theta *float64) float64 {
	const h = 1e-5
	orig := *theta
	*theta = orig + h
	lp := f()
	*theta = orig - h
	lm := f()
	*theta = orig
	return (lp - lm) / (2 * h)
}

// checkLayerGradients validates both parameter and input gradients of a
// layer against numeric differentiation of a quadratic loss.
func checkLayerGradients(t *testing.T, l Layer, inShape []int, seed uint64) {
	t.Helper()
	r := rng.New(seed)
	x := tensor.New(inShape...)
	r.Gaussian(x.Data, 0, 1)
	// Loss = 0.5 * sum(out^2) so dLoss/dOut = out.
	loss := func() float64 {
		out := l.Infer(x)
		s := 0.0
		for _, v := range out.Data {
			s += 0.5 * v * v
		}
		return s
	}
	out, cache := l.Forward(x, false)
	for _, p := range l.Params() {
		p.Grad.Zero()
	}
	dx := l.Backward(cache, out.Clone())

	// input gradient
	for i := 0; i < x.Len(); i += maxInt(1, x.Len()/7) {
		want := numericGrad(loss, &x.Data[i])
		if math.Abs(want-dx.Data[i]) > 1e-4*(1+math.Abs(want)) {
			t.Fatalf("input grad[%d]: analytic %v vs numeric %v", i, dx.Data[i], want)
		}
	}
	// parameter gradients
	for pi, p := range l.Params() {
		for i := 0; i < p.Value.Len(); i += maxInt(1, p.Value.Len()/7) {
			want := numericGrad(loss, &p.Value.Data[i])
			got := p.Grad.Data[i]
			if math.Abs(want-got) > 1e-4*(1+math.Abs(want)) {
				t.Fatalf("param %d grad[%d]: analytic %v vs numeric %v", pi, i, got, want)
			}
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestDenseGradients(t *testing.T) {
	checkLayerGradients(t, NewDense(5, 4, rng.New(1)), []int{3, 5}, 2)
}

func TestReLUGradients(t *testing.T) {
	checkLayerGradients(t, &ReLU{}, []int{4, 6}, 3)
}

func TestTanhGradients(t *testing.T) {
	checkLayerGradients(t, &Tanh{}, []int{4, 6}, 4)
}

// TestTanhSaturates: the closed form overflows to Inf/Inf past v ≈ 354.9,
// so tanh saturates where the quotient has already rounded to ±1 — and
// agrees with math.Tanh everywhere else.
func TestTanhSaturates(t *testing.T) {
	for _, c := range []struct{ in, want float64 }{
		{0, 0},
		{math.Copysign(0, -1), 0},
		{19.5, 1}, {-19.5, -1}, // the formula itself has rounded to ±1 here
		{20, 1}, {-20, -1},
		{354, 1}, {355, 1}, {-355, -1},
		{400, 1}, {-400, -1},
		{math.MaxFloat64, 1}, {-math.MaxFloat64, -1},
		{math.Inf(1), 1}, {math.Inf(-1), -1},
	} {
		if got := tanh(c.in); got != c.want {
			t.Errorf("tanh(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if got := tanh(math.NaN()); !math.IsNaN(got) {
		t.Errorf("tanh(NaN) = %v, want NaN", got)
	}
	for v := -25.0; v <= 25; v += 0.37 {
		if got, want := tanh(v), math.Tanh(v); math.Abs(got-want) > 1e-15 {
			t.Errorf("tanh(%v) = %v, math.Tanh = %v", v, got, want)
		}
	}
	// Through the layer, which is how a model meets it.
	x := tensor.FromSlice([]float64{-400, -1, 0, 1, 400}, 1, 5)
	y := (&Tanh{}).Infer(x)
	for i, want := range []float64{-1, math.Tanh(-1), 0, math.Tanh(1), 1} {
		if math.Abs(y.Data[i]-want) > 1e-15 {
			t.Errorf("Tanh.Infer(%v) = %v, want %v", x.Data[i], y.Data[i], want)
		}
	}
}

func TestLayerNormGradients(t *testing.T) {
	checkLayerGradients(t, NewLayerNorm(6), []int{3, 6}, 5)
}

func TestResidualGradients(t *testing.T) {
	body := []Layer{NewDense(5, 5, rng.New(6)), &Tanh{}, NewDense(5, 5, rng.New(7))}
	checkLayerGradients(t, &Residual{Body: body}, []int{2, 5}, 8)
}

func TestConv2DGradients(t *testing.T) {
	dims := tensor.ConvDims{InC: 2, InH: 5, InW: 5, OutC: 3, KH: 3, KW: 3, Stride: 2, Pad: 1}
	checkLayerGradients(t, NewConv2D(dims, rng.New(9)), []int{2, 2, 5, 5}, 10)
}

func TestDropoutInferenceIdentity(t *testing.T) {
	d := NewDropout(0.5, rng.New(1))
	x := tensor.New(4, 8)
	rng.New(2).Gaussian(x.Data, 0, 1)
	out := d.Infer(x)
	for i := range x.Data {
		if out.Data[i] != x.Data[i] {
			t.Fatal("dropout must be identity at inference")
		}
	}
	// the recording pass in eval mode is identity too
	evalOut, cache := d.Forward(x, false)
	if cache != nil {
		t.Fatal("eval-mode dropout must not record a mask")
	}
	for i := range x.Data {
		if evalOut.Data[i] != x.Data[i] {
			t.Fatal("eval-mode dropout must be identity")
		}
	}
}

func TestDropoutTrainingZeroesAndRescales(t *testing.T) {
	d := NewDropout(0.5, rng.New(3))
	x := tensor.New(1, 10000)
	x.Fill(1)
	out, cache := d.Forward(x, true)
	zeros := 0
	for _, v := range out.Data {
		switch v {
		case 0:
			zeros++
		case 2:
			// kept value rescaled by 1/(1-0.5)
		default:
			t.Fatalf("unexpected dropout output %v", v)
		}
	}
	frac := float64(zeros) / float64(x.Len())
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("dropout zeroed %.3f, expected ~0.5", frac)
	}
	// backward must use the same mask
	g := tensor.New(1, 10000)
	g.Fill(1)
	dx := d.Backward(cache, g)
	for i := range dx.Data {
		if (out.Data[i] == 0) != (dx.Data[i] == 0) {
			t.Fatal("dropout backward mask differs from forward")
		}
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	x := tensor.New(5, 7)
	rng.New(4).Gaussian(x.Data, 0, 5)
	SoftmaxInPlace(x)
	for i := 0; i < 5; i++ {
		s := 0.0
		for _, v := range x.Row(i) {
			if v < 0 || v > 1 {
				t.Fatalf("softmax value %v outside [0,1]", v)
			}
			s += v
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("softmax row sums to %v", s)
		}
	}
}

func TestSoftmaxStableUnderLargeLogits(t *testing.T) {
	x := tensor.FromSlice([]float64{1000, 1001, 999}, 1, 3)
	SoftmaxInPlace(x)
	for _, v := range x.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("softmax overflowed on large logits")
		}
	}
}

func TestCrossEntropyMatchesManual(t *testing.T) {
	logits := tensor.FromSlice([]float64{2, 0, -1, 0, 3, 0}, 2, 3)
	loss, grad := CrossEntropy(logits, []int{0, 1})
	// manual computation
	p0 := math.Exp(2.0) / (math.Exp(2.0) + 1 + math.Exp(-1.0))
	p1 := math.Exp(3.0) / (1 + math.Exp(3.0) + 1)
	want := -(math.Log(p0) + math.Log(p1)) / 2
	if math.Abs(loss-want) > 1e-9 {
		t.Fatalf("loss %v, want %v", loss, want)
	}
	// gradient at the true class is (p-1)/N
	if math.Abs(grad.At(0, 0)-(p0-1)/2) > 1e-9 {
		t.Fatalf("grad[0,0] = %v, want %v", grad.At(0, 0), (p0-1)/2)
	}
}

func TestCrossEntropyGradientNumeric(t *testing.T) {
	r := rng.New(11)
	logits := tensor.New(3, 4)
	r.Gaussian(logits.Data, 0, 1)
	labels := []int{1, 3, 0}
	_, grad := CrossEntropy(logits, labels)
	for i := range logits.Data {
		f := func() float64 {
			l, _ := CrossEntropy(logits, labels)
			return l
		}
		want := numericGrad(f, &logits.Data[i])
		if math.Abs(want-grad.Data[i]) > 1e-6 {
			t.Fatalf("CE grad[%d] analytic %v numeric %v", i, grad.Data[i], want)
		}
	}
}

func TestCrossEntropyPanicsOnBadLabel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range label")
		}
	}()
	CrossEntropy(tensor.New(1, 3), []int{5})
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromSlice([]float64{1, 2, 0, 5, 1, 1}, 2, 3)
	if got := Accuracy(logits, []int{1, 0}); got != 1 {
		t.Fatalf("Accuracy = %v, want 1", got)
	}
	if got := Accuracy(logits, []int{0, 0}); got != 0.5 {
		t.Fatalf("Accuracy = %v, want 0.5", got)
	}
}

func buildAll(t *testing.T) []*Model {
	t.Helper()
	var models []*Model
	for _, arch := range []Arch{ArchResNetLite, ArchMobileNetLite, ArchVitLite, ArchConvLite} {
		m, err := Build(ArchConfig{Arch: arch, C: 2, H: 6, W: 6, NumClasses: 4, Hidden: 16, Blocks: 2}, rng.New(42))
		if err != nil {
			t.Fatalf("Build(%s): %v", arch, err)
		}
		models = append(models, m)
	}
	return models
}

func TestBuildArchitectures(t *testing.T) {
	for _, m := range buildAll(t) {
		x := tensor.New(3, m.InputDim)
		rng.New(1).Gaussian(x.Data, 0, 1)
		logits := m.Infer(x)
		if logits.Dim(0) != 3 || logits.Dim(1) != 4 {
			t.Fatalf("%s: logits shape %v", m.Arch, logits.Shape())
		}
		if m.ParamCount() == 0 {
			t.Fatalf("%s: no parameters", m.Arch)
		}
	}
}

func TestBuildRejectsBadConfig(t *testing.T) {
	if _, err := Build(ArchConfig{Arch: "nope", C: 1, H: 4, W: 4, NumClasses: 2}, rng.New(1)); err == nil {
		t.Fatal("expected error for unknown arch")
	}
	if _, err := Build(ArchConfig{Arch: ArchResNetLite, C: 0, H: 4, W: 4, NumClasses: 2}, rng.New(1)); err == nil {
		t.Fatal("expected error for bad geometry")
	}
	if _, err := Build(ArchConfig{Arch: ArchResNetLite, C: 1, H: 4, W: 4, NumClasses: 1}, rng.New(1)); err == nil {
		t.Fatal("expected error for single class")
	}
}

func TestModelInputGradientFlows(t *testing.T) {
	// VP training depends on nonzero input gradients through the whole model.
	m, err := Build(ArchConfig{Arch: ArchResNetLite, C: 1, H: 4, W: 4, NumClasses: 3, Hidden: 8}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(2, 16)
	rng.New(6).Gaussian(x.Data, 0, 1)
	pass := m.NewPass()
	defer pass.Release()
	logits := pass.Forward(x, true)
	_, grad := CrossEntropy(logits, []int{0, 2})
	dx := pass.Backward(grad)
	if dx.Len() != x.Len() {
		t.Fatalf("input grad shape %v", dx.Shape())
	}
	if dx.Norm2() == 0 {
		t.Fatal("input gradient is identically zero")
	}
}

func TestFeaturesShape(t *testing.T) {
	m, err := Build(ArchConfig{Arch: ArchMobileNetLite, C: 1, H: 4, W: 4, NumClasses: 3, Hidden: 8}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(5, 16)
	f := m.Features(x)
	if f.Dim(0) != 5 || f.Dim(1) != 8 {
		t.Fatalf("Features shape %v, want [5 8]", f.Shape())
	}
}

func TestDifferentSeedsDifferentWeights(t *testing.T) {
	cfg := ArchConfig{Arch: ArchResNetLite, C: 1, H: 4, W: 4, NumClasses: 3, Hidden: 8}
	m1, _ := Build(cfg, rng.New(1))
	m2, _ := Build(cfg, rng.New(2))
	p1 := m1.Params()[0].Value.Data
	p2 := m2.Params()[0].Value.Data
	same := true
	for i := range p1 {
		if p1[i] != p2[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical initializations")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	for _, m := range buildAll(t) {
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatalf("%s: Save: %v", m.Arch, err)
		}
		loaded, err := Load(&buf)
		if err != nil {
			t.Fatalf("%s: Load: %v", m.Arch, err)
		}
		if loaded.Arch != m.Arch || loaded.InputDim != m.InputDim || loaded.NumClasses != m.NumClasses {
			t.Fatalf("%s: metadata mismatch", m.Arch)
		}
		x := tensor.New(4, m.InputDim)
		rng.New(3).Gaussian(x.Data, 0, 1)
		a := m.Infer(x)
		b := loaded.Infer(x)
		for i := range a.Data {
			if math.Abs(a.Data[i]-b.Data[i]) > 1e-12 {
				t.Fatalf("%s: loaded model diverges at output %d", m.Arch, i)
			}
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Fatal("expected error for bad magic")
	}
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Fatal("expected error for empty input")
	}
}

func TestSaveLoadFile(t *testing.T) {
	m, err := Build(ArchConfig{Arch: ArchResNetLite, C: 1, H: 4, W: 4, NumClasses: 2, Hidden: 8}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/model.bin"
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.ParamCount() != m.ParamCount() {
		t.Fatal("param count changed across file round trip")
	}
}

func TestInferMatchesRecordingForward(t *testing.T) {
	for _, m := range buildAll(t) {
		x := tensor.New(3, m.InputDim)
		rng.New(7).Gaussian(x.Data, 0, 1)
		pure := m.Infer(x)
		pass := m.NewPass()
		recorded := pass.Forward(x, false)
		pass.Release()
		for i := range pure.Data {
			if pure.Data[i] != recorded.Data[i] {
				t.Fatalf("%s: Infer and Forward diverge at %d", m.Arch, i)
			}
		}
	}
}

func TestConcurrentInferIsDeterministic(t *testing.T) {
	// The whole point of the stateless inference path: many goroutines
	// hammering one frozen model must all see the serial answer (run under
	// -race to catch cache sharing).
	for _, m := range buildAll(t) {
		x := tensor.New(4, m.InputDim)
		rng.New(8).Gaussian(x.Data, 0, 1)
		want := m.Predict(x.Clone())
		var wg sync.WaitGroup
		const goroutines = 8
		outs := make([]*tensor.Tensor, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				outs[g] = m.Predict(x.Clone())
			}(g)
		}
		wg.Wait()
		for g, got := range outs {
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("%s: goroutine %d diverges at %d", m.Arch, g, i)
				}
			}
		}
	}
}

func TestConcurrentPassesShareNoState(t *testing.T) {
	// Two training-mode passes over one model (dropout on) must be
	// memory-safe; gradient steps are synchronized by running Backward
	// under a mutex, mirroring a data-parallel trainer.
	m, err := Build(ArchConfig{
		Arch: ArchResNetLite, C: 1, H: 4, W: 4, NumClasses: 3, Hidden: 8, Dropout: 0.3,
	}, rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			x := tensor.New(2, 16)
			rng.New(uint64(g)).Gaussian(x.Data, 0, 1)
			pass := m.NewPass()
			defer pass.Release()
			logits := pass.Forward(x, true)
			_, grad := CrossEntropy(logits, []int{0, 1})
			mu.Lock()
			pass.Backward(grad)
			mu.Unlock()
		}(g)
	}
	wg.Wait()
}

func TestPassBackwardWithoutForwardPanics(t *testing.T) {
	m, err := Build(ArchConfig{Arch: ArchResNetLite, C: 1, H: 4, W: 4, NumClasses: 2, Hidden: 8}, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Backward without Forward")
		}
	}()
	m.NewPass().Backward(tensor.New(1, 2))
}

func TestValidateChecksHead(t *testing.T) {
	m := &Model{InputDim: 4, NumClasses: 3, Layers: []Layer{&ReLU{}}}
	if err := m.Validate(); err == nil {
		t.Fatal("expected validation failure for non-Dense head")
	}
	m2 := &Model{InputDim: 4, NumClasses: 3, Layers: []Layer{NewDense(4, 2, rng.New(1))}}
	if err := m2.Validate(); err == nil {
		t.Fatal("expected validation failure for wrong head width")
	}
}
