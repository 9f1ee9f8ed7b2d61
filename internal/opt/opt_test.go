package opt

import (
	"math"
	"testing"

	"bprom/internal/nn"
	"bprom/internal/rng"
	"bprom/internal/tensor"
)

// quadratic builds a single-parameter "model" whose loss is 0.5*||w - target||².
func quadParam(n int) *nn.Param {
	return &nn.Param{Name: "w", Value: tensor.New(n), Grad: tensor.New(n)}
}

func fillQuadGrad(p *nn.Param, target []float64) float64 {
	loss := 0.0
	for i := range p.Value.Data {
		d := p.Value.Data[i] - target[i]
		p.Grad.Data[i] = d
		loss += 0.5 * d * d
	}
	return loss
}

func converges(t *testing.T, o Optimizer, p *nn.Param, target []float64, steps int, tol float64) {
	t.Helper()
	for i := 0; i < steps; i++ {
		fillQuadGrad(p, target)
		o.Step()
		p.Grad.Zero()
	}
	for i := range target {
		if math.Abs(p.Value.Data[i]-target[i]) > tol {
			t.Fatalf("dim %d: %v, want %v (±%v)", i, p.Value.Data[i], target[i], tol)
		}
	}
}

func TestSGDConvergesOnQuadratic(t *testing.T) {
	p := quadParam(5)
	rng.New(1).Gaussian(p.Value.Data, 0, 3)
	target := []float64{1, -2, 0.5, 3, -1}
	converges(t, NewSGD([]*nn.Param{p}, 0.3, 0, 0), p, target, 100, 1e-6)
}

func TestSGDMomentumConverges(t *testing.T) {
	p := quadParam(5)
	rng.New(2).Gaussian(p.Value.Data, 0, 3)
	target := []float64{1, -2, 0.5, 3, -1}
	converges(t, NewSGD([]*nn.Param{p}, 0.1, 0.9, 0), p, target, 200, 1e-5)
}

func TestAdamConverges(t *testing.T) {
	p := quadParam(5)
	rng.New(3).Gaussian(p.Value.Data, 0, 3)
	target := []float64{1, -2, 0.5, 3, -1}
	converges(t, NewAdam([]*nn.Param{p}, 0.2), p, target, 400, 1e-3)
}

func TestWeightDecayShrinksWeights(t *testing.T) {
	p := quadParam(3)
	p.Value.Fill(10)
	s := NewSGD([]*nn.Param{p}, 0.1, 0, 0.5)
	// zero task gradient: only decay acts
	for i := 0; i < 50; i++ {
		s.Step()
	}
	for _, v := range p.Value.Data {
		if math.Abs(v) > 1 {
			t.Fatalf("weight decay failed to shrink weight: %v", v)
		}
	}
}

func TestSetLR(t *testing.T) {
	p := quadParam(1)
	s := NewSGD([]*nn.Param{p}, 0.1, 0, 0)
	s.SetLR(0.5)
	if s.LR() != 0.5 {
		t.Fatalf("LR = %v", s.LR())
	}
	a := NewAdam([]*nn.Param{p}, 0.1)
	a.SetLR(0.01)
	if a.LR() != 0.01 {
		t.Fatalf("Adam LR = %v", a.LR())
	}
}

func TestClipGradNorm(t *testing.T) {
	p := quadParam(4)
	copy(p.Grad.Data, []float64{3, 4, 0, 0}) // norm 5
	pre := ClipGradNorm([]*nn.Param{p}, 1)
	if math.Abs(pre-5) > 1e-12 {
		t.Fatalf("pre-clip norm %v, want 5", pre)
	}
	norm := 0.0
	for _, g := range p.Grad.Data {
		norm += g * g
	}
	if math.Abs(math.Sqrt(norm)-1) > 1e-12 {
		t.Fatalf("post-clip norm %v, want 1", math.Sqrt(norm))
	}
}

func TestClipGradNormDisabled(t *testing.T) {
	p := quadParam(2)
	copy(p.Grad.Data, []float64{3, 4})
	ClipGradNorm([]*nn.Param{p}, 0)
	if p.Grad.Data[0] != 3 {
		t.Fatal("clip with maxNorm<=0 must be a no-op")
	}
}
