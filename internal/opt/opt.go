// Package opt provides the gradient-based optimizers used to train models
// and (in the white-box path) visual prompts: plain SGD, SGD with momentum,
// and Adam, plus global-norm gradient clipping.
package opt

import (
	"math"

	"bprom/internal/nn"
)

// Optimizer updates a fixed set of parameters from their accumulated
// gradients. Step consumes the gradients; callers zero them afterwards (the
// trainer does this).
type Optimizer interface {
	Step()
	// LR returns the current learning rate (after any schedule).
	LR() float64
	// SetLR overrides the base learning rate.
	SetLR(lr float64)
}

// SGD is stochastic gradient descent with optional momentum and weight decay.
type SGD struct {
	params   []*nn.Param
	lr       float64
	momentum float64
	decay    float64 // L2 weight decay coefficient
	velocity [][]float64
}

var _ Optimizer = (*SGD)(nil)

// NewSGD constructs an SGD optimizer over params.
func NewSGD(params []*nn.Param, lr, momentum, weightDecay float64) *SGD {
	s := &SGD{params: params, lr: lr, momentum: momentum, decay: weightDecay}
	if momentum > 0 {
		s.velocity = make([][]float64, len(params))
		for i, p := range params {
			s.velocity[i] = make([]float64, p.Value.Len())
		}
	}
	return s
}

func (s *SGD) Step() {
	for i, p := range s.params {
		v := p.Value.Data
		g := p.Grad.Data
		if s.momentum > 0 {
			vel := s.velocity[i]
			for j := range v {
				grad := g[j] + s.decay*v[j]
				vel[j] = s.momentum*vel[j] - s.lr*grad
				v[j] += vel[j]
			}
		} else {
			for j := range v {
				v[j] -= s.lr * (g[j] + s.decay*v[j])
			}
		}
	}
}

func (s *SGD) LR() float64      { return s.lr }
func (s *SGD) SetLR(lr float64) { s.lr = lr }

// Adam implements the Adam optimizer (Kingma & Ba) with bias correction.
type Adam struct {
	params []*nn.Param
	lr     float64
	beta1  float64
	beta2  float64
	eps    float64
	t      int
	m, v   [][]float64
}

var _ Optimizer = (*Adam)(nil)

// NewAdam constructs Adam with the canonical defaults β1=0.9, β2=0.999.
func NewAdam(params []*nn.Param, lr float64) *Adam {
	a := &Adam{params: params, lr: lr, beta1: 0.9, beta2: 0.999, eps: 1e-8}
	a.m = make([][]float64, len(params))
	a.v = make([][]float64, len(params))
	for i, p := range params {
		a.m[i] = make([]float64, p.Value.Len())
		a.v[i] = make([]float64, p.Value.Len())
	}
	return a
}

func (a *Adam) Step() {
	a.t++
	c1 := 1 - math.Pow(a.beta1, float64(a.t))
	c2 := 1 - math.Pow(a.beta2, float64(a.t))
	for i, p := range a.params {
		val := p.Value.Data
		g := p.Grad.Data
		m, v := a.m[i], a.v[i]
		for j := range val {
			m[j] = a.beta1*m[j] + (1-a.beta1)*g[j]
			v[j] = a.beta2*v[j] + (1-a.beta2)*g[j]*g[j]
			mh := m[j] / c1
			vh := v[j] / c2
			val[j] -= a.lr * mh / (math.Sqrt(vh) + a.eps)
		}
	}
}

func (a *Adam) LR() float64      { return a.lr }
func (a *Adam) SetLR(lr float64) { a.lr = lr }

// ClipGradNorm rescales all gradients so their concatenated L2 norm is at
// most maxNorm, returning the pre-clip norm. maxNorm <= 0 disables clipping.
func ClipGradNorm(params []*nn.Param, maxNorm float64) float64 {
	total := 0.0
	for _, p := range params {
		for _, g := range p.Grad.Data {
			total += g * g
		}
	}
	norm := math.Sqrt(total)
	if maxNorm <= 0 || norm <= maxNorm || norm == 0 {
		return norm
	}
	scale := maxNorm / norm
	for _, p := range params {
		p.Grad.Scale(scale)
	}
	return norm
}
