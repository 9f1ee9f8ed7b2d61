package vp

// Inline request screening: the serving-time flip of the paper's setting.
// BPROM trains a prompt that separates backdoored from clean MODELS; Stein
// et al. (arXiv 2412.08755) observe the same learned prompts also expose
// backdoored INPUTS — a trigger is engineered to dominate the model's
// decision, so it survives being resized into the prompt's inner window,
// while the benign signal of a clean input diffuses against the learned
// border. A Screener carries one trained prompt plus a decision threshold
// and scores individual serving inputs: high score = the prompted view
// still classifies confidently AND agrees with the plain prediction, the
// STRIP-style entropy collapse that marks trigger-carrying inputs
// (internal/defense/input_level.go measures the same observable offline).
//
// The screener is deliberately inference-only: scoring row i needs exactly
// two confidence rows — the plain input and its prompted view — from ANY
// oracle-equivalent forward pass. The serving engine
// (internal/mlaas) fuses the prompted views into the same micro-batched
// Predict tick as the plain rows, so screening rides the existing forward
// pass instead of doubling inference calls.

import (
	"fmt"
	"math"

	"bprom/internal/data"
	"bprom/internal/nn"
	"bprom/internal/tensor"
)

// DefaultScreenThreshold is the flagging threshold used when a Screener is
// built with a non-positive one. Scores live in [0,1]; clean inputs under a
// trained prompt typically land well below this, trigger-carrying inputs
// near 1.
const DefaultScreenThreshold = 0.7

// ScreenResult is one input row's screening outcome.
type ScreenResult struct {
	// Score is the suspicion score in [0,1]: the mean of (a) the prompted
	// view's confidence in the plain prediction's class and (b) one minus
	// the prompted view's normalized entropy.
	Score float64
	// Flagged reports Score >= Threshold.
	Flagged bool
	// Threshold echoes the screener's decision threshold.
	Threshold float64
}

// Screener scores serving inputs with a trained visual prompt. It is
// immutable after construction and safe for concurrent use: every scoring
// method allocates its own scratch.
type Screener struct {
	prompt    *Prompt
	threshold float64
	inner     data.Shape
}

// NewScreener builds a screener over a trained prompt. threshold is the
// flagging cutoff in (0,1]; non-positive means DefaultScreenThreshold.
func NewScreener(p *Prompt, threshold float64) (*Screener, error) {
	if p == nil || p.Dim() == 0 {
		return nil, fmt.Errorf("vp: screener needs a trained prompt")
	}
	if threshold <= 0 {
		threshold = DefaultScreenThreshold
	}
	if threshold > 1 {
		return nil, fmt.Errorf("vp: screening threshold %v outside (0,1]", threshold)
	}
	return &Screener{
		prompt:    p.Clone(),
		threshold: threshold,
		inner:     data.Shape{C: p.Source.C, H: p.Inner, W: p.Inner},
	}, nil
}

// InputDim reports the input width the screener expects — the prompt's
// source canvas. Models with a different input width cannot be screened.
func (s *Screener) InputDim() int { return s.prompt.Source.Dim() }

// Threshold reports the flagging cutoff.
func (s *Screener) Threshold() float64 { return s.threshold }

// Prompt returns a copy of the screening prompt (analysis, artifacts).
func (s *Screener) Prompt() *Prompt { return s.prompt.Clone() }

// MaterializeInto writes the prompted view of every row of src — the row
// resized into the prompt's inner window, learned border around it — into
// rows [row0, row0+src.Dim(0)) of x. src rows must be full source-canvas
// images (InputDim wide); x must be at least as wide and tall enough.
// This is the fusion hook: the serving engine appends these rows to a
// micro-batch tensor so one forward pass covers plain rows and prompted
// views alike.
func (s *Screener) MaterializeInto(x *tensor.Tensor, row0 int, src *tensor.Tensor) {
	n := src.Dim(0)
	if n == 0 {
		return
	}
	dim := s.prompt.Source.Dim()
	resized := make([]float64, s.inner.Dim())
	window := func(i int) []float64 {
		data.ResizeImage(src.Data[i*dim:(i+1)*dim], s.prompt.Source, resized, s.inner)
		return resized
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	s.prompt.materializeInto(x, row0, s.prompt.Theta, window, idx)
}

// Score folds one row's plain and prompted confidence vectors into its
// screening outcome. Both rows must come from the same model (same class
// count). The score averages two trigger observables: the prompted view's
// confidence in the plain argmax class (a surviving trigger keeps hijacking
// the same class) and the prompted view's entropy collapse (1 - H/ln K —
// clean inputs diffuse to high entropy under the prompt).
func (s *Screener) Score(plain, prompted []float64) ScreenResult {
	arg := 0
	best := math.Inf(-1)
	for j, v := range plain {
		if v > best {
			best, arg = v, j
		}
	}
	agree := prompted[arg]
	concentration := 1.0
	if k := len(prompted); k > 1 {
		h := 0.0
		for _, v := range prompted {
			if v > 0 {
				h -= v * math.Log(v)
			}
		}
		concentration = 1 - h/math.Log(float64(k))
	}
	score := 0.5*agree + 0.5*concentration
	return ScreenResult{Score: score, Flagged: score >= s.threshold, Threshold: s.threshold}
}

// Screen scores a batch the reference way: one forward pass for the plain
// rows and one for their prompted views, then per-row Score. The fused
// serving path must agree with this bit-for-bit (nn.Model.Predict outputs
// are row-independent, so fusing the two passes into one tensor changes
// nothing); the parity tests hold the two together.
func (s *Screener) Screen(model *nn.Model, x *tensor.Tensor) []ScreenResult {
	n := x.Dim(0)
	plain := model.Predict(x)
	views := tensor.New(n, s.prompt.Source.Dim())
	s.MaterializeInto(views, 0, x)
	prompted := model.Predict(views)
	k := plain.Dim(1)
	out := make([]ScreenResult, n)
	for i := 0; i < n; i++ {
		out[i] = s.Score(plain.Data[i*k:(i+1)*k], prompted.Data[i*k:(i+1)*k])
	}
	return out
}
