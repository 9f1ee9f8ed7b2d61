// Package vp implements visual prompting (VP / model reprogramming): a
// frozen source-domain classifier is adapted to a target-domain task by
// resizing target images into an inner window of the source canvas and
// learning the surrounding border pixels θ (the visual prompt).
//
// Two training paths mirror the paper exactly:
//
//   - White-box (shadow models, §5.2 "Prompting Shadow Models"): θ is
//     trained by backpropagating the task loss through the frozen model to
//     its input pixels.
//   - Black-box (the suspicious model): θ is trained with CMA-ES using only
//     oracle confidence queries.
//
// Output label mapping O(·|w) is the identity over the first K_T source
// classes, as in the paper's experiments ("we omitted this step"), which
// requires K_T ≤ K_S.
package vp

import (
	"context"
	"fmt"
	"math"

	"bprom/internal/cmaes"
	"bprom/internal/data"
	"bprom/internal/nn"
	"bprom/internal/oracle"
	"bprom/internal/rng"
	"bprom/internal/tensor"
)

// Prompt is the visual prompt V(·|θ): geometry plus the trainable border.
type Prompt struct {
	// Source is the canvas geometry (the suspicious model's input domain).
	Source data.Shape
	// Inner is the side length of the centered window receiving the resized
	// target image.
	Inner int
	// Theta holds one value per border pixel (the canvas pixels outside the
	// inner window), in canvas scan order. Values live in [0,1]: border
	// pixels ARE the prompt.
	Theta []float64

	borderIdx []int // canvas indices owned by Theta, precomputed
	x0, y0    int   // inner window origin
}

// NewPrompt builds a prompt for adapting target-shaped images to a
// source-shaped model. innerFrac (0,1] controls the window size; the paper's
// setup resizes the target image to roughly 2/3 of the canvas. The channel
// counts must match.
func NewPrompt(source data.Shape, target data.Shape, innerFrac float64) (*Prompt, error) {
	if !source.Valid() || !target.Valid() {
		return nil, fmt.Errorf("vp: invalid shapes source=%+v target=%+v", source, target)
	}
	if source.C != target.C {
		return nil, fmt.Errorf("vp: channel mismatch source=%d target=%d", source.C, target.C)
	}
	if innerFrac <= 0 || innerFrac > 1 {
		return nil, fmt.Errorf("vp: innerFrac %v outside (0,1]", innerFrac)
	}
	inner := int(math.Round(innerFrac * float64(min(source.H, source.W))))
	if inner < 1 {
		inner = 1
	}
	p, err := newPromptGeometry(source, inner)
	if err != nil {
		return nil, err
	}
	for i := range p.Theta {
		p.Theta[i] = 0.5 // neutral gray start
	}
	return p, nil
}

// newPromptGeometry builds a prompt from its canonical geometry — the
// source canvas and the inner window side length — with Theta zeroed. Both
// NewPrompt and the artifact decoder (serialize.go) derive the border index
// set from this one function, so a deserialized prompt is geometrically
// identical to a freshly constructed one.
func newPromptGeometry(source data.Shape, inner int) (*Prompt, error) {
	if inner < 1 || inner >= min(source.H, source.W) {
		return nil, fmt.Errorf("vp: inner window %d leaves no border on %dx%d canvas", inner, source.H, source.W)
	}
	p := &Prompt{
		Source: source,
		Inner:  inner,
		x0:     (source.W - inner) / 2,
		y0:     (source.H - inner) / 2,
	}
	for c := 0; c < source.C; c++ {
		off := c * source.H * source.W
		for y := 0; y < source.H; y++ {
			for x := 0; x < source.W; x++ {
				if x >= p.x0 && x < p.x0+inner && y >= p.y0 && y < p.y0+inner {
					continue
				}
				p.borderIdx = append(p.borderIdx, off+y*source.W+x)
			}
		}
	}
	p.Theta = make([]float64, len(p.borderIdx))
	return p, nil
}

// Dim returns the number of trainable prompt parameters.
func (p *Prompt) Dim() int { return len(p.Theta) }

// Clone deep-copies the prompt (geometry shared, Theta copied).
func (p *Prompt) Clone() *Prompt {
	c := *p
	c.Theta = append([]float64(nil), p.Theta...)
	return &c
}

// Apply writes the prompted canvas for one target image into dst
// (len Source.Dim()): the image resized into the inner window, θ on the
// border.
func (p *Prompt) Apply(dst, img []float64, imgShape data.Shape) {
	inner := data.Shape{C: p.Source.C, H: p.Inner, W: p.Inner}
	resized := make([]float64, inner.Dim())
	data.ResizeImage(img, imgShape, resized, inner)
	p.applyResized(dst, resized)
}

func (p *Prompt) applyResized(dst, resized []float64) {
	p.fillBorder(dst, p.Theta)
	p.copyWindow(dst, resized)
}

// Batch materializes prompted canvases for the given samples of ds as an
// [len(idx), Source.Dim()] tensor.
func (p *Prompt) Batch(ds *data.Dataset, idx []int) *tensor.Tensor {
	out := tensor.New(len(idx), p.Source.Dim())
	inner := data.Shape{C: p.Source.C, H: p.Inner, W: p.Inner}
	resized := make([]float64, inner.Dim())
	for bi, i := range idx {
		data.ResizeImage(ds.Sample(i), ds.Shape, resized, inner)
		p.applyResized(out.Data[bi*p.Source.Dim():(bi+1)*p.Source.Dim()], resized)
	}
	return out
}

// clampTheta keeps prompt pixels valid after a gradient step.
func (p *Prompt) clampTheta() {
	for i, v := range p.Theta {
		p.Theta[i] = clamp01(v)
	}
}

// --- White-box prompt training -------------------------------------------------------

// WhiteBoxConfig controls gradient-based prompt training on an owned model.
type WhiteBoxConfig struct {
	Epochs    int     // default 8
	BatchSize int     // default 32
	LR        float64 // default 0.5 (θ is low-dimensional and bounded)
	Momentum  float64 // default 0.9
}

func (c *WhiteBoxConfig) defaults() {
	if c.Epochs <= 0 {
		c.Epochs = 8
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.LR <= 0 {
		c.LR = 0.5
	}
	if c.Momentum == 0 {
		c.Momentum = 0.9
	}
}

// TrainWhiteBox optimizes p.Theta by backpropagating through the frozen
// model (its weights are never updated). Labels map identically onto the
// first K_T source classes; it errors when the target task has more classes
// than the source model.
func TrainWhiteBox(ctx context.Context, model *nn.Model, p *Prompt, train *data.Dataset, cfg WhiteBoxConfig, r *rng.RNG) error {
	cfg.defaults()
	if train.Classes > model.NumClasses {
		return fmt.Errorf("vp: target task has %d classes, source model only %d", train.Classes, model.NumClasses)
	}
	if p.Source.Dim() != model.InputDim {
		return fmt.Errorf("vp: prompt canvas %d != model input %d", p.Source.Dim(), model.InputDim)
	}
	if train.Len() == 0 {
		return fmt.Errorf("vp: empty prompt training set")
	}
	vel := make([]float64, p.Dim())
	n := train.Len()
	pass := model.NewPass()
	defer pass.Release()
	// Candidate-invariant work is hoisted out of the epoch loop: every
	// image is resized into the inner window once (the old path re-resized
	// each image every epoch), and one pooled canvas is reused across
	// batches. The materialized pixels are bit-identical to the old
	// per-batch Prompt.Batch, so θ's trajectory is unchanged.
	windows := NewWindows(p, train)
	dim := p.Source.Dim()
	bs := cfg.BatchSize
	if bs > n {
		bs = n
	}
	buf := getCanvas(bs * dim)
	defer putCanvas(buf)
	y := make([]int, bs)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		perm := r.Perm(n)
		for start := 0; start < n; start += cfg.BatchSize {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("vp: aborted: %w", err)
			}
			end := start + cfg.BatchSize
			if end > n {
				end = n
			}
			idx := perm[start:end]
			x := tensor.FromSlice((*buf)[:len(idx)*dim], len(idx), dim)
			p.materializeInto(x, 0, p.Theta, windows.resized, idx)
			yb := y[:len(idx)]
			for bi, i := range idx {
				yb[bi] = train.Y[i]
			}
			logits := pass.Forward(x, false)
			_, grad := nn.CrossEntropy(logits, yb)
			dx := pass.Backward(grad)
			// Accumulate input gradient onto θ (sum over batch rows at the
			// border positions) and take a momentum SGD step.
			for ti, bi := range p.borderIdx {
				g := 0.0
				for row := 0; row < len(idx); row++ {
					g += dx.Data[row*p.Source.Dim()+bi]
				}
				vel[ti] = cfg.Momentum*vel[ti] - cfg.LR*g
				p.Theta[ti] += vel[ti]
			}
			p.clampTheta()
		}
	}
	return nil
}

// --- Black-box prompt training --------------------------------------------------------

// BlackBoxConfig controls CMA-ES prompt training against an oracle.
type BlackBoxConfig struct {
	// Iterations bounds CMA-ES generations. Default 40.
	Iterations int
	// PopSize is the CMA-ES population (default from dimension).
	PopSize int
	// BatchSize is the number of target samples per objective evaluation.
	// Default 24.
	BatchSize int
	// Sigma0 is the initial CMA-ES step. Default 0.15 (pixels are in [0,1]).
	Sigma0 float64
	// MaxQueries bounds total oracle sample queries (0 = unlimited).
	MaxQueries int
	// UseSPSA switches to SPSA (ablation).
	UseSPSA bool
	// OnGeneration, when non-nil, is invoked after every completed CMA-ES
	// generation with the 1-based generation count — the progress hook
	// behind live audit-job reporting. Ignored by SPSA. Not persisted in
	// detector artifacts.
	OnGeneration func(gen int)
	// OnCheckpoint, when non-nil, is invoked after every completed CMA-ES
	// generation with a deep-copied snapshot of the resumable search state
	// (optimizer + mini-batch RNG). Feeding the snapshot back through
	// Resume continues the search bit-exactly — same θ, same oracle query
	// sequence — which is how the journaled job store survives restarts.
	// Not supported by SPSA. Not persisted in detector artifacts.
	OnCheckpoint func(st *SearchState)
	// Resume, when non-nil, restarts the search from an OnCheckpoint
	// snapshot instead of from scratch. The caller must supply the same
	// prompt geometry, training set, and config as the original run. Not
	// supported by SPSA. Not persisted in detector artifacts.
	Resume *SearchState
}

func (c *BlackBoxConfig) defaults() {
	if c.Iterations <= 0 {
		c.Iterations = 40
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 24
	}
	if c.Sigma0 <= 0 {
		c.Sigma0 = 0.15
	}
}

// Generations reports the resolved CMA-ES generation budget (the configured
// Iterations, or the default when unset) — the denominator of audit-job
// progress.
func (c BlackBoxConfig) Generations() int {
	c.defaults()
	return c.Iterations
}

// TrainBlackBox optimizes p.Theta using only oracle queries: the objective
// is the mini-batch cross-entropy of the oracle's confidences against the
// identity label mapping, minimized by sep-CMA-ES (or SPSA). This is the
// only access BPROM has to the suspicious model.
//
// The CMA-ES path is generation-batched: every training image is resized
// into the inner window once (NewWindows), each generation's λ×k prompted
// canvases are materialized into one pooled tensor, and the oracle sees one
// fused query per generation. The result — learned θ and oracle query
// count alike — is bit-identical to scoring each candidate with
// serialObjective, which the parity test pins.
func TrainBlackBox(ctx context.Context, o oracle.Oracle, p *Prompt, train *data.Dataset, cfg BlackBoxConfig, r *rng.RNG) error {
	return trainBlackBox(ctx, o, p, train, nil, cfg, r)
}

// TrainBlackBoxWindows is TrainBlackBox on the dataset windows were built
// from, reading the inner-window images from windows instead of resizing
// the training set for this call: for a caller that prompts many oracles on
// one training set (bprom.Detector builds its windows once and reuses them
// for every audit). windows must have been built for p's geometry.
func TrainBlackBoxWindows(ctx context.Context, o oracle.Oracle, p *Prompt, windows *Windows, cfg BlackBoxConfig, r *rng.RNG) error {
	if err := windows.fits(p); err != nil {
		return err
	}
	return trainBlackBox(ctx, o, p, windows.ds, windows, cfg, r)
}

// trainBlackBox is TrainBlackBox with optional prebuilt windows (nil: the
// CMA-ES path builds its own).
func trainBlackBox(ctx context.Context, o oracle.Oracle, p *Prompt, train *data.Dataset, windows *Windows, cfg BlackBoxConfig, r *rng.RNG) error {
	cfg.defaults()
	if train.Classes > o.NumClasses() {
		return fmt.Errorf("vp: target task has %d classes, oracle only %d", train.Classes, o.NumClasses())
	}
	if p.Source.Dim() != o.InputDim() {
		return fmt.Errorf("vp: prompt canvas %d != oracle input %d", p.Source.Dim(), o.InputDim())
	}
	if train.Len() == 0 {
		return fmt.Errorf("vp: empty prompt training set")
	}
	if cfg.UseSPSA && (cfg.Resume != nil || cfg.OnCheckpoint != nil) {
		return fmt.Errorf("vp: SPSA path does not support checkpoint/resume")
	}
	// Split order matters for determinism: the parent RNG advances once per
	// Split, so resume must perform the same splits as the original run and
	// only then overwrite the child states from the snapshot.
	batchRNG := r.Split("batches")
	if cfg.Resume != nil {
		batchRNG.SetState(cfg.Resume.BatchRNG)
	}
	var oracleErr error
	k := cfg.BatchSize
	if n := train.Len(); k > n {
		k = n
	}
	// A generation evaluated after the oracle failed (or the context was
	// cancelled mid-run) scored every candidate +Inf: the optimizer update
	// after it is garbage, and checkpointing it would poison a resumed run.
	// Gate both per-generation hooks on a healthy evaluation.
	aborted := func() bool { return oracleErr != nil || ctx.Err() != nil }
	opt := cmaes.Options{
		Sigma0:   cfg.Sigma0,
		PopSize:  cfg.PopSize,
		MaxIters: cfg.Iterations,
		Lo:       0,
		Hi:       1,
	}
	if cfg.OnGeneration != nil {
		opt.OnIter = func(gen int) {
			if !aborted() {
				cfg.OnGeneration(gen)
			}
		}
	}
	if cfg.Resume != nil {
		opt.Resume = &cfg.Resume.CMA
	}
	if cfg.OnCheckpoint != nil {
		opt.OnState = func(st *cmaes.SepState) {
			if aborted() {
				return
			}
			cfg.OnCheckpoint(&SearchState{CMA: *st, BatchRNG: batchRNG.State()})
		}
	}
	if cfg.MaxQueries > 0 {
		opt.MaxEvals = cfg.MaxQueries / cfg.BatchSize
		if opt.MaxEvals < 1 {
			opt.MaxEvals = 1
		}
	}
	var best []float64
	if cfg.UseSPSA {
		objective := serialObjective(ctx, o, p.Clone(), train, k, batchRNG, &oracleErr)
		spsaOpt := cmaes.Options{Lo: 0, Hi: 1, MaxEvals: opt.MaxEvals}
		res := cmaes.SPSA(ctx, objective, p.Theta, cfg.Iterations*10, 0.2, 0.05, spsaOpt, r.Split("spsa"))
		best = res.Best
	} else {
		if windows == nil {
			windows = NewWindows(p, train)
		}
		ev := &genEvaluator{
			ctx:      ctx,
			oracle:   o,
			prompt:   p,
			windows:  windows,
			k:        k,
			batchRNG: batchRNG,
			errp:     &oracleErr,
		}
		opt.Evaluate = ev.evaluate
		res, err := cmaes.MinimizeSep(nil, p.Theta, opt, r.Split("cmaes"))
		if err != nil {
			return fmt.Errorf("vp: black-box prompt optimization: %w", err)
		}
		best = res.Best
	}
	if oracleErr != nil {
		return fmt.Errorf("vp: oracle failed during prompting: %w", oracleErr)
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("vp: aborted: %w", err)
	}
	copy(p.Theta, best)
	p.clampTheta()
	return nil
}

// serialObjective scores one candidate θ per call: draw a k-sample
// mini-batch from batchRNG, prompt it on work (a scratch prompt the
// objective overwrites), query the oracle once, and return the mean
// cross-entropy against the identity label mapping. SPSA — per-candidate by
// construction — runs on it, and it is the reference the generation-batched
// evaluator is held bit-identical to. The first oracle failure lands in
// *errp; from then on (and once ctx is done) every candidate scores +Inf.
func serialObjective(ctx context.Context, o oracle.Oracle, work *Prompt, train *data.Dataset, k int, batchRNG *rng.RNG, errp *error) cmaes.Objective {
	return func(theta []float64) float64 {
		if *errp != nil || ctx.Err() != nil {
			return math.Inf(1)
		}
		copy(work.Theta, theta)
		idx := batchRNG.Sample(train.Len(), k)
		probs := tensor.New(k, o.NumClasses())
		if err := oracle.PredictInto(ctx, o, probs, work.Batch(train, idx)); err != nil {
			*errp = err
			return math.Inf(1)
		}
		loss := 0.0
		for bi, i := range idx {
			pTrue := probs.At(bi, train.Y[i])
			loss -= math.Log(math.Max(pTrue, 1e-12))
		}
		return loss / float64(k)
	}
}

// --- Prompted model ---------------------------------------------------------------------

// Prompted couples an oracle with a trained prompt, forming the prompted
// model f̃ = f ∘ V(·|θ): it classifies target-domain inputs.
type Prompted struct {
	Oracle oracle.Oracle
	Prompt *Prompt
}

// Confidences returns the oracle's confidence vectors for the prompted
// versions of the given target samples — the raw material of BPROM's
// meta-features. Canvases are materialized into pooled scratch and streamed
// in promptChunk-row batches (chunking is invisible to results and query
// accounting).
func (pm *Prompted) Confidences(ctx context.Context, ds *data.Dataset, idx []int) (*tensor.Tensor, error) {
	return predictPrompted(ctx, pm.Oracle, pm.Prompt, ds, idx)
}

// Accuracy evaluates prompted-task accuracy on ds under the identity label
// mapping — the quantity whose degradation signals class subspace
// inconsistency (paper Tables 2–4).
func (pm *Prompted) Accuracy(ctx context.Context, ds *data.Dataset) (float64, error) {
	if ds.Len() == 0 {
		return 0, fmt.Errorf("vp: empty evaluation set")
	}
	idx := make([]int, ds.Len())
	for i := range idx {
		idx[i] = i
	}
	probs, err := predictPrompted(ctx, pm.Oracle, pm.Prompt, ds, idx)
	if err != nil {
		return 0, err
	}
	k := probs.Dim(1)
	correct := 0
	for i := 0; i < ds.Len(); i++ {
		row := probs.Data[i*k : (i+1)*k]
		best, bj := math.Inf(-1), 0
		for j, v := range row {
			if v > best {
				best, bj = v, j
			}
		}
		if bj == ds.Y[i] {
			correct++
		}
	}
	return float64(correct) / float64(ds.Len()), nil
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
