// Package nn implements the from-scratch neural-network substrate: layers
// with forward/backward passes, softmax cross-entropy, weight initialization,
// the three architecture families used in the paper's experiments
// (ResNetLite, MobileNetLite, VitLite — scaled-down analogues of ResNet18,
// MobileNetV2 and MobileViT/Swin), and binary model serialization.
//
// Two properties matter for the BPROM reproduction beyond ordinary training:
//
//   - Backward propagates gradients all the way to the *input*, because
//     visual-prompt training optimizes pixels of the prompt while the model
//     stays frozen.
//   - Models expose penultimate-layer Features, because several baseline
//     defenses (AC, SS, SCAn, SPECTRE) cluster latent representations.
//
// Concurrency model: the inference path (Infer, Predict, PredictClasses,
// Features) is pure — it never mutates layer state — so a frozen model
// serves any number of concurrent callers. The training path records
// per-call activations into a caller-owned Pass workspace; concurrent
// passes over one model are memory-safe, but concurrent Backward calls
// race on the shared parameter-gradient accumulators, so gradient work
// for a single model should stay single-flight (or synchronize steps).
//
// Parallelism has one level. The inference entry points run a batch as
// independent row blocks (see predictBlock), and row blocks are the only
// parallelism: a batch wider than one block is spread over the tensor
// package's shared worker pool block by block, every layer inside a block
// runs its kernel serially on the block's goroutine, and a batch of at most
// one block runs entirely on the caller. A narrow request is therefore
// single-threaded; its parallelism is the other requests running beside it.
// The pool is bounded (sized by GOMAXPROCS, see tensor.SetWorkers), so any
// number of concurrent callers compose without oversubscribing the machine.
// Callers add concurrency for throughput (many models, many requests), never
// per-op speed. Each block draws its activations from a pooled arena
// (workspace.go), so a warm pass allocates only the tensor it returns. The
// recording Forward/Backward path allocates per call and always uses the
// pool-dispatching kernels.
package nn

import (
	"fmt"
	"sync"

	"bprom/internal/rng"
	"bprom/internal/tensor"
)

// Param is one trainable tensor with its gradient accumulator.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

// Cache carries whatever one layer recorded during Forward for use by the
// matching Backward. Values are layer-specific and opaque to callers; a nil
// Cache is valid for layers that need nothing.
type Cache any

// Layer is a differentiable module. Infer is the pure inference pass;
// Forward/Backward form the recording pass, with all per-call state flowing
// through the returned Cache so one Layer instance serves concurrent calls.
type Layer interface {
	// Infer maps a batch to its output without recording anything and
	// without mutating the layer. Training-only behaviour (dropout) is off.
	Infer(x *tensor.Tensor) *tensor.Tensor
	// Forward maps a batch to its output and returns the cache Backward
	// needs. train toggles training-only behaviour (dropout).
	Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, Cache)
	// Backward consumes the cache of the matching Forward, receives
	// dLoss/dOutput and returns dLoss/dInput, adding parameter gradients
	// into Params' Grad tensors.
	Backward(cache Cache, grad *tensor.Tensor) *tensor.Tensor
	// Params returns the trainable parameters (possibly none).
	Params() []*Param
}

// --- Dense -------------------------------------------------------------------

// Dense is a fully connected layer: y = xW + b for x of shape [N, In].
// When Q is non-nil the layer is quantized: W's float64 tensors are dropped
// (Value and Grad nil), Infer multiplies through the int8 kernel, and the
// layer is inference-only (Backward panics). See Model.Quantize.
type Dense struct {
	In, Out int
	W       *Param // [In, Out]; Value/Grad nil once quantized
	B       *Param // [1, Out]; always float64
	Q       *tensor.QTensor
}

var _ Layer = (*Dense)(nil)

// NewDense constructs a dense layer with He-initialized weights.
func NewDense(in, out int, r *rng.RNG) *Dense {
	d := &Dense{
		In:  in,
		Out: out,
		W:   &Param{Name: "dense.w", Value: tensor.New(in, out), Grad: tensor.New(in, out)},
		B:   &Param{Name: "dense.b", Value: tensor.New(1, out), Grad: tensor.New(1, out)},
	}
	heInit(d.W.Value.Data, in, r)
	return d
}

func (d *Dense) Infer(x *tensor.Tensor) *tensor.Tensor { return d.infer(nil, x) }

func (d *Dense) infer(ws *workspace, x *tensor.Tensor) *tensor.Tensor {
	out := ws.tensor(x.Dim(0), d.Out)
	switch {
	case d.Q != nil && ws.isSerial():
		tensor.SerialQMatMulInto(out, x, d.Q)
	case d.Q != nil:
		tensor.QMatMulInto(out, x, d.Q)
	case ws.isSerial():
		tensor.SerialMatMulInto(out, x, d.W.Value)
	default:
		tensor.MatMulInto(out, x, d.W.Value)
	}
	// Elementwise tails stay on the shared entry points: they run inline
	// below 32Ki elements, which a predictBlock-row block of this package's
	// widths never reaches.
	tensor.AddRowVecInto(out, out, d.B.Value.Data)
	return out
}

func (d *Dense) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, Cache) {
	return d.Infer(x), x
}

func (d *Dense) Backward(cache Cache, grad *tensor.Tensor) *tensor.Tensor {
	if d.Q != nil {
		panic("nn: Backward on a quantized Dense layer (quantized models are inference-only)")
	}
	x := cache.(*tensor.Tensor)
	// dW += xᵀ grad ; db += column sums ; dx = grad Wᵀ
	dW := tensor.New(d.In, d.Out)
	tensor.MatMulTransAInto(dW, x, grad)
	tensor.AXPY(1, dW, d.W.Grad)
	sums := make([]float64, d.Out)
	tensor.ColSumsInto(sums, grad)
	for j, s := range sums {
		d.B.Grad.Data[j] += s
	}
	dx := tensor.New(grad.Dim(0), d.In)
	tensor.MatMulTransBInto(dx, grad, d.W.Value)
	return dx
}

func (d *Dense) Params() []*Param {
	if d.Q != nil {
		return []*Param{d.B} // W lives in Q; no trainable float64 weights
	}
	return []*Param{d.W, d.B}
}

// --- Activations ---------------------------------------------------------------

// ReLU is max(0, x).
type ReLU struct{}

var _ Layer = (*ReLU)(nil)

func (a *ReLU) Infer(x *tensor.Tensor) *tensor.Tensor { return a.infer(nil, x) }

func (a *ReLU) infer(ws *workspace, x *tensor.Tensor) *tensor.Tensor {
	out := ws.writable(x)
	for i, v := range out.Data {
		// Same bits as "if v <= 0 { v = 0 }" (NaN stays, -0 becomes +0)
		// without a branch that activations mispredict half the time.
		out.Data[i] = max(v, 0)
	}
	return out
}

func (a *ReLU) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, Cache) {
	return a.Infer(x), x
}

func (a *ReLU) Backward(cache Cache, grad *tensor.Tensor) *tensor.Tensor {
	x := cache.(*tensor.Tensor)
	dx := grad.Clone()
	for i := range dx.Data {
		if x.Data[i] <= 0 {
			dx.Data[i] = 0
		}
	}
	return dx
}

func (a *ReLU) Params() []*Param { return nil }

// Tanh is the hyperbolic-tangent activation.
type Tanh struct{}

var _ Layer = (*Tanh)(nil)

func (a *Tanh) Infer(x *tensor.Tensor) *tensor.Tensor { return a.infer(nil, x) }

func (a *Tanh) infer(ws *workspace, x *tensor.Tensor) *tensor.Tensor {
	out := ws.writable(x)
	out.Apply(tanh)
	return out
}

func (a *Tanh) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, Cache) {
	out := a.Infer(x)
	return out, out
}

// tanh is (e²ᵛ−1)/(e²ᵛ+1), saturated where the quotient has already rounded
// to exactly ±1: past v ≈ 354.9 e²ᵛ overflows and the formula is Inf/Inf.
func tanh(v float64) float64 {
	if v >= 20 {
		return 1
	}
	if v <= -20 {
		return -1
	}
	e2 := exp(2 * v)
	return (e2 - 1) / (e2 + 1)
}

func (a *Tanh) Backward(cache Cache, grad *tensor.Tensor) *tensor.Tensor {
	y := cache.(*tensor.Tensor)
	dx := grad.Clone()
	for i := range dx.Data {
		yv := y.Data[i]
		dx.Data[i] *= 1 - yv*yv
	}
	return dx
}

func (a *Tanh) Params() []*Param { return nil }

// --- Dropout -------------------------------------------------------------------

// Dropout zeroes a fraction Rate of activations during training and rescales
// the rest (inverted dropout). It is identity at inference time. The random
// stream is guarded by a mutex so concurrent training passes stay
// memory-safe (their mask draws interleave nondeterministically).
type Dropout struct {
	Rate float64

	mu  sync.Mutex
	rng *rng.RNG
}

var _ Layer = (*Dropout)(nil)

// NewDropout constructs a dropout layer with its own random stream.
func NewDropout(rate float64, r *rng.RNG) *Dropout {
	return &Dropout{Rate: rate, rng: r.Split("dropout")}
}

func (d *Dropout) Infer(x *tensor.Tensor) *tensor.Tensor { return x }

func (d *Dropout) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, Cache) {
	if !train || d.Rate <= 0 {
		return x, nil
	}
	out := x.Clone()
	mask := make([]float64, x.Len())
	keep := 1 - d.Rate
	inv := 1 / keep
	d.mu.Lock()
	for i := range mask {
		if d.rng.Float64() < keep {
			mask[i] = inv
		}
	}
	d.mu.Unlock()
	for i := range out.Data {
		out.Data[i] *= mask[i]
	}
	return out, mask
}

func (d *Dropout) Backward(cache Cache, grad *tensor.Tensor) *tensor.Tensor {
	if cache == nil {
		return grad
	}
	mask := cache.([]float64)
	dx := grad.Clone()
	for i := range dx.Data {
		dx.Data[i] *= mask[i]
	}
	return dx
}

func (d *Dropout) Params() []*Param { return nil }

// --- LayerNorm -------------------------------------------------------------------

// LayerNorm normalizes each row of an [N, F] batch to zero mean and unit
// variance, then applies a learned affine transform. It stabilizes the
// deeper VitLite stacks.
type LayerNorm struct {
	F       int
	Gamma   *Param // [1, F]
	Beta    *Param // [1, F]
	epsilon float64
}

var _ Layer = (*LayerNorm)(nil)

// layerNormCache records the normalized rows and per-row inverse stddev.
type layerNormCache struct {
	norm   *tensor.Tensor
	invStd []float64
}

// NewLayerNorm constructs a layer norm over feature width f.
func NewLayerNorm(f int) *LayerNorm {
	ln := &LayerNorm{
		F:       f,
		Gamma:   &Param{Name: "ln.gamma", Value: tensor.New(1, f), Grad: tensor.New(1, f)},
		Beta:    &Param{Name: "ln.beta", Value: tensor.New(1, f), Grad: tensor.New(1, f)},
		epsilon: 1e-5,
	}
	ln.Gamma.Value.Fill(1)
	return ln
}

// forward computes the output into a tensor from ws; when cc is non-nil it
// also records the normalized activations and inverse stddevs Backward needs.
func (l *LayerNorm) forward(ws *workspace, x *tensor.Tensor, cc *layerNormCache) *tensor.Tensor {
	n := x.Dim(0)
	var norm *tensor.Tensor
	var invStd []float64
	if cc != nil {
		norm = tensor.New(n, l.F)
		invStd = make([]float64, n)
		cc.norm, cc.invStd = norm, invStd
	}
	out := ws.tensor(n, l.F)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		mean := 0.0
		for _, v := range row {
			mean += v
		}
		mean /= float64(l.F)
		varSum := 0.0
		for _, v := range row {
			d := v - mean
			varSum += d * d
		}
		inv := 1 / sqrt(varSum/float64(l.F)+l.epsilon)
		or := out.Row(i)
		var nr []float64
		if norm != nil {
			invStd[i] = inv
			nr = norm.Row(i)
		}
		for j, v := range row {
			nv := (v - mean) * inv
			if nr != nil {
				nr[j] = nv
			}
			or[j] = nv*l.Gamma.Value.Data[j] + l.Beta.Value.Data[j]
		}
	}
	return out
}

func (l *LayerNorm) Infer(x *tensor.Tensor) *tensor.Tensor { return l.forward(nil, x, nil) }

func (l *LayerNorm) infer(ws *workspace, x *tensor.Tensor) *tensor.Tensor {
	return l.forward(ws, x, nil)
}

func (l *LayerNorm) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, Cache) {
	cc := &layerNormCache{}
	return l.forward(nil, x, cc), cc
}

func (l *LayerNorm) Backward(cache Cache, grad *tensor.Tensor) *tensor.Tensor {
	cc := cache.(*layerNormCache)
	n := grad.Dim(0)
	dx := tensor.New(n, l.F)
	f := float64(l.F)
	for i := 0; i < n; i++ {
		g := grad.Row(i)
		nr := cc.norm.Row(i)
		// accumulate parameter grads
		var sumG, sumGN float64
		for j := 0; j < l.F; j++ {
			gg := g[j] * l.Gamma.Value.Data[j]
			l.Gamma.Grad.Data[j] += g[j] * nr[j]
			l.Beta.Grad.Data[j] += g[j]
			sumG += gg
			sumGN += gg * nr[j]
		}
		inv := cc.invStd[i]
		dr := dx.Row(i)
		for j := 0; j < l.F; j++ {
			gg := g[j] * l.Gamma.Value.Data[j]
			dr[j] = inv * (gg - sumG/f - nr[j]*sumGN/f)
		}
	}
	return dx
}

func (l *LayerNorm) Params() []*Param { return []*Param{l.Gamma, l.Beta} }

// --- Residual -------------------------------------------------------------------

// Residual wraps a body computing y = x + body(x). Input and output shapes
// of the body must match — validated at Forward time.
type Residual struct {
	Body []Layer
}

var _ Layer = (*Residual)(nil)

func (r *Residual) Infer(x *tensor.Tensor) *tensor.Tensor { return r.infer(nil, x) }

func (r *Residual) infer(ws *workspace, x *tensor.Tensor) *tensor.Tensor {
	ws.keep() // the join reads x after the body has run
	return r.join(ws, x, ws.run(r.Body, x))
}

func (r *Residual) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, Cache) {
	caches := make([]Cache, len(r.Body))
	h := x
	for i, l := range r.Body {
		h, caches[i] = l.Forward(h, train)
	}
	return r.join(nil, x, h), caches
}

func (r *Residual) join(ws *workspace, x, h *tensor.Tensor) *tensor.Tensor {
	if !h.SameShape(x) {
		panic(fmt.Sprintf("nn: residual body changed shape %v -> %v", x.Shape(), h.Shape()))
	}
	out := ws.tensor(x.Shape()...)
	tensor.AddInto(out, x, h)
	return out
}

func (r *Residual) Backward(cache Cache, grad *tensor.Tensor) *tensor.Tensor {
	caches := cache.([]Cache)
	g := grad
	for i := len(r.Body) - 1; i >= 0; i-- {
		g = r.Body[i].Backward(caches[i], g)
	}
	dx := grad.Clone()
	tensor.AddInto(dx, dx, g)
	return dx
}

func (r *Residual) Params() []*Param {
	var ps []*Param
	for _, l := range r.Body {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// --- helpers -------------------------------------------------------------------

func heInit(w []float64, fanIn int, r *rng.RNG) {
	std := sqrt(2 / float64(fanIn))
	r.Gaussian(w, 0, std)
}
