package nn

import (
	"fmt"
	"math"
	"sync"

	"bprom/internal/tensor"
)

// Arch identifies one of the architecture families built by this package.
type Arch string

// Architecture families. These are scaled-down pure-Go analogues of the
// networks in the paper.
const (
	ArchResNetLite    Arch = "resnetlite"    // analogue of ResNet18: residual blocks
	ArchMobileNetLite Arch = "mobilenetlite" // analogue of MobileNetV2: narrow bottlenecks
	ArchVitLite       Arch = "vitlite"       // analogue of MobileViT/Swin: patch tokens + mixing
	ArchConvLite      Arch = "convlite"      // small convolutional net (full-fidelity path)
)

// Model is a feed-forward classifier: a stack of layers whose final layer is
// a Dense head producing logits over NumClasses.
type Model struct {
	Arch       Arch
	InputDim   int // flattened per-sample input size
	NumClasses int
	Layers     []Layer

	// passes pools the recording Pass workspaces and workspaces the
	// inference arenas (workspace.go); the zero values are ready to use.
	passes     sync.Pool
	workspaces sync.Pool

	// quantized is set by Quantize once any layer holds int8 weights; the
	// model is then inference-only (NewPass panics, Save errors).
	quantized bool
}

// Infer runs the pure inference pass and returns logits of shape
// [N, NumClasses]. It never mutates the model, so a frozen model serves
// concurrent Infer calls. Like Predict, PredictClasses and Features it runs
// as row blocks (see predictBlock) and returns a caller-owned tensor.
func (m *Model) Infer(x *tensor.Tensor) *tensor.Tensor {
	return m.gather(m.Layers, x)
}

// Pass is a caller-owned workspace for one recording forward/backward pair.
// Obtain one with NewPass, run Forward then Backward, and Release it when
// the gradients have been consumed. Each Pass carries the per-layer
// activation caches, so separate Passes over one model never share state.
type Pass struct {
	m      *Model
	caches []Cache
}

// NewPass returns a workspace drawn from the model's pool. It panics on a
// quantized model: int8 layers have no gradient path, so recording passes
// are meaningless there.
func (m *Model) NewPass() *Pass {
	if m.quantized {
		panic("nn: NewPass on a quantized model (quantized models are inference-only)")
	}
	if p, ok := m.passes.Get().(*Pass); ok {
		p.m = m
		return p
	}
	return &Pass{m: m}
}

// Forward runs the recording pass and returns logits of shape
// [N, NumClasses]. train toggles training-only behaviour (dropout).
func (p *Pass) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	p.caches = p.caches[:0]
	h := x
	for _, l := range p.m.Layers {
		var c Cache
		h, c = l.Forward(h, train)
		p.caches = append(p.caches, c)
	}
	return h
}

// Backward propagates the loss gradient through all layers using the caches
// of the preceding Forward and returns dLoss/dInput, which visual-prompt
// training consumes. Parameter gradients accumulate into the shared Params,
// so concurrent Backward calls on one model must be synchronized by the
// caller.
func (p *Pass) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if len(p.caches) != len(p.m.Layers) {
		panic("nn: Pass.Backward without a matching Forward")
	}
	g := grad
	for i := len(p.m.Layers) - 1; i >= 0; i-- {
		g = p.m.Layers[i].Backward(p.caches[i], g)
	}
	return g
}

// Release drops the recorded activations and returns the workspace to the
// model's pool. The Pass must not be used afterwards.
func (p *Pass) Release() {
	m := p.m
	for i := range p.caches {
		p.caches[i] = nil
	}
	p.caches = p.caches[:0]
	p.m = nil
	m.passes.Put(p)
}

// Features returns the penultimate activations (input to the final Dense
// head) of shape [N, F]. Baseline defenses that analyze latent
// representations use this; BPROM itself never does. Pure, like Infer.
func (m *Model) Features(x *tensor.Tensor) *tensor.Tensor {
	return m.gather(m.Layers[:len(m.Layers)-1], x)
}

// Predict returns softmax probabilities of shape [N, NumClasses]. Pure,
// like Infer; results are bitwise identical to a single unblocked pass.
func (m *Model) Predict(x *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(x.Dim(0), m.NumClasses)
	m.PredictInto(out, x)
	return out
}

// PredictInto writes Predict(x)'s probabilities into dst, which must be
// [N, NumClasses] for N input rows; it panics otherwise. Each row block's
// logits are copied straight into dst and softmaxed there, so a caller that
// owns its output storage — the serving engine's audit path, a prompt
// search reusing one confidence tensor per generation — gets the same bits
// with no per-call allocation of its own.
func (m *Model) PredictInto(dst, x *tensor.Tensor) {
	k := m.NumClasses
	if dst.Rank() != 2 || dst.Dim(0) != x.Dim(0) || dst.Dim(1) != k {
		panic(fmt.Sprintf("nn: PredictInto destination %v for %d rows of %d classes", dst.Shape(), x.Dim(0), k))
	}
	m.forBlocks(m.Layers, x, func(r0 int, logits *tensor.Tensor) {
		if logits.Len() != logits.Dim(0)*k {
			panic(fmt.Sprintf("nn: model emits %v logits, NumClasses is %d", logits.Shape(), k))
		}
		rows := dst.Data[r0*k : r0*k+logits.Len()]
		copy(rows, logits.Data)
		softmaxRows(rows, k)
	})
}

// PredictClasses returns the argmax class for each sample. Pure, like Infer.
func (m *Model) PredictClasses(x *tensor.Tensor) []int {
	out := make([]int, x.Dim(0))
	m.forBlocks(m.Layers, x, func(r0 int, logits *tensor.Tensor) {
		for i := 0; i < logits.Dim(0); i++ {
			out[r0+i] = argmax(logits.Row(i))
		}
	})
	return out
}

// argmax returns the index of the largest value (first on ties).
func argmax(row []float64) int {
	best, bi := math.Inf(-1), 0
	for j, v := range row {
		if v > best {
			best, bi = v, j
		}
	}
	return bi
}

// Params returns all trainable parameters in layer order.
func (m *Model) Params() []*Param {
	var ps []*Param
	for _, l := range m.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ZeroGrad clears all parameter gradients.
func (m *Model) ZeroGrad() {
	for _, p := range m.Params() {
		p.Grad.Zero()
	}
}

// ParamCount returns the total number of parameter scalars in the
// architecture, independent of representation: weights held in int8 count
// the same as their float64 originals.
func (m *Model) ParamCount() int {
	n := m.quantWeightCount()
	for _, p := range m.Params() {
		n += p.Value.Len()
	}
	return n
}

// Validate checks structural invariants: a model must end in a Dense head
// whose width equals NumClasses and accept InputDim-wide inputs.
func (m *Model) Validate() error {
	if len(m.Layers) == 0 {
		return fmt.Errorf("nn: model has no layers")
	}
	head, ok := m.Layers[len(m.Layers)-1].(*Dense)
	if !ok {
		return fmt.Errorf("nn: model must end in a Dense head, got %T", m.Layers[len(m.Layers)-1])
	}
	if head.Out != m.NumClasses {
		return fmt.Errorf("nn: head width %d != NumClasses %d", head.Out, m.NumClasses)
	}
	if m.InputDim <= 0 {
		return fmt.Errorf("nn: non-positive InputDim %d", m.InputDim)
	}
	return nil
}

// SoftmaxInPlace converts each row of logits [N, K] into probabilities using
// the max-subtraction trick for numerical stability.
func SoftmaxInPlace(logits *tensor.Tensor) {
	softmaxRows(logits.Data, logits.Dim(1))
}

// softmaxRows is SoftmaxInPlace over flat rows of k values.
func softmaxRows(data []float64, k int) {
	if k <= 0 {
		return
	}
	for i := 0; i+k <= len(data); i += k {
		row := data[i : i+k]
		maxV := math.Inf(-1)
		for _, v := range row {
			if v > maxV {
				maxV = v
			}
		}
		sum := 0.0
		for j, v := range row {
			e := math.Exp(v - maxV)
			row[j] = e
			sum += e
		}
		inv := 1 / sum
		for j := range row {
			row[j] *= inv
		}
	}
}

// CrossEntropy computes mean softmax cross-entropy between logits [N, K] and
// integer labels, returning the loss and dLoss/dLogits (already averaged over
// the batch).
func CrossEntropy(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	n, k := logits.Dim(0), logits.Dim(1)
	if len(labels) != n {
		panic(fmt.Sprintf("nn: %d labels for batch of %d", len(labels), n))
	}
	probs := logits.Clone()
	SoftmaxInPlace(probs)
	loss := 0.0
	grad := probs // reuse: grad = probs - onehot(labels), scaled by 1/N
	invN := 1 / float64(n)
	for i := 0; i < n; i++ {
		y := labels[i]
		if y < 0 || y >= k {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", y, k))
		}
		p := probs.Data[i*k+y]
		loss -= math.Log(math.Max(p, 1e-12))
		row := grad.Data[i*k : (i+1)*k]
		for j := range row {
			row[j] *= invN
		}
		row[y] -= invN
	}
	return loss * invN, grad
}

// Accuracy returns the fraction of rows of logits whose argmax equals the
// label.
func Accuracy(logits *tensor.Tensor, labels []int) float64 {
	n, k := logits.Dim(0), logits.Dim(1)
	if n == 0 {
		return 0
	}
	correct := 0
	for i := 0; i < n; i++ {
		if argmax(logits.Data[i*k:(i+1)*k]) == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(n)
}

// small math indirections so layer code reads without the math import
func exp(v float64) float64  { return math.Exp(v) }
func sqrt(v float64) float64 { return math.Sqrt(v) }
