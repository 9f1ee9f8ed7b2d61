package nn

import (
	"bprom/internal/tensor"
)

// Quantized inference. Model.Quantize converts the weight matrices of the
// matmul-bound layers (Dense, Conv2D) to the tensor package's per-channel
// int8 representation and drops their float64 Value/Grad tensors, shrinking
// the resident model several-fold and routing Infer through the int8 SWAR
// kernel (tensor.QMatMulInto). Quantization is derived state: it is never serialized (Save
// refuses), and the fp-exact path — simply not calling Quantize — remains
// the default everywhere bit-reproducibility matters (cmd/tables, the
// experiment harness, golden tests).
//
// A quantized model is inference-only: Infer/Predict/PredictClasses/
// Features stay pure and concurrent as before, but NewPass and the layer
// Backward methods panic, and Save returns an error. Biases and every other
// layer type (LayerNorm, activations, pooling) stay float64 — they are a
// vanishing fraction of both the bytes and the work.

// Precision labels for a model's weight representation, as advertised by
// the MLaaS model info endpoint.
const (
	PrecisionFP64 = "fp64"
	PrecisionInt8 = "int8"
)

// DefaultQuantMinWeights is the layer-size floor below which Quantize
// leaves a weight matrix in float64: tiny layers contribute nothing to
// bytes or throughput, but their quantization error is proportionally
// largest (per-channel ranges estimated from few values).
const DefaultQuantMinWeights = 1024

// walkLayers visits every layer in the stack, descending into Residual
// bodies.
func walkLayers(layers []Layer, f func(Layer)) {
	for _, l := range layers {
		if r, ok := l.(*Residual); ok {
			walkLayers(r.Body, f)
			continue
		}
		f(l)
	}
}

// Quantize converts every Dense and Conv2D layer holding at least
// minWeights weight scalars to per-channel int8 (minWeights 0 means
// DefaultQuantMinWeights; pass a negative value to quantize every layer).
// It returns the number of layers converted. If any layer converts, the
// model becomes inference-only; smaller layers and biases stay float64.
// Quantize is idempotent — already-converted layers are skipped.
func (m *Model) Quantize(minWeights int) int {
	if minWeights == 0 {
		minWeights = DefaultQuantMinWeights
	}
	converted := 0
	walkLayers(m.Layers, func(l Layer) {
		switch v := l.(type) {
		case *Dense:
			if v.Q != nil || v.W.Value == nil || v.W.Value.Len() < minWeights {
				return
			}
			v.Q = tensor.QuantizePerCol(v.W.Value)
			v.W.Value, v.W.Grad = nil, nil
			converted++
		case *Conv2D:
			if v.Q != nil || v.W.Value == nil || v.W.Value.Len() < minWeights {
				return
			}
			// Conv weights are [OutC, k]; the forward product col @ Wᵀ maps
			// onto the fast per-column kernel by quantizing the transpose
			// [k, OutC] — output channels stay the quantization channels.
			v.Q = tensor.QuantizePerCol(v.W.Value.Transpose())
			v.W.Value, v.W.Grad = nil, nil
			converted++
		}
	})
	if converted > 0 {
		m.quantized = true
	}
	return converted
}

// Quantized reports whether any layer has been converted to int8 (making
// the model inference-only).
func (m *Model) Quantized() bool { return m.quantized }

// Precision returns the label describing the model's weight representation:
// PrecisionInt8 once Quantize has converted at least one layer,
// PrecisionFP64 otherwise.
func (m *Model) Precision() string {
	if m.quantized {
		return PrecisionInt8
	}
	return PrecisionFP64
}

// WeightBytes returns the resident bytes held by parameter tensors:
// float64 Values and Grads at 8 bytes per scalar plus the quantized
// representations' actual footprint. This is the number the MLaaS registry
// charges against hot-set residency.
func (m *Model) WeightBytes() int {
	bytes := 0
	for _, p := range m.Params() {
		if p.Value != nil {
			bytes += 8 * p.Value.Len()
		}
		if p.Grad != nil {
			bytes += 8 * p.Grad.Len()
		}
	}
	walkLayers(m.Layers, func(l Layer) {
		switch v := l.(type) {
		case *Dense:
			if v.Q != nil {
				bytes += v.Q.Bytes()
			}
		case *Conv2D:
			if v.Q != nil {
				bytes += v.Q.Bytes()
			}
		}
	})
	return bytes
}

// quantWeightCount counts weight scalars held in int8 form, so ParamCount
// stays the architecture's parameter count regardless of representation.
func (m *Model) quantWeightCount() int {
	n := 0
	walkLayers(m.Layers, func(l Layer) {
		switch v := l.(type) {
		case *Dense:
			if v.Q != nil {
				s := v.Q.Shape()
				n += s[0] * s[1]
			}
		case *Conv2D:
			if v.Q != nil {
				s := v.Q.Shape()
				n += s[0] * s[1]
			}
		}
	})
	return n
}
