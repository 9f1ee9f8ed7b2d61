package nn

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"bprom/internal/rng"
	"bprom/internal/tensor"
)

// Quantized-model parity battery. The contract Model.Quantize must honor:
// bounded confidence error against the fp model (quantConfBudget), argmax
// agreement wherever the fp prediction is not a coin flip, bitwise
// determinism under batching/parallelism, strict inference-only guards, and
// complete isolation from the fp path (quantizing one model never perturbs
// another, and the fp path itself stays bit-identical to the goldens —
// golden_test.go keeps asserting that independently).

// quantConfBudget bounds max |Δconfidence| between a model's fp and int8
// softmax outputs in these tests. Per-channel 8-bit quantization on the
// small test stacks lands well inside it; a kernel or correction-term bug
// lands far outside.
const quantConfBudget = 0.05

// cloneModel round-trips m through the serializer, yielding an independent
// fp copy (the idiom callers use to quantize without giving up the fp
// original).
func cloneModel(t *testing.T, m *Model) *Model {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	c, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func buildArch(t *testing.T, arch Arch, seed uint64) *Model {
	t.Helper()
	m, err := Build(ArchConfig{Arch: arch, C: 3, H: 8, W: 8, NumClasses: 5, Hidden: 16}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestQuantizeInferParity: every architecture family, fp vs int8 — bounded
// confidence deltas, and argmax agreement on every row where the fp margin
// between top-1 and top-2 exceeds twice the budget (closer calls may
// legitimately flip).
func TestQuantizeInferParity(t *testing.T) {
	for _, arch := range []Arch{ArchResNetLite, ArchMobileNetLite, ArchVitLite, ArchConvLite} {
		t.Run(string(arch), func(t *testing.T) {
			m := buildArch(t, arch, 11)
			q := cloneModel(t, m)
			if n := q.Quantize(-1); n == 0 {
				t.Fatal("Quantize(-1) converted no layers")
			}

			x := tensor.New(24, m.InputDim)
			rng.New(13).Uniform(x.Data, 0, 1)
			fp := m.Predict(x)
			qp := q.Predict(x)

			maxDelta := 0.0
			for i := range fp.Data {
				if d := math.Abs(fp.Data[i] - qp.Data[i]); d > maxDelta {
					maxDelta = d
				}
			}
			if maxDelta > quantConfBudget {
				t.Fatalf("max |Δconfidence| = %g exceeds budget %g", maxDelta, quantConfBudget)
			}

			k := m.NumClasses
			for i := 0; i < fp.Dim(0); i++ {
				row := fp.Data[i*k : (i+1)*k]
				top, second, arg := -1.0, -1.0, 0
				for j, v := range row {
					if v > top {
						second, top, arg = top, v, j
					} else if v > second {
						second = v
					}
				}
				if top-second <= 2*quantConfBudget {
					continue // fp itself is near a tie; a flip is legitimate
				}
				qrow := qp.Data[i*k : (i+1)*k]
				qarg := 0
				for j, v := range qrow {
					if v > qrow[qarg] {
						qarg = j
					}
				}
				if qarg != arg {
					t.Fatalf("row %d: argmax flipped %d -> %d despite fp margin %g", i, arg, qarg, top-second)
				}
			}
		})
	}
}

// TestQuantizedPredictDeterminism: the quantized Predict must be bitwise
// invariant under predictBlock splitting and pool width — the same
// contract the fp path has, required for micro-batch coalescing to stay
// invisible.
func TestQuantizedPredictDeterminism(t *testing.T) {
	defer tensor.SetWorkers(0)
	m := buildArch(t, ArchResNetLite, 17)
	m.Quantize(-1)

	x := tensor.New(40, m.InputDim) // wider than predictBlock: exercises row-block splitting
	rng.New(19).Uniform(x.Data, 0, 1)

	tensor.SetWorkers(1)
	serial := m.Predict(x)
	// Single pass, no row blocks, one worker: the reference output.
	rowByRow := tensor.New(40, m.NumClasses)
	for i := 0; i < 40; i++ {
		sub := tensor.FromSlice(x.Row(i), 1, m.InputDim)
		logits := m.Infer(sub)
		SoftmaxInPlace(logits)
		copy(rowByRow.Data[i*m.NumClasses:(i+1)*m.NumClasses], logits.Data)
	}
	tensor.SetWorkers(8)
	parallel := m.Predict(x)

	for i := range serial.Data {
		if serial.Data[i] != parallel.Data[i] {
			t.Fatalf("element %d: serial %v != parallel %v", i, serial.Data[i], parallel.Data[i])
		}
		if serial.Data[i] != rowByRow.Data[i] {
			t.Fatalf("element %d: batched %v != row-by-row %v", i, serial.Data[i], rowByRow.Data[i])
		}
	}
}

// TestQuantizeThreshold: layers under the weight floor stay fp, so a model
// of only tiny layers is untouched (and stays trainable), while Quantize(0)
// converts layers at or above DefaultQuantMinWeights.
func TestQuantizeThreshold(t *testing.T) {
	r := rng.New(23)
	m := &Model{
		Arch:       ArchConvLite,
		InputDim:   64,
		NumClasses: 4,
		Layers: []Layer{
			NewDense(64, 32, r), // 2048 weights: above the floor
			&ReLU{},
			NewDense(32, 4, r), // 128 weights: below the floor
		},
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if n := m.Quantize(0); n != 1 {
		t.Fatalf("Quantize(0) converted %d layers, want 1", n)
	}
	if m.Layers[0].(*Dense).Q == nil {
		t.Fatal("large layer not quantized")
	}
	if head := m.Layers[2].(*Dense); head.Q != nil || head.W.Value == nil {
		t.Fatal("small head should have stayed fp")
	}
	if !m.Quantized() {
		t.Fatal("Quantized() = false after converting a layer")
	}

	tiny := &Model{
		Arch: ArchConvLite, InputDim: 8, NumClasses: 2,
		Layers: []Layer{NewDense(8, 2, r)},
	}
	if n := tiny.Quantize(0); n != 0 {
		t.Fatalf("tiny model: Quantize(0) converted %d layers, want 0", n)
	}
	if tiny.Quantized() {
		t.Fatal("tiny model must stay fp and trainable")
	}
	tiny.NewPass().Release() // must not panic: nothing was converted
}

// TestQuantizeIdempotent: a second Quantize finds nothing left to convert.
func TestQuantizeIdempotent(t *testing.T) {
	m := buildArch(t, ArchResNetLite, 29)
	first := m.Quantize(-1)
	if first == 0 {
		t.Fatal("first Quantize converted nothing")
	}
	if again := m.Quantize(-1); again != 0 {
		t.Fatalf("second Quantize converted %d layers, want 0", again)
	}
	if !m.Quantized() {
		t.Fatal("Quantized() = false after a second Quantize")
	}
}

// TestQuantizeInferenceOnlyGuards: NewPass panics, layer Backward panics,
// Save errors — the three doors into state a quantized model no longer has.
func TestQuantizeInferenceOnlyGuards(t *testing.T) {
	m := buildArch(t, ArchConvLite, 31)
	m.Quantize(-1)

	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("NewPass on a quantized model should panic")
			}
			if !strings.Contains(r.(string), "inference-only") {
				t.Fatalf("panic %q does not explain inference-only", r)
			}
		}()
		m.NewPass()
	}()

	var dense *Dense
	walkLayers(m.Layers, func(l Layer) {
		if d, ok := l.(*Dense); ok && d.Q != nil && dense == nil {
			dense = d
		}
	})
	if dense == nil {
		t.Fatal("no quantized Dense layer found")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Backward on a quantized Dense should panic")
			}
		}()
		dense.Backward(tensor.New(1, dense.In), tensor.New(1, dense.Out))
	}()

	var buf bytes.Buffer
	if err := m.Save(&buf); err == nil {
		t.Fatal("Save of a quantized model should error")
	} else if !strings.Contains(err.Error(), "quantized") {
		t.Fatalf("Save error %q does not mention quantization", err)
	}
}

// TestQuantizeFPIsolation: quantizing a clone must not perturb the original
// — same outputs bit for bit before and after.
func TestQuantizeFPIsolation(t *testing.T) {
	m := buildArch(t, ArchMobileNetLite, 37)
	x := tensor.New(6, m.InputDim)
	rng.New(41).Uniform(x.Data, 0, 1)
	before := m.Predict(x)

	q := cloneModel(t, m)
	q.Quantize(-1)
	_ = q.Predict(x)

	after := m.Predict(x)
	for i := range before.Data {
		if before.Data[i] != after.Data[i] {
			t.Fatalf("fp model perturbed at element %d: %v -> %v", i, before.Data[i], after.Data[i])
		}
	}
	if m.Quantized() {
		t.Fatal("original model must remain fp")
	}
}

// TestQuantizeWeightBytes: the resident footprint must shrink at least 4x,
// and ParamCount must be representation-independent.
func TestQuantizeWeightBytes(t *testing.T) {
	m := buildArch(t, ArchResNetLite, 43)
	fpBytes := m.WeightBytes()
	fpParams := m.ParamCount()

	q := cloneModel(t, m)
	q.Quantize(-1)
	qBytes := q.WeightBytes()
	if ratio := float64(fpBytes) / float64(qBytes); ratio < 4 {
		t.Fatalf("resident shrink %.2fx (fp %d -> int8 %d bytes), want ≥ 4x", ratio, fpBytes, qBytes)
	}
	if got := q.ParamCount(); got != fpParams {
		t.Fatalf("ParamCount changed across quantization: %d -> %d", fpParams, got)
	}
}
