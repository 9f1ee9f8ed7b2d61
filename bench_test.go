package bprom_test

// Kernel and serving-path micro-benchmarks, for measuring while you work.
// The paper's tables and figures are regenerated by `go run ./cmd/tables
// -all`; end-to-end performance is measured by the bench/ module.

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"bprom/internal/data"
	"bprom/internal/mlaas"
	"bprom/internal/nn"
	"bprom/internal/oracle"
	"bprom/internal/rng"
	"bprom/internal/tensor"
	"bprom/internal/vp"
)

// --- Serving-path throughput -------------------------------------------------
//
// End-to-end throughput through the HTTP stack. The model-level narrow pair
// (one caller vs every proc) sits beside its kernels in internal/nn:
//
//	go test -bench 'ServerPredictParallel' -benchtime=2s .
//	go test -bench 'PredictNarrow' -benchtime=2s ./internal/nn

func benchModel(b *testing.B) *nn.Model {
	b.Helper()
	m, err := nn.Build(nn.ArchConfig{
		Arch: nn.ArchResNetLite, C: 3, H: 12, W: 12, NumClasses: 10, Hidden: 32,
	}, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func benchBatch(m *nn.Model, seed uint64) *tensor.Tensor {
	x := tensor.New(8, m.InputDim)
	rng.New(seed).Uniform(x.Data, 0, 1)
	return x
}

// BenchmarkServerPredictParallel measures end-to-end throughput through the
// full HTTP stack: JSON, the request queue, the micro-batcher, and the
// concurrent forward passes.
func BenchmarkServerPredictParallel(b *testing.B) {
	m := benchModel(b)
	s := mlaas.NewServer(m, mlaas.ServerConfig{Name: "bench", MaxBatch: 256})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c, err := mlaas.Dial(context.Background(), srv.URL, mlaas.ClientConfig{})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		x := benchBatch(m, 4)
		for pb.Next() {
			if _, err := c.Predict(ctx, x); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// --- Kernel regression guard ---------------------------------------------------
//
// The tiled parallel kernels carry every downstream number, so their
// before/after story stays measurable here: BenchmarkMatMulNaive is the
// untouched triple-loop baseline, BenchmarkMatMulTiledSerial isolates the
// cache-blocking win on one worker, and BenchmarkMatMulTiledParallel adds
// the shared pool (expected ≥2x over the naive baseline on a multi-core
// runner; on one core the tiling alone must not regress). CI runs these at
// -benchtime=1x so they cannot silently rot. Reproduce locally with:
//
//	go test -bench 'MatMulNaive|MatMulTiled|ConvIm2Col' -benchtime=2s .

const benchMatDim = 192

func benchMatPair(b *testing.B) (dst, x, y *tensor.Tensor) {
	b.Helper()
	r := rng.New(12)
	x, y = tensor.New(benchMatDim, benchMatDim), tensor.New(benchMatDim, benchMatDim)
	r.Gaussian(x.Data, 0, 1)
	r.Gaussian(y.Data, 0, 1)
	return tensor.New(benchMatDim, benchMatDim), x, y
}

// BenchmarkMatMulNaive is the serial naive baseline the acceptance numbers
// are measured against.
func BenchmarkMatMulNaive(b *testing.B) {
	dst, x, y := benchMatPair(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.NaiveMatMulInto(dst, x, y)
	}
}

// BenchmarkMatMulTiledSerial pins the shared pool to one worker: the delta
// vs MatMulNaive is pure cache blocking.
func BenchmarkMatMulTiledSerial(b *testing.B) {
	tensor.SetWorkers(1)
	defer tensor.SetWorkers(0)
	dst, x, y := benchMatPair(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulInto(dst, x, y)
	}
}

// BenchmarkMatMulTiledParallel uses the default shared pool (GOMAXPROCS
// workers): the delta vs MatMulTiledSerial is the pool's scaling.
func BenchmarkMatMulTiledParallel(b *testing.B) {
	tensor.SetWorkers(0)
	dst, x, y := benchMatPair(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulInto(dst, x, y)
	}
}

// BenchmarkConvIm2Col measures the full conv path (im2col + matmul +
// transpose) through a Conv2D layer on a batch, the serving path's hottest
// layer type.
func BenchmarkConvIm2Col(b *testing.B) {
	d := tensor.ConvDims{InC: 3, InH: 32, InW: 32, OutC: 16, KH: 3, KW: 3, Stride: 1, Pad: 1}
	conv := nn.NewConv2D(d, rng.New(4))
	x := tensor.New(8, 3, 32, 32)
	rng.New(5).Uniform(x.Data, 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.Infer(x)
	}
}

// --- Quantized int8 kernels (PR 6) --------------------------------------------
//
// The before/after pair for the int8 serving path: BenchmarkMatMulTiledSerial
// above is the float64 single-core baseline on the same 192² shape;
// BenchmarkQMatMulInt8Serial runs the per-channel quantized kernel, including
// the on-the-fly activation quantization it performs every call. The model-
// level pair (ModelPredictDenseFP64/Int8) measures the same trade through a
// matmul-bound dense stack and reports resident weight bytes.
//
// Expect the model-level speedup to undershoot the kernel-level one: past the
// first layer the activations are post-ReLU, so roughly half of them are
// exactly zero and the fp kernel's zero-skip (matMulRange) drops those panels
// entirely, while the int8 kernel always runs dense (a quantized zero is the
// zero-point byte, indistinguishable mid-kernel). On dense operands — the
// kernel pair here, and any non-ReLU activation pattern — the full gap shows.
// BENCH_6.json is the historical record of these. Reproduce locally with:
//
//	go test -bench 'QMatMul|ModelPredictDense' -benchtime=3s .

// BenchmarkQMatMulInt8Serial pins the pool to one worker so the delta vs
// MatMulTiledSerial is pure int8 arithmetic, not parallelism.
func BenchmarkQMatMulInt8Serial(b *testing.B) {
	tensor.SetWorkers(1)
	defer tensor.SetWorkers(0)
	dst, x, y := benchMatPair(b)
	q := tensor.QuantizePerCol(y)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.QMatMulInto(dst, x, q)
	}
}

// benchServingMatPair is the serving path's dominant matmul shape: a
// predict-block of activation rows against a 512-wide Dense weight matrix
// (the hidden layers of the dense stack below). The 192³ pair above keeps
// the historical tier-1 shape; this one is what `-quantize` actually buys
// per request.
func benchServingMatPair(b *testing.B) (dst, x, y *tensor.Tensor) {
	b.Helper()
	r := rng.New(12)
	x, y = tensor.New(64, 512), tensor.New(512, 512)
	r.Gaussian(x.Data, 0, 1)
	r.Gaussian(y.Data, 0, 1)
	return tensor.New(64, 512), x, y
}

// BenchmarkMatMulTiledServing is the fp64 single-core baseline at the
// serving shape.
func BenchmarkMatMulTiledServing(b *testing.B) {
	tensor.SetWorkers(1)
	defer tensor.SetWorkers(0)
	dst, x, y := benchServingMatPair(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulInto(dst, x, y)
	}
}

// BenchmarkQMatMulInt8Serving runs the quantized kernel at the serving
// shape (target: ≥2x BenchmarkMatMulTiledServing on one core).
func BenchmarkQMatMulInt8Serving(b *testing.B) {
	tensor.SetWorkers(1)
	defer tensor.SetWorkers(0)
	dst, x, y := benchServingMatPair(b)
	q := tensor.QuantizePerCol(y)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.QMatMulInto(dst, x, q)
	}
}

// benchFleetWeights builds nw independent 512² weight matrices, simulating a
// registry hot-set where consecutive predicts hit different models so no
// single weight matrix stays cache-resident between calls. This is the
// condition `-quantize` targets: the fp64 fleet (nw × 2 MiB) streams from
// memory every call, while the int8 fleet (nw × ~0.6 MiB) largely stays in
// cache — on top of the int8 arithmetic advantage the single-matrix pair
// above isolates.
const benchFleetModels = 8

func benchFleetWeights(b *testing.B) (dst, x *tensor.Tensor, ys []*tensor.Tensor) {
	b.Helper()
	r := rng.New(12)
	x = tensor.New(64, 512)
	r.Gaussian(x.Data, 0, 1)
	for i := 0; i < benchFleetModels; i++ {
		y := tensor.New(512, 512)
		r.Gaussian(y.Data, 0, 1)
		ys = append(ys, y)
	}
	return tensor.New(64, 512), x, ys
}

// BenchmarkMatMulTiledFleet is the fp64 baseline under hot-set rotation.
func BenchmarkMatMulTiledFleet(b *testing.B) {
	tensor.SetWorkers(1)
	defer tensor.SetWorkers(0)
	dst, x, ys := benchFleetWeights(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulInto(dst, x, ys[i%benchFleetModels])
	}
}

// BenchmarkQMatMulInt8Fleet rotates the same hot-set through the quantized
// kernel (target: ≥2x BenchmarkMatMulTiledFleet on one core).
func BenchmarkQMatMulInt8Fleet(b *testing.B) {
	tensor.SetWorkers(1)
	defer tensor.SetWorkers(0)
	dst, x, ys := benchFleetWeights(b)
	qs := make([]*tensor.QTensor, benchFleetModels)
	for i, y := range ys {
		qs[i] = tensor.QuantizePerCol(y)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.QMatMulInto(dst, x, qs[i%benchFleetModels])
	}
}

// benchDenseModel is a matmul-bound dense stack (256→512→512→10): wide
// enough that the Dense kernels dominate and the quantized path's speedup
// is visible at the Predict level, not just per kernel.
func benchDenseModel(b *testing.B) *nn.Model {
	b.Helper()
	r := rng.New(6)
	m := &nn.Model{
		Arch:       nn.ArchConvLite,
		InputDim:   256,
		NumClasses: 10,
		Layers: []nn.Layer{
			nn.NewDense(256, 512, r),
			&nn.ReLU{},
			nn.NewDense(512, 512, r),
			&nn.ReLU{},
			nn.NewDense(512, 10, r),
		},
	}
	if err := m.Validate(); err != nil {
		b.Fatal(err)
	}
	return m
}

func benchModelPredict(b *testing.B, m *nn.Model) {
	b.Helper()
	tensor.SetWorkers(1)
	defer tensor.SetWorkers(0)
	x := tensor.New(64, m.InputDim)
	rng.New(7).Uniform(x.Data, 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(x)
	}
	b.ReportMetric(float64(m.WeightBytes()), "weight_bytes")
}

// BenchmarkModelPredictDenseFP64 is the single-core fp baseline for the
// quantized variant below; weight_bytes reports the resident footprint.
func BenchmarkModelPredictDenseFP64(b *testing.B) {
	benchModelPredict(b, benchDenseModel(b))
}

// BenchmarkModelPredictDenseInt8 serves the same stack through the int8
// path (target: ≥2x the fp64 variant, ~4x+ smaller weight_bytes).
func BenchmarkModelPredictDenseInt8(b *testing.B) {
	m := benchDenseModel(b)
	m.Quantize(0)
	benchModelPredict(b, m)
}

// --- Generation-batched CMA-ES evaluation ------------------------------------
//
// TrainBlackBox end to end — candidate-invariant resize cache plus one fused
// oracle call per generation — against an in-process oracle, over loopback
// HTTP (the client chunks each fused call into parallel full-width
// requests), and against a simulated 3ms-RTT endpoint. Reproduce locally
// with:
//
//	go test -bench 'TrainBlackBox' -benchtime=3x .

func benchPromptWorkload(b *testing.B) (*nn.Model, *data.Dataset) {
	b.Helper()
	m := benchModel(b) // 3×12×12 canvas, 10 classes
	tgt := data.NewGenerator(data.MustSpec(data.STL10), 7).Generate(6, rng.New(8))
	return m, tgt
}

func benchTrainBlackBox(b *testing.B, o oracle.Oracle, src data.Shape, tgt *data.Dataset) {
	b.Helper()
	cfg := vp.BlackBoxConfig{Iterations: 4}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := vp.NewPrompt(src, tgt.Shape, 0.83)
		if err != nil {
			b.Fatal(err)
		}
		if err := vp.TrainBlackBox(ctx, o, p, tgt, cfg, rng.New(9)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainBlackBoxBatched runs against an in-process oracle: the
// forward pass dominates, the evaluation pipeline (resizes, canvas
// allocations — see the allocs/op column) is the rest.
func BenchmarkTrainBlackBoxBatched(b *testing.B) {
	m, tgt := benchPromptWorkload(b)
	src := data.Shape{C: 3, H: 12, W: 12}
	benchTrainBlackBox(b, oracle.NewModelOracle(m), src, tgt)
}

func benchHTTPOracle(b *testing.B, m *nn.Model) *mlaas.Client {
	b.Helper()
	s := mlaas.NewServer(m, mlaas.ServerConfig{Name: "bench-vp", MaxBatch: 128})
	b.Cleanup(s.Close)
	srv := httptest.NewServer(s.Handler())
	b.Cleanup(srv.Close)
	c, err := mlaas.Dial(context.Background(), srv.URL, mlaas.ClientConfig{})
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkTrainBlackBoxBatchedHTTP audits over the wire with one fused
// call per generation, chunked by the client into parallel full-width
// requests for the server's micro-batch engine.
func BenchmarkTrainBlackBoxBatchedHTTP(b *testing.B) {
	m, tgt := benchPromptWorkload(b)
	src := data.Shape{C: 3, H: 12, W: 12}
	benchTrainBlackBox(b, benchHTTPOracle(b, m), src, tgt)
}

// rttOracle simulates a genuinely remote endpoint: every Predict call pays
// a fixed round-trip latency before the in-process forward pass. Loopback
// httptest hides exactly this cost, yet it dominates real MLaaS audits (the
// paper's query-budget setting): the fused path pays it once per generation.
// 3ms is a conservative same-region RTT.
type rttOracle struct {
	oracle.Oracle
	rtt time.Duration
}

func (o *rttOracle) Predict(ctx context.Context, x *tensor.Tensor) (*tensor.Tensor, error) {
	time.Sleep(o.rtt)
	return o.Oracle.Predict(ctx, x)
}

// BenchmarkTrainBlackBoxBatchedRemoteRTT runs against a 3ms-RTT oracle: one
// round-trip per generation.
func BenchmarkTrainBlackBoxBatchedRemoteRTT(b *testing.B) {
	m, tgt := benchPromptWorkload(b)
	src := data.Shape{C: 3, H: 12, W: 12}
	benchTrainBlackBox(b, &rttOracle{Oracle: oracle.NewModelOracle(m), rtt: 3 * time.Millisecond}, src, tgt)
}

// --- Inline screening serving overhead (PR 7) ---------------------------------
//
// Three-way decomposition of what inline screening costs the serving plane,
// on the same HTTP stack, micro-batcher, and model as
// BenchmarkServerPredictParallel:
//
//   - Unscreened: baseline server, no screener configured.
//   - ScreenedOptOut: screener configured, but the traffic is plain Predict
//     (which opts out on the wire). This is the enablement tax — the
//     < 15% QPS acceptance target — and it should be ~zero: the engine
//     appends no prompted rows for opted-out requests, and the responses
//     stay bit-identical to the unscreened server's (parity-tested).
//   - Screened: every request asks for verdicts via PredictScreened. Each
//     row's prompted view is fused into the SAME batched Predict tick as
//     the plain rows — one forward per tick, not a second request path —
//     so the marginal cost is one extra model row per screened row (compare
//     the delta against internal/nn's BenchmarkPredictNarrow: the screening
//     plumbing itself adds nothing measurable). The extra rows ride idle
//     cores only through concurrent requests or a tick wider than one row
//     block; otherwise the delta is the raw forward cost.
//
// BENCH_7.json is the historical record of all three (and the derived
// ratios). Reproduce locally with:
//
//	go test -bench 'ServerPredict(Screened|Unscreened)' -benchtime=2s .

// benchScreener builds a screener on the benchModel canvas (3×12×12) with a
// deterministic trained-looking border.
func benchScreener(b *testing.B) *vp.Screener {
	b.Helper()
	p, err := vp.NewPrompt(data.Shape{C: 3, H: 12, W: 12}, data.Shape{C: 3, H: 24, W: 24}, 0.67)
	if err != nil {
		b.Fatal(err)
	}
	rng.New(77).Uniform(p.Theta, 0, 1)
	sc, err := vp.NewScreener(p, 0)
	if err != nil {
		b.Fatal(err)
	}
	return sc
}

func benchServerPredict(b *testing.B, screener *vp.Screener, verdicts bool) {
	m := benchModel(b)
	s := mlaas.NewServer(m, mlaas.ServerConfig{Name: "bench", MaxBatch: 256, Screener: screener})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c, err := mlaas.Dial(context.Background(), srv.URL, mlaas.ClientConfig{})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		x := benchBatch(m, 4)
		for pb.Next() {
			if !verdicts {
				if _, err := c.Predict(ctx, x); err != nil {
					b.Error(err)
					return
				}
				continue
			}
			if _, scr, err := c.PredictScreened(ctx, x); err != nil || len(scr) != x.Dim(0) {
				b.Errorf("screened predict: %d entries, err %v", len(scr), err)
				return
			}
		}
	})
}

// BenchmarkServerPredictUnscreened is the serving baseline without a
// screener configured.
func BenchmarkServerPredictUnscreened(b *testing.B) {
	benchServerPredict(b, nil, false)
}

// BenchmarkServerPredictScreenedOptOut serves plain Predict traffic through
// a screening-enabled server: the enablement tax regular clients pay when
// the operator turns -screen on (acceptance target < 15%, expected ~0).
func BenchmarkServerPredictScreenedOptOut(b *testing.B) {
	benchServerPredict(b, benchScreener(b), false)
}

// BenchmarkServerPredictScreened screens every request inline (annotate
// policy); the delta vs the unscreened baseline is the fused prompted-view
// rows plus the screening block on the wire.
func BenchmarkServerPredictScreened(b *testing.B) {
	benchServerPredict(b, benchScreener(b), true)
}
