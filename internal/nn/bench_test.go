package nn

import (
	"testing"

	"bprom/internal/rng"
	"bprom/internal/tensor"
)

// The bench zoo's shape: ConvLite over 3×12×12 inputs, hidden 24, at the
// width of one fused CMA-ES generation (wide) and of one serving request
// (narrow). bench/ reports the same pair as nn.predict_wide_us / _narrow_us.
const (
	benchWideRows   = 432
	benchNarrowRows = 8
)

func benchZooModel(tb testing.TB) *Model {
	tb.Helper()
	m, err := Build(ArchConfig{Arch: ArchConvLite, C: 3, H: 12, W: 12, NumClasses: 10, Hidden: 24}, rng.New(1))
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

var benchSink *tensor.Tensor

func benchPredict(b *testing.B, rows int) {
	m := benchZooModel(b)
	x := tensor.New(rows, m.InputDim)
	rng.New(2).Uniform(x.Data, 0, 1)
	benchSink = m.Predict(x) // warm the arenas
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = m.Predict(x)
	}
}

func BenchmarkPredictWide(b *testing.B)   { benchPredict(b, benchWideRows) }
func BenchmarkPredictNarrow(b *testing.B) { benchPredict(b, benchNarrowRows) }

// BenchmarkPredictNarrowParallel runs request-width passes from every proc at
// once, as a loaded server does. Beside BenchmarkPredictNarrow it measures
// the one-level rule's trade: a narrow pass is single-threaded, so it is
// slower alone on an idle machine and faster under concurrency, where the
// other requests keep the cores busy without any fork-join wake-ups.
func BenchmarkPredictNarrowParallel(b *testing.B) {
	m := benchZooModel(b)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		x := tensor.New(benchNarrowRows, m.InputDim)
		rng.New(2).Uniform(x.Data, 0, 1)
		for pb.Next() {
			m.Predict(x)
		}
	})
}
