package tensor

import (
	"fmt"
	"math"
	"testing"

	"bprom/internal/rng"
)

// Parity harness: the tiled/parallel kernels must agree with the naive
// reference forms (naive.go) on every shape, including the degenerate and
// non-tile-multiple ones, and must be *identical* under any pool size —
// the kernels partition output rows/channels, so accumulation order never
// depends on the worker count. Seeds come from internal/rng so every
// failure reproduces deterministically.

// matMulShapes exercises 1×N, N×1, tile-boundary and odd non-multiple dims.
// tileK is 128 and tileJ is 64, so 127/128/129 and 63/64/65 straddle both.
var matMulShapes = append(convBlockShapes(), [][3]int{
	{1, 1, 1},
	{1, 7, 1},
	{1, 1, 300},
	{300, 1, 1},
	{1, 300, 1},
	{5, 129, 3},
	{3, 128, 5},
	{2, 127, 7},
	{64, 64, 64},
	{65, 63, 67},
	{97, 130, 61}, // above the parallel threshold
	{130, 257, 65},
	{1, 4096, 1},
	{33, 2, 129},
	{1, 300, 257}, // column-partitioned dispatch (skinny, wide)
	{2, 513, 129},
}...)

// convBlockShapes are the bench zoo's conv reductions (k = InC·KH·KW = 27
// and 72, plus the degenerate 1) at every output width from 1 to 9: the
// TransB kernel sweeps four columns at a time, so these cover zero, one and
// two full sweeps with every remainder.
func convBlockShapes() [][3]int {
	var shapes [][3]int
	for _, k := range []int{1, 27, 72} {
		for n := 1; n <= 9; n++ {
			shapes = append(shapes, [3]int{5, k, n})
		}
	}
	return shapes
}

func fillRandom(r *rng.RNG, ts ...*Tensor) {
	for _, t := range ts {
		r.Gaussian(t.Data, 0, 1)
	}
}

func requireEqual(t *testing.T, label string, got, want *Tensor) {
	t.Helper()
	for i := range got.Data {
		if got.Data[i] != want.Data[i] && !(math.IsNaN(got.Data[i]) && math.IsNaN(want.Data[i])) {
			t.Fatalf("%s: element %d differs: got %v, want %v", label, i, got.Data[i], want.Data[i])
		}
	}
}

func requireClose(t *testing.T, label string, got, want *Tensor, tol float64) {
	t.Helper()
	for i := range got.Data {
		diff := math.Abs(got.Data[i] - want.Data[i])
		if diff > tol*math.Max(1, math.Abs(want.Data[i])) {
			t.Fatalf("%s: element %d differs: got %v, want %v (diff %g)", label, i, got.Data[i], want.Data[i], diff)
		}
	}
}

// TestMatMulTiledMatchesNaive checks all three variants against the naive
// triple loops over the odd-shape table. The plain and TransA kernels
// preserve the naive per-element accumulation order exactly (ascending p),
// so only zero-skipping could perturb bits — Gaussian data has no zeros, so
// a tight relative tolerance holds; TransB is bitwise identical.
func TestMatMulTiledMatchesNaive(t *testing.T) {
	root := rng.New(42)
	for si, s := range matMulShapes {
		m, k, n := s[0], s[1], s[2]
		r := root.Split("shape", si)

		a, b := New(m, k), New(k, n)
		fillRandom(r, a, b)
		got, want := New(m, n), New(m, n)
		MatMulInto(got, a, b)
		NaiveMatMulInto(want, a, b)
		requireClose(t, fmt.Sprintf("MatMulInto %v", s), got, want, 1e-12)

		at := New(k, m) // a stored transposed: aᵀ @ b == a @ b
		fillRandom(r, at, b)
		MatMulTransAInto(got, at, b)
		NaiveMatMulTransAInto(want, at, b)
		requireClose(t, fmt.Sprintf("MatMulTransAInto %v", s), got, want, 1e-12)

		bt := New(n, k)
		fillRandom(r, a, bt)
		MatMulTransBInto(got, a, bt)
		NaiveMatMulTransBInto(want, a, bt)
		requireEqual(t, fmt.Sprintf("MatMulTransBInto %v", s), got, want)
	}
}

// TestMatMulSerialVsParallel pins the shared pool to 1 worker and then to 8
// and demands bitwise-identical output: row partitioning must not change
// accumulation order. Shapes sit above the parallel dispatch threshold.
func TestMatMulSerialVsParallel(t *testing.T) {
	defer SetWorkers(0)
	root := rng.New(7)
	// {1, 300, 257} and {2, 513, 129} force the column-partitioned path
	// (rows < workers, wide output); the rest take the row path.
	for si, s := range [][3]int{{97, 130, 61}, {130, 257, 65}, {64, 64, 64}, {1, 4096, 9}, {1, 300, 257}, {2, 513, 129}} {
		m, k, n := s[0], s[1], s[2]
		r := root.Split("svp", si)
		a, b := New(m, k), New(k, n)
		at, bt := New(k, m), New(n, k)
		fillRandom(r, a, b, at, bt)

		type variant struct {
			name string
			run  func(dst *Tensor)
		}
		variants := []variant{
			{"MatMulInto", func(dst *Tensor) { MatMulInto(dst, a, b) }},
			{"MatMulTransAInto", func(dst *Tensor) { MatMulTransAInto(dst, at, b) }},
			{"MatMulTransBInto", func(dst *Tensor) { MatMulTransBInto(dst, a, bt) }},
		}
		for _, v := range variants {
			serial, parallel := New(m, n), New(m, n)
			SetWorkers(1)
			v.run(serial)
			SetWorkers(8)
			v.run(parallel)
			requireEqual(t, fmt.Sprintf("%s %v serial-vs-parallel", v.name, s), parallel, serial)
		}
	}
}

// convGeometries straddles the convParMin threshold and covers 1×N images,
// asymmetric kernels, stride > 1 and padding.
var convGeometries = []ConvDims{
	{InC: 1, InH: 1, InW: 9, OutC: 1, KH: 1, KW: 3, Stride: 1, Pad: 0},
	{InC: 1, InH: 9, InW: 1, OutC: 1, KH: 3, KW: 1, Stride: 1, Pad: 1},
	{InC: 3, InH: 8, InW: 8, OutC: 4, KH: 3, KW: 3, Stride: 1, Pad: 1},
	{InC: 2, InH: 7, InW: 5, OutC: 1, KH: 2, KW: 4, Stride: 2, Pad: 2},
	{InC: 5, InH: 13, InW: 11, OutC: 2, KH: 3, KW: 3, Stride: 3, Pad: 1},
	{InC: 4, InH: 32, InW: 32, OutC: 8, KH: 5, KW: 5, Stride: 1, Pad: 2}, // above threshold
	{InC: 1, InH: 40, InW: 40, OutC: 1, KH: 7, KW: 7, Stride: 2, Pad: 3},
	{InC: 64, InH: 3, InW: 4, OutC: 2, KH: 3, KW: 3, Stride: 1, Pad: 1}, // 576 taps: more than convTapsOnStack
}

// TestIm2ColCol2ImMatchesNaive: the parallel gather/scatter must reproduce
// the reference kernels bitwise — Im2Col is a pure gather and Col2Im's
// per-pixel accumulation order is channel-local and unchanged.
func TestIm2ColCol2ImMatchesNaive(t *testing.T) {
	root := rng.New(99)
	for gi, d := range convGeometries {
		if err := d.Resolve(); err != nil {
			t.Fatalf("geometry %d: %v", gi, err)
		}
		r := root.Split("conv", gi)
		k := d.InC * d.KH * d.KW
		x := make([]float64, d.InC*d.InH*d.InW)
		r.Gaussian(x, 0, 1)

		got, want := New(d.OutH*d.OutW, k), New(d.OutH*d.OutW, k)
		Im2Col(x, d, got)
		NaiveIm2Col(x, d, want)
		requireEqual(t, fmt.Sprintf("Im2Col %+v", d), got, want)

		g := New(d.OutH*d.OutW, k)
		r.Gaussian(g.Data, 0, 1)
		gotDx := make([]float64, len(x))
		wantDx := make([]float64, len(x))
		Col2Im(g, d, gotDx)
		NaiveCol2Im(g, d, wantDx)
		requireEqual(t, fmt.Sprintf("Col2Im %+v", d),
			FromSlice(gotDx, len(gotDx)), FromSlice(wantDx, len(wantDx)))
	}
}

// naiveConv is the im2col convolution ConvInto replaces: unroll, one
// TransB product, bias added in the output's channel-major layout.
func naiveConv(x []float64, d ConvDims, w *Tensor, bias []float64) []float64 {
	spatial := d.OutH * d.OutW
	cols := New(spatial, d.InC*d.KH*d.KW)
	NaiveIm2Col(x, d, cols)
	prod := New(spatial, d.OutC)
	NaiveMatMulTransBInto(prod, cols, w)
	out := make([]float64, d.OutC*spatial)
	for pos := 0; pos < spatial; pos++ {
		for oc, v := range prod.Row(pos) {
			out[oc*spatial+pos] = v + bias[oc]
		}
	}
	return out
}

// requireSameBits fails unless got and want hold the same float64 bits,
// NaNs excepted (a NaN's payload is not part of the contract).
func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		g, w := got[i], want[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("%s: element %d = %v, want %v", what, i, g, w)
		}
	}
}

// TestConvIntoMatchesIm2Col: the implicit convolution must give the im2col
// path's bits on every geometry, with its output and padding scratch
// poisoned the way an unzeroed arena hands them out, for output channel
// counts on both sides of the four-channel register block, and with
// non-finite and signed-zero pixels (a padding tap multiplies a weight by
// +0 on both paths, so even -0 and Inf·0 agree).
func TestConvIntoMatchesIm2Col(t *testing.T) {
	root := rng.New(41)
	for gi, d := range convGeometries {
		for _, outC := range []int{1, 4, 7, 12} {
			d.OutC = outC
			if err := d.Resolve(); err != nil {
				t.Fatalf("geometry %d: %v", gi, err)
			}
			r := root.Split("convinto", gi*100+outC)
			x := make([]float64, d.InC*d.InH*d.InW)
			r.Gaussian(x, 0, 1)
			x[0], x[len(x)/2], x[len(x)-1] = math.Copysign(0, -1), math.Inf(1), math.NaN()
			w := New(outC, d.InC*d.KH*d.KW)
			bias := make([]float64, outC)
			r.Gaussian(w.Data, 0, 1)
			r.Gaussian(bias, 0, 1)

			got := make([]float64, outC*d.OutH*d.OutW)
			padded := make([]float64, d.PaddedLen())
			for i := range got {
				got[i] = math.NaN()
			}
			for i := range padded {
				padded[i] = math.NaN()
			}
			ConvInto(got, x, d, w, bias, padded)
			requireSameBits(t, fmt.Sprintf("ConvInto %+v", d), got, naiveConv(x, d, w, bias))
		}
	}
}

// TestIm2ColCol2ImSerialVsParallel: pool width must not change either
// kernel's output bits.
func TestIm2ColCol2ImSerialVsParallel(t *testing.T) {
	defer SetWorkers(0)
	root := rng.New(3)
	for gi, d := range convGeometries {
		if err := d.Resolve(); err != nil {
			t.Fatalf("geometry %d: %v", gi, err)
		}
		r := root.Split("convsvp", gi)
		k := d.InC * d.KH * d.KW
		x := make([]float64, d.InC*d.InH*d.InW)
		r.Gaussian(x, 0, 1)
		g := New(d.OutH*d.OutW, k)
		r.Gaussian(g.Data, 0, 1)

		SetWorkers(1)
		serialCols := New(d.OutH*d.OutW, k)
		Im2Col(x, d, serialCols)
		serialDx := make([]float64, len(x))
		Col2Im(g, d, serialDx)

		SetWorkers(8)
		parCols := New(d.OutH*d.OutW, k)
		Im2Col(x, d, parCols)
		parDx := make([]float64, len(x))
		Col2Im(g, d, parDx)

		requireEqual(t, fmt.Sprintf("Im2Col %+v serial-vs-parallel", d), parCols, serialCols)
		requireEqual(t, fmt.Sprintf("Col2Im %+v serial-vs-parallel", d),
			FromSlice(parDx, len(parDx)), FromSlice(serialDx, len(serialDx)))
	}
}

// TestElementwiseSerialVsParallel: the chunked elementwise ops are per-index
// pure, so width must not change bits either. The length sits above
// elemParMin to force the parallel path.
func TestElementwiseSerialVsParallel(t *testing.T) {
	defer SetWorkers(0)
	const n = 1 << 16
	r := rng.New(11)
	a, b := New(n), New(n)
	fillRandom(r, a, b)

	run := func() []*Tensor {
		add, sub, mul := New(n), New(n), New(n)
		AddInto(add, a, b)
		SubInto(sub, a, b)
		MulInto(mul, a, b)
		axpy := a.Clone()
		AXPY(0.5, b, axpy)
		app := a.Clone()
		app.Apply(func(v float64) float64 { return v * v })
		sc := a.Clone()
		sc.Scale(1.25)
		return []*Tensor{add, sub, mul, axpy, app, sc}
	}
	SetWorkers(1)
	serial := run()
	SetWorkers(8)
	parallel := run()
	names := []string{"AddInto", "SubInto", "MulInto", "AXPY", "Apply", "Scale"}
	for i := range serial {
		requireEqual(t, names[i]+" serial-vs-parallel", parallel[i], serial[i])
	}
}

// TestMatMulRandomizedParity hammers random small-to-medium shapes, the
// quick-check style sweep the fuzz targets extend.
func TestMatMulRandomizedParity(t *testing.T) {
	root := rng.New(2026)
	for trial := 0; trial < 150; trial++ {
		r := root.Split("trial", trial)
		m := r.Intn(70) + 1
		k := r.Intn(300) + 1
		n := r.Intn(70) + 1
		a, b := New(m, k), New(k, n)
		fillRandom(r, a, b)
		got, want := New(m, n), New(m, n)
		MatMulInto(got, a, b)
		NaiveMatMulInto(want, a, b)
		requireClose(t, fmt.Sprintf("random [%d,%d,%d]", m, k, n), got, want, 1e-12)
	}
}

// TestSerialEntryPointsMatchDispatching: the Serial* forms are the same
// kernels minus the pool, so on shapes the dispatching forms would split
// (and on the small ones) they must produce the same bits, with the pool
// forced wide so the dispatching side really dispatches.
func TestSerialEntryPointsMatchDispatching(t *testing.T) {
	SetWorkers(8)
	defer SetWorkers(0)
	root := rng.New(21)
	for si, s := range matMulShapes {
		m, k, n := s[0], s[1], s[2]
		r := root.Split("serial", si)
		a, b, bt := New(m, k), New(k, n), New(n, k)
		fillRandom(r, a, b, bt)
		got, want := New(m, n), New(m, n)
		got.Fill(math.NaN()) // Serial* callers hand in unzeroed arena memory

		SerialMatMulInto(got, a, b)
		MatMulInto(want, a, b)
		requireEqual(t, fmt.Sprintf("SerialMatMulInto %v", s), got, want)

		q := QuantizePerCol(b)
		SerialQMatMulInto(got, a, q)
		QMatMulInto(want, a, q)
		requireEqual(t, fmt.Sprintf("SerialQMatMulInto %v", s), got, want)
	}
	for gi, d := range convGeometries {
		if err := d.Resolve(); err != nil {
			t.Fatalf("geometry %d: %v", gi, err)
		}
		k := d.InC * d.KH * d.KW
		x := make([]float64, d.InC*d.InH*d.InW)
		root.Split("im2col", gi).Gaussian(x, 0, 1)
		got, want := New(d.OutH*d.OutW, k), New(d.OutH*d.OutW, k)
		got.Fill(math.NaN())
		SerialIm2Col(x, d, got)
		Im2Col(x, d, want)
		requireEqual(t, fmt.Sprintf("SerialIm2Col %+v", d), got, want)
	}
}
