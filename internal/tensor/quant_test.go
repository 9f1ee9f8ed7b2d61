package tensor

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"bprom/internal/rng"
)

// Quantized-kernel parity harness, mirroring parity_test.go: the SWAR
// parallel Q kernel must be *bitwise* identical to NaiveQMatMulInto
// (integer accumulation is exact) on every shape in the shared table and
// under any pool width, and the whole scheme must stay within the analytic
// quantization error bound of the float64 ground truth.

// quantShapes reuses the fp shape table but drops reduction dims the fuzz
// seeds already cover past tile boundaries; all 16 shapes stay well under
// the qMaxK overflow bound, which has its own panic test.
var quantShapes = matMulShapes

// dequantizeRow reconstructs the float64 values a quantized activation row
// represents, used to compute the exact real-arithmetic product the integer
// kernels should reproduce.
func dequantizeRow(q []int8, scale float64, zp int32) []float64 {
	out := make([]float64, len(q))
	for i, v := range q {
		out[i] = scale * float64(int32(v)-zp)
	}
	return out
}

// TestQMatMulMatchesNaiveQ: fast vs naive, bitwise.
func TestQMatMulMatchesNaiveQ(t *testing.T) {
	root := rng.New(61)
	for si, s := range quantShapes {
		m, k, n := s[0], s[1], s[2]
		r := root.Split("qshape", si)

		x, w := New(m, k), New(k, n)
		fillRandom(r, x, w)
		q := QuantizePerCol(w)
		got, want := New(m, n), New(m, n)
		QMatMulInto(got, x, q)
		NaiveQMatMulInto(want, x, q)
		requireEqual(t, fmt.Sprintf("QMatMulInto %v", s), got, want)
	}
}

// TestQMatMulSerialVsParallel: pool width must not change output bits —
// the Q kernel partitions output blocks and quantizes activations per row,
// so no accumulation crosses a partition boundary.
func TestQMatMulSerialVsParallel(t *testing.T) {
	defer SetWorkers(0)
	root := rng.New(62)
	for si, s := range [][3]int{{97, 130, 61}, {130, 257, 65}, {64, 64, 64}, {1, 300, 257}, {2, 513, 129}} {
		m, k, n := s[0], s[1], s[2]
		r := root.Split("qsvp", si)
		x, w := New(m, k), New(k, n)
		fillRandom(r, x, w)
		q := QuantizePerCol(w)

		serial, parallel := New(m, n), New(m, n)
		SetWorkers(1)
		QMatMulInto(serial, x, q)
		SetWorkers(8)
		QMatMulInto(parallel, x, q)
		requireEqual(t, fmt.Sprintf("QMatMulInto %v serial-vs-parallel", s), parallel, serial)
	}
}

// TestQMatMulMatchesDequantizedProduct guards the pieces the fast and naive
// kernels share (quantizeRow, dequant): the integer kernels must reproduce
// the real-arithmetic product of the *dequantized* operands. A bug in the
// shared zero-point correction would survive Q-vs-NaiveQ parity but cannot
// survive this — the reference below dequantizes both operands explicitly
// and never touches the correction path.
func TestQMatMulMatchesDequantizedProduct(t *testing.T) {
	root := rng.New(63)
	for si, s := range quantShapes {
		m, k, n := s[0], s[1], s[2]
		r := root.Split("qdq", si)
		x, w := New(m, k), New(k, n)
		fillRandom(r, x, w)
		q := QuantizePerCol(w)

		got := New(m, n)
		QMatMulInto(got, x, q)

		// Explicit reference: dequantize activations row by row with the
		// canonical row quantizer, dequantize the weights, multiply in fp.
		xhat := New(m, k)
		scratch := make([]int8, k)
		for i := 0; i < m; i++ {
			sx, zx, _ := quantizeRow(scratch, x.Row(i))
			copy(xhat.Data[i*k:(i+1)*k], dequantizeRow(scratch, sx, zx))
		}
		want := New(m, n)
		NaiveMatMulInto(want, xhat, q.Dequantize())
		// Integer accumulation is exact; the fp reference rounds per add, so
		// agreement is close rather than bitwise.
		requireClose(t, fmt.Sprintf("QMatMulInto vs dequantized product %v", s), got, want, 1e-9)
	}
}

// TestQMatMulWithinErrorBoundOfFP: the quantized product must sit within
// the analytic per-element error bound of the float64 ground truth:
// |Δ| ≤ Σ_p (|x_p|·sw_j + |w_pj|·sx_i + sx_i·sw_j), with per-value
// quantization error at most one scale step (rounding plus zero-point
// rounding). This is the end-to-end accuracy contract the nn confidence
// budget builds on.
func TestQMatMulWithinErrorBoundOfFP(t *testing.T) {
	root := rng.New(64)
	for si, s := range [][3]int{{5, 129, 3}, {64, 64, 64}, {97, 130, 61}, {1, 300, 257}} {
		m, k, n := s[0], s[1], s[2]
		r := root.Split("qerr", si)
		x, w := New(m, k), New(k, n)
		fillRandom(r, x, w)
		q := QuantizePerCol(w)

		got, want := New(m, n), New(m, n)
		QMatMulInto(got, x, q)
		NaiveMatMulInto(want, x, w)

		scratch := make([]int8, k)
		for i := 0; i < m; i++ {
			sx, _, _ := quantizeRow(scratch, x.Row(i))
			for j := 0; j < n; j++ {
				sw := q.Scales[j]
				bound := 0.0
				for p := 0; p < k; p++ {
					bound += math.Abs(x.Data[i*k+p])*sw + math.Abs(w.Data[p*n+j])*sx + sx*sw
				}
				diff := math.Abs(got.Data[i*n+j] - want.Data[i*n+j])
				if diff > bound {
					t.Fatalf("shape %v element [%d,%d]: |Δ| = %g exceeds analytic bound %g", s, i, j, diff, bound)
				}
			}
		}
	}
}

// TestQuantizeRoundTrip: per-value round-trip error is at most one scale
// step, and exact zeros survive quantization exactly — the property the
// im2col padding path depends on.
func TestQuantizeRoundTrip(t *testing.T) {
	r := rng.New(65)
	w := New(37, 29)
	fillRandom(r, w)
	// Plant exact zeros, including a whole column.
	for i := 0; i < len(w.Data); i += 7 {
		w.Data[i] = 0
	}
	for p := 0; p < 37; p++ {
		w.Data[p*29+11] = 0
	}
	q := QuantizePerCol(w)
	back := q.Dequantize()
	for i := range w.Data {
		scale := q.Scales[i%29]
		if w.Data[i] == 0 {
			if back.Data[i] != 0 {
				t.Fatalf("exact zero at %d round-tripped to %v", i, back.Data[i])
			}
		} else if diff := math.Abs(back.Data[i] - w.Data[i]); diff > scale {
			t.Fatalf("element %d round-trip error %g exceeds scale %g", i, diff, scale)
		}
	}
}

// TestQuantizeDegenerate: constant and all-zero channels must not divide by
// zero, and non-finite inputs must clamp deterministically instead of
// poisoning the int8 data.
func TestQuantizeDegenerate(t *testing.T) {
	w := FromSlice([]float64{
		0, 0, 5, math.NaN(),
		0, 0, 5, math.Inf(1),
		0, 0, 5, math.Inf(-1),
	}, 3, 4)
	q := QuantizePerCol(w)
	back := q.Dequantize()
	for p := 0; p < 3; p++ {
		if back.Data[p*4+0] != 0 || back.Data[p*4+1] != 0 {
			t.Fatalf("zero channel round-tripped to %v / %v", back.Data[p*4+0], back.Data[p*4+1])
		}
		if math.Abs(back.Data[p*4+2]-5) > q.Scales[2] {
			t.Fatalf("constant channel round-tripped to %v", back.Data[p*4+2])
		}
		if v := back.Data[p*4+3]; math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite input leaked through quantization: %v", v)
		}
	}
	// And the kernels stay finite on such weights.
	x := New(2, 3)
	x.Data = []float64{1, 2, 3, -1, -2, -3}
	dst := New(2, 4)
	QMatMulInto(dst, x, q)
	for i, v := range dst.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("QMatMulInto produced non-finite element %d: %v", i, v)
		}
	}
}

// TestQTensorBytes: the resident footprint is the int8 payload plus the
// 2-bytes-per-weight SWAR mirror and the per-channel params — at least 4x
// smaller than the fp representation it replaces (Value + Grad, 16 bytes
// per weight), which is the shrink the registry accounting is built on.
func TestQTensorBytes(t *testing.T) {
	w := New(256, 64)
	q := QuantizePerCol(w)
	want := 256*64 + 8*256*(64/4) + 16*64 // int8 + packed mirror + channel params
	if q.Bytes() != want {
		t.Fatalf("Bytes() = %d, want %d", q.Bytes(), want)
	}
	if ratio := float64(16*w.Len()) / float64(q.Bytes()); ratio < 4 {
		t.Fatalf("fp-resident/int8 size ratio %.1f, want ≥ 4", ratio)
	}
}

// TestQMatMulShapePanicsReportShapes mirrors TestMatMulShapePanicsReportShapes
// for the quantized validators.
func TestQMatMulShapePanicsReportShapes(t *testing.T) {
	qcol := QuantizePerCol(New(3, 5)) // [k=3, n=5]
	cases := []struct {
		name string
		call func()
		want []string
	}{
		{"QMatMulInto-inner", func() { QMatMulInto(New(2, 5), New(2, 4), qcol) }, []string{"[2 4]", "[3 5]", "shape mismatch"}},
		{"QMatMulInto-dst", func() { QMatMulInto(New(9, 9), New(2, 3), qcol) }, []string{"[2 3]", "[9 9]", "shape mismatch"}},
		{"QMatMulInto-rank", func() { QMatMulInto(New(2, 5), New(2, 3, 1), qcol) }, []string{"requires 2-D", "[2 3 1]"}},
		{"NaiveQMatMulInto", func() { NaiveQMatMulInto(New(2, 5), New(2, 4), qcol) }, []string{"[2 4]", "[3 5]", "shape mismatch"}},
		{"QuantizePerCol-rank", func() { QuantizePerCol(New(2, 3, 1)) }, []string{"2-D", "[2 3 1]"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("expected shape panic")
				}
				msg := r.(string)
				if !strings.Contains(msg, "tensor: ") {
					t.Fatalf("panic %q lacks the tensor: prefix", msg)
				}
				for _, want := range tc.want {
					if !strings.Contains(msg, want) {
						t.Fatalf("panic %q does not mention %q", msg, want)
					}
				}
			}()
			tc.call()
		})
	}
}

// TestQMatMulOverflowBoundPanics: reduction dims past qMaxK would overflow
// the int32 accumulator silently; the validators must refuse them.
func TestQMatMulOverflowBoundPanics(t *testing.T) {
	k := qMaxK + 1
	q := &QTensor{
		Data:       make([]int8, k),
		Scales:     []float64{1},
		ZeroPoints: []int32{0},
		Sums:       []int32{0},
		rows:       k,
		cols:       1,
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected overflow-bound panic")
		}
		if msg := r.(string); !strings.Contains(msg, "int32-safe bound") {
			t.Fatalf("panic %q does not mention the overflow bound", msg)
		}
	}()
	QMatMulInto(New(1, 1), New(1, k), q)
}
