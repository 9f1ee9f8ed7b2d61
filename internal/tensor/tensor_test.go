package tensor

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"bprom/internal/rng"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewZeroFilled(t *testing.T) {
	x := New(2, 3, 4)
	if x.Len() != 24 {
		t.Fatalf("Len = %d, want 24", x.Len())
	}
	for _, v := range x.Data {
		if v != 0 {
			t.Fatal("New not zero-filled")
		}
	}
	if x.Rank() != 3 || x.Dim(1) != 3 {
		t.Fatalf("shape metadata wrong: rank=%d dim1=%d", x.Rank(), x.Dim(1))
	}
}

func TestFromSliceSharesData(t *testing.T) {
	d := []float64{1, 2, 3, 4}
	x := FromSlice(d, 2, 2)
	x.Data[0] = 9
	if d[0] != 9 {
		t.Fatal("FromSlice must not copy")
	}
}

func TestRebindReusesHeader(t *testing.T) {
	tt := New(2, 3)
	data := []float64{1, 2, 3, 4}
	tt.Rebind(data, 4, 1)
	if tt.Rank() != 2 || tt.Dim(0) != 4 || tt.Dim(1) != 1 || tt.Len() != 4 {
		t.Fatalf("shape after Rebind = %v", tt.Shape())
	}
	tt.Data[3] = 9
	if data[3] != 9 {
		t.Fatal("Rebind should share the backing slice")
	}
	var zero Tensor
	zero.Rebind(data, 2, 2)
	if zero.At(1, 1) != 9 {
		t.Fatalf("zero-value header after Rebind: %v %v", zero.Shape(), zero.Data)
	}
	if allocs := testing.AllocsPerRun(10, func() { tt.Rebind(data, 2, 2) }); allocs != 0 {
		t.Fatalf("Rebind on a warm header allocates %v times", allocs)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	tt.Rebind(data, 3, 2)
}

func TestFromSliceShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(3, 4)
	x.Set(7.5, 2, 1)
	if x.At(2, 1) != 7.5 {
		t.Fatal("At/Set round trip failed")
	}
	if x.Data[2*4+1] != 7.5 {
		t.Fatal("row-major layout violated")
	}
}

func TestReshapeSharesAndValidates(t *testing.T) {
	x := New(2, 6)
	y := x.Reshape(3, 4)
	y.Data[0] = 5
	if x.Data[0] != 5 {
		t.Fatal("Reshape must share data")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad reshape")
		}
	}()
	x.Reshape(5, 5)
}

func TestCloneIndependent(t *testing.T) {
	x := FromSlice([]float64{1, 2}, 2)
	y := x.Clone()
	y.Data[0] = 99
	if x.Data[0] != 1 {
		t.Fatal("Clone must deep-copy")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := FromSlice([]float64{4, 5, 6}, 3)
	dst := New(3)
	AddInto(dst, a, b)
	if dst.Data[2] != 9 {
		t.Fatalf("AddInto got %v", dst.Data)
	}
	SubInto(dst, b, a)
	if dst.Data[0] != 3 {
		t.Fatalf("SubInto got %v", dst.Data)
	}
	MulInto(dst, a, b)
	if dst.Data[1] != 10 {
		t.Fatalf("MulInto got %v", dst.Data)
	}
	AXPY(2, a, dst) // dst = (4,10,18) + 2*(1,2,3)
	if dst.Data[2] != 24 {
		t.Fatalf("AXPY got %v", dst.Data)
	}
}

func TestScaleClampApply(t *testing.T) {
	x := FromSlice([]float64{-2, 0.5, 3}, 3)
	x.Scale(2)
	x.Clamp(-1, 4)
	if x.Data[0] != -1 || x.Data[2] != 4 {
		t.Fatalf("Scale/Clamp got %v", x.Data)
	}
	x.Apply(func(v float64) float64 { return v + 1 })
	if x.Data[1] != 2 {
		t.Fatalf("Apply got %v", x.Data)
	}
}

func TestReductions(t *testing.T) {
	x := FromSlice([]float64{3, -1, 4}, 3)
	if x.Sum() != 6 {
		t.Fatalf("Sum = %v", x.Sum())
	}
	if !almostEq(x.Mean(), 2, 1e-12) {
		t.Fatalf("Mean = %v", x.Mean())
	}
	if x.MaxIndex() != 2 {
		t.Fatalf("MaxIndex = %d", x.MaxIndex())
	}
	if !almostEq(x.Norm2(), math.Sqrt(26), 1e-12) {
		t.Fatalf("Norm2 = %v", x.Norm2())
	}
	if Dot(x, x) != 26 {
		t.Fatalf("Dot = %v", Dot(x, x))
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("MatMul[%d] = %v, want %v", i, c.Data[i], w)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	r := rng.New(5)
	a := New(4, 4)
	r.Gaussian(a.Data, 0, 1)
	id := New(4, 4)
	for i := 0; i < 4; i++ {
		id.Set(1, i, i)
	}
	c := MatMul(a, id)
	for i := range a.Data {
		if !almostEq(c.Data[i], a.Data[i], 1e-12) {
			t.Fatal("A @ I != A")
		}
	}
}

// naive reference implementation for property tests
func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += a.At(i, p) * b.At(p, j)
			}
			out.Set(s, i, j)
		}
	}
	return out
}

func TestMatMulMatchesNaiveProperty(t *testing.T) {
	f := func(seed uint64, rm, rk, rn uint8) bool {
		m, k, n := int(rm%6)+1, int(rk%6)+1, int(rn%6)+1
		r := rng.New(seed)
		a, b := New(m, k), New(k, n)
		r.Gaussian(a.Data, 0, 1)
		r.Gaussian(b.Data, 0, 1)
		got, want := MatMul(a, b), naiveMatMul(a, b)
		for i := range got.Data {
			if !almostEq(got.Data[i], want.Data[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulTransAMatchesExplicit(t *testing.T) {
	r := rng.New(7)
	a, b := New(5, 3), New(5, 4)
	r.Gaussian(a.Data, 0, 1)
	r.Gaussian(b.Data, 0, 1)
	dst := New(3, 4)
	MatMulTransAInto(dst, a, b)
	want := MatMul(a.Transpose(), b)
	for i := range dst.Data {
		if !almostEq(dst.Data[i], want.Data[i], 1e-9) {
			t.Fatal("MatMulTransAInto mismatch vs explicit transpose")
		}
	}
}

func TestMatMulTransBMatchesExplicit(t *testing.T) {
	r := rng.New(8)
	a, b := New(5, 3), New(4, 3)
	r.Gaussian(a.Data, 0, 1)
	r.Gaussian(b.Data, 0, 1)
	dst := New(5, 4)
	MatMulTransBInto(dst, a, b)
	want := MatMul(a, b.Transpose())
	for i := range dst.Data {
		if !almostEq(dst.Data[i], want.Data[i], 1e-9) {
			t.Fatal("MatMulTransBInto mismatch vs explicit transpose")
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed uint64, rm, rn uint8) bool {
		m, n := int(rm%5)+1, int(rn%5)+1
		r := rng.New(seed)
		a := New(m, n)
		r.Gaussian(a.Data, 0, 1)
		b := a.Transpose().Transpose()
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestAddRowVecAndColSums(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	dst := New(2, 2)
	AddRowVecInto(dst, a, []float64{10, 20})
	if dst.At(1, 1) != 24 || dst.At(0, 0) != 11 {
		t.Fatalf("AddRowVecInto got %v", dst.Data)
	}
	sums := make([]float64, 2)
	ColSumsInto(sums, a)
	if sums[0] != 4 || sums[1] != 6 {
		t.Fatalf("ColSumsInto got %v", sums)
	}
}

func TestRowView(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	row := a.Row(1)
	row[0] = 99
	if a.At(1, 0) != 99 {
		t.Fatal("Row must return a view")
	}
}

func TestIm2ColIdentityKernel(t *testing.T) {
	// 1x1 kernel, stride 1, no pad: im2col is the identity (per channel).
	d := ConvDims{InC: 2, InH: 3, InW: 3, OutC: 1, KH: 1, KW: 1, Stride: 1}
	if err := d.Resolve(); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 2*3*3)
	for i := range x {
		x[i] = float64(i)
	}
	cols := New(d.OutH*d.OutW, d.InC)
	Im2Col(x, d, cols)
	for pos := 0; pos < 9; pos++ {
		if cols.At(pos, 0) != float64(pos) || cols.At(pos, 1) != float64(9+pos) {
			t.Fatalf("im2col 1x1 mismatch at %d", pos)
		}
	}
}

func TestIm2ColPaddingZeros(t *testing.T) {
	d := ConvDims{InC: 1, InH: 2, InW: 2, OutC: 1, KH: 3, KW: 3, Stride: 1, Pad: 1}
	if err := d.Resolve(); err != nil {
		t.Fatal(err)
	}
	if d.OutH != 2 || d.OutW != 2 {
		t.Fatalf("resolved %dx%d, want 2x2", d.OutH, d.OutW)
	}
	x := []float64{1, 2, 3, 4}
	cols := New(d.OutH*d.OutW, 9)
	Im2Col(x, d, cols)
	// Output position (0,0): window centered at (0,0); top row and left col
	// fall in padding.
	want0 := []float64{0, 0, 0, 0, 1, 2, 0, 3, 4}
	for i, w := range want0 {
		if cols.At(0, i) != w {
			t.Fatalf("padded im2col row0[%d] = %v, want %v", i, cols.At(0, i), w)
		}
	}
}

func TestCol2ImAdjointOfIm2Col(t *testing.T) {
	// <Im2Col(x), g> == <x, Col2Im(g)> must hold for the pair to implement a
	// correct linear operator and its transpose (the backprop requirement).
	f := func(seed uint64) bool {
		d := ConvDims{InC: 2, InH: 5, InW: 4, OutC: 1, KH: 3, KW: 3, Stride: 2, Pad: 1}
		if err := d.Resolve(); err != nil {
			return false
		}
		r := rng.New(seed)
		x := make([]float64, d.InC*d.InH*d.InW)
		r.Gaussian(x, 0, 1)
		cols := New(d.OutH*d.OutW, d.InC*d.KH*d.KW)
		Im2Col(x, d, cols)
		g := New(d.OutH*d.OutW, d.InC*d.KH*d.KW)
		r.Gaussian(g.Data, 0, 1)
		lhs := Dot(cols, g)
		dx := make([]float64, len(x))
		Col2Im(g, d, dx)
		rhs := 0.0
		for i := range x {
			rhs += x[i] * dx[i]
		}
		return almostEq(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestConvDimsResolveErrors(t *testing.T) {
	d := ConvDims{InC: 1, InH: 2, InW: 2, KH: 5, KW: 5, Stride: 1}
	if err := d.Resolve(); err == nil {
		t.Fatal("expected error for kernel larger than input")
	}
	d = ConvDims{InC: 1, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 0}
	if err := d.Resolve(); err == nil {
		t.Fatal("expected error for zero stride")
	}
	// A 4-tall kernel over a 1-row input padded to 3 overhangs by less than
	// the stride of 2: truncating division made this one window.
	d = ConvDims{InC: 1, InH: 1, InW: 5, KH: 4, KW: 4, Stride: 2, Pad: 1}
	if err := d.Resolve(); err == nil {
		t.Fatalf("expected error for a kernel taller than the padded input, resolved %dx%d", d.OutH, d.OutW)
	}
}

func TestAvgPoolForwardBackward(t *testing.T) {
	x := New(1, 2, 2, 2)
	copy(x.Data, []float64{1, 2, 3, 4, 10, 20, 30, 40})
	p := AvgPool2D(x)
	if !almostEq(p.At(0, 0), 2.5, 1e-12) || !almostEq(p.At(0, 1), 25, 1e-12) {
		t.Fatalf("AvgPool2D got %v", p.Data)
	}
	g := FromSlice([]float64{4, 8}, 1, 2)
	back := AvgPool2DBackward(g, 2, 2)
	if back.At(0, 0, 1, 1) != 1 || back.At(0, 1, 0, 0) != 2 {
		t.Fatalf("AvgPool2DBackward got %v", back.Data)
	}
}

// TestLengthMismatchPanicsReportShapes covers every checkSameLen panic path:
// the message must name the operation and both offending shapes (not just
// lengths), so a failure inside a deep training loop is diagnosable.
func TestLengthMismatchPanicsReportShapes(t *testing.T) {
	a23 := New(2, 3) // 6 elements
	b4 := New(4)     // 4 elements
	cases := []struct {
		name string
		call func()
	}{
		{"AddInto", func() { AddInto(New(2, 3), a23, b4) }},
		{"AddInto-dst", func() { AddInto(b4, a23, a23) }},
		{"SubInto", func() { SubInto(New(2, 3), a23, b4) }},
		{"MulInto", func() { MulInto(New(2, 3), a23, b4) }},
		{"AXPY", func() { AXPY(1, b4, a23) }},
		{"Dot", func() { Dot(a23, b4) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("expected panic for length mismatch")
				}
				msg, ok := r.(string)
				if !ok {
					t.Fatalf("panic value %T, want string", r)
				}
				for _, want := range []string{"[2 3]", "[4]", "length mismatch"} {
					if !strings.Contains(msg, want) {
						t.Fatalf("panic %q does not mention %q", msg, want)
					}
				}
			}()
			tc.call()
		})
	}
}

// TestMatMulShapePanicsReportShapes covers the matmul shape validators for
// all three variants and their naive references.
func TestMatMulShapePanicsReportShapes(t *testing.T) {
	cases := []struct {
		name string
		call func()
	}{
		{"MatMulInto-inner", func() { MatMulInto(New(2, 5), New(2, 3), New(4, 5)) }},
		{"MatMulInto-dst", func() { MatMulInto(New(9, 9), New(2, 3), New(3, 5)) }},
		{"MatMulInto-rank", func() { MatMulInto(New(2, 5), New(2, 3, 1), New(3, 5)) }},
		{"MatMulTransAInto", func() { MatMulTransAInto(New(3, 5), New(2, 3), New(4, 5)) }},
		{"MatMulTransBInto", func() { MatMulTransBInto(New(2, 4), New(2, 3), New(4, 9)) }},
		{"NaiveMatMulInto", func() { NaiveMatMulInto(New(2, 5), New(2, 3), New(4, 5)) }},
		{"NaiveMatMulTransAInto", func() { NaiveMatMulTransAInto(New(3, 5), New(2, 3), New(4, 5)) }},
		{"NaiveMatMulTransBInto", func() { NaiveMatMulTransBInto(New(2, 4), New(2, 3), New(4, 9)) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("expected shape panic")
				}
				msg := r.(string)
				if !strings.Contains(msg, "[2 3") || !strings.Contains(msg, "tensor: ") {
					t.Fatalf("panic %q does not report the offending shapes", msg)
				}
			}()
			tc.call()
		})
	}
}

func BenchmarkMatMul64(b *testing.B) {
	r := rng.New(1)
	a, c := New(64, 64), New(64, 64)
	r.Gaussian(a.Data, 0, 1)
	r.Gaussian(c.Data, 0, 1)
	dst := New(64, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, a, c)
	}
}
