package tensor

import (
	"encoding/binary"
	"math"
	"testing"

	"bprom/internal/rng"
)

// Native fuzz targets: shapes and data decode from fuzz input, and the tiled
// parallel kernels must agree with the naive references for every input the
// fuzzer invents. CI runs each with a short -fuzztime as a smoke pass; the
// checked-in corpus below covers the tile boundaries. Raw fuzz bytes overlay
// the deterministic rng fill so the engine can steer bit patterns
// (denormals, huge magnitudes, exact zeros — which exercise the fast path's
// zero-skipping) into the tensors; NaN/Inf are sanitized because comparing
// them is not meaningful for a parity check.

// fillFromFuzz fills dst from a seeded rng stream, then overlays float64s
// decoded from raw, clamping non-finite values to something comparable.
func fillFromFuzz(dst []float64, seed uint64, raw []byte) {
	rng.New(seed).Gaussian(dst, 0, 1)
	for i := 0; i+8 <= len(raw) && i/8 < len(dst); i += 8 {
		v := math.Float64frombits(binary.LittleEndian.Uint64(raw[i : i+8]))
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = float64(i % 17)
		}
		dst[i/8] = v
	}
}

func FuzzMatMulInto(f *testing.F) {
	f.Add(uint8(2), uint8(3), uint8(4), uint64(1), []byte{})
	f.Add(uint8(1), uint8(130), uint8(1), uint64(7), []byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint8(65), uint8(128), uint8(33), uint64(9), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(255), uint8(255), uint8(255), uint64(3), []byte{0xff, 0xff})
	f.Add(uint8(143), uint8(26), uint8(7), uint64(11), []byte{}) // conv1's im2col product: k 27, 8 columns
	f.Add(uint8(35), uint8(71), uint8(4), uint64(12), []byte{})  // k 72, 5 columns: one sweep and a remainder
	f.Fuzz(func(t *testing.T, rm, rk, rn uint8, seed uint64, raw []byte) {
		m := int(rm)%66 + 1
		k := int(rk)%140 + 1 // straddles tileK via k near 128 with m*n*k over the threshold
		n := int(rn)%66 + 1
		a, b := New(m, k), New(k, n)
		fillFromFuzz(a.Data, seed, raw)
		half := len(raw) / 2
		fillFromFuzz(b.Data, seed+1, raw[half:])

		got, want := New(m, n), New(m, n)
		MatMulInto(got, a, b)
		NaiveMatMulInto(want, a, b)
		for i := range got.Data {
			diff := math.Abs(got.Data[i] - want.Data[i])
			if diff > 1e-9*math.Max(1, math.Abs(want.Data[i])) {
				t.Fatalf("tiled != naive at [%d,%d,%d] element %d: got %v, want %v",
					m, k, n, i, got.Data[i], want.Data[i])
			}
		}

		// The transposed variants must agree on the same data viewed
		// through their own layouts.
		at := FromSlice(append([]float64(nil), a.Data...), m, k).Transpose() // [k,m]
		gotA := New(m, n)
		MatMulTransAInto(gotA, at, b)
		for i := range gotA.Data {
			diff := math.Abs(gotA.Data[i] - want.Data[i])
			if diff > 1e-9*math.Max(1, math.Abs(want.Data[i])) {
				t.Fatalf("TransA != naive at [%d,%d,%d] element %d: got %v, want %v",
					m, k, n, i, gotA.Data[i], want.Data[i])
			}
		}
		// TransB is one dot product per element, summed p ascending in the
		// register-blocked kernel exactly as in its own naive form, so this
		// leg is held to the bits (an overflowed Inf − Inf is NaN on both
		// sides).
		bt := FromSlice(append([]float64(nil), b.Data...), k, n).Transpose() // [n,k]
		gotB, wantB := New(m, n), New(m, n)
		MatMulTransBInto(gotB, a, bt)
		NaiveMatMulTransBInto(wantB, a, bt)
		for i := range gotB.Data {
			g, w := gotB.Data[i], wantB.Data[i]
			if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
				t.Fatalf("TransB != naive TransB at [%d,%d,%d] element %d: got %v, want %v",
					m, k, n, i, g, w)
			}
		}
	})
}

// FuzzQMatMul steers arbitrary bit patterns through the quantized kernel
// and demands bitwise agreement with NaiveQMatMulInto —
// integer accumulation is exact, so unlike the float64 targets there is no
// tolerance at all. Weight quantization happens inside the target, so the
// fuzzer also exercises the per-channel range/zero-point derivation on
// denormals, huge magnitudes and exact zeros.
func FuzzQMatMul(f *testing.F) {
	f.Add(uint8(2), uint8(3), uint8(4), uint64(1), []byte{})
	f.Add(uint8(1), uint8(130), uint8(1), uint64(7), []byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint8(65), uint8(128), uint8(33), uint64(9), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(255), uint8(255), uint8(255), uint64(3), []byte{0xff, 0xff})
	f.Fuzz(func(t *testing.T, rm, rk, rn uint8, seed uint64, raw []byte) {
		m := int(rm)%66 + 1
		k := int(rk)%140 + 1
		n := int(rn)%66 + 1
		x, w := New(m, k), New(k, n)
		fillFromFuzz(x.Data, seed, raw)
		half := len(raw) / 2
		fillFromFuzz(w.Data, seed+1, raw[half:])

		// Bitwise equality, NaN-tolerant: extreme fuzz magnitudes can
		// overflow the scale product to Inf and a zero correction yields
		// NaN on both sides identically.
		same := func(a, b float64) bool {
			return a == b || (math.IsNaN(a) && math.IsNaN(b))
		}

		q := QuantizePerCol(w)
		got, want := New(m, n), New(m, n)
		QMatMulInto(got, x, q)
		NaiveQMatMulInto(want, x, q)
		for i := range got.Data {
			if !same(got.Data[i], want.Data[i]) {
				t.Fatalf("QMatMulInto != naive at [%d,%d,%d] element %d: got %v, want %v",
					m, k, n, i, got.Data[i], want.Data[i])
			}
		}
	})
}

func FuzzIm2Col(f *testing.F) {
	f.Add(uint8(1), uint8(4), uint8(4), uint8(3), uint8(3), uint8(1), uint8(1), uint64(1), []byte{})
	f.Add(uint8(3), uint8(8), uint8(8), uint8(3), uint8(3), uint8(1), uint8(1), uint64(2), []byte{9, 9, 9, 9, 9, 9, 9, 9})
	f.Add(uint8(2), uint8(13), uint8(7), uint8(2), uint8(4), uint8(2), uint8(2), uint64(5), []byte{})
	f.Add(uint8(5), uint8(30), uint8(30), uint8(5), uint8(5), uint8(1), uint8(2), uint64(8), []byte{1})
	f.Fuzz(func(t *testing.T, rc, rh, rw, rkh, rkw, rstride, rpad uint8, seed uint64, raw []byte) {
		d := ConvDims{
			InC:    int(rc)%6 + 1,
			InH:    int(rh)%40 + 1,
			InW:    int(rw)%40 + 1,
			OutC:   1, // OutC does not affect im2col/col2im
			KH:     int(rkh)%7 + 1,
			KW:     int(rkw)%7 + 1,
			Stride: int(rstride)%4 + 1,
			Pad:    int(rpad) % 4,
		}
		if err := d.Resolve(); err != nil {
			return // impossible geometry: nothing to compare
		}
		k := d.InC * d.KH * d.KW

		x := make([]float64, d.InC*d.InH*d.InW)
		fillFromFuzz(x, seed, raw)
		got := New(d.OutH*d.OutW, k)
		want := New(d.OutH*d.OutW, k)
		Im2Col(x, d, got)
		NaiveIm2Col(x, d, want)
		for i := range got.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("Im2Col != naive for %+v at element %d: got %v, want %v",
					d, i, got.Data[i], want.Data[i])
			}
		}

		// Col2Im: the parallel scatter must match the naive one bitwise —
		// per-pixel accumulation order is channel-local and identical.
		g := New(d.OutH*d.OutW, k)
		fillFromFuzz(g.Data, seed+2, raw)
		gotDx := make([]float64, len(x))
		wantDx := make([]float64, len(x))
		Col2Im(g, d, gotDx)
		NaiveCol2Im(g, d, wantDx)
		for i := range gotDx {
			if gotDx[i] != wantDx[i] {
				t.Fatalf("Col2Im != naive for %+v at element %d: got %v, want %v",
					d, i, gotDx[i], wantDx[i])
			}
		}
	})
}
