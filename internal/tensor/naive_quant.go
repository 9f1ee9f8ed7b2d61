package tensor

// Naive reference form of the quantized kernel (quant.go).
//
// Like naive.go, it is deliberately free of unrolling, tiling and parallel
// dispatch so a bug in the fast path cannot hide in a shared shortcut. It
// DOES share the canonical row quantizer (quantizeRow) and the
// dequantization correction (QTensor.dequant) with the fast kernel — those
// are part of the quantization scheme's definition, not an optimization —
// which is why the parity harness also bounds the quantized results against
// the float64 NaiveMatMulInto output: a bug in the shared pieces would
// survive Q-vs-NaiveQ parity but not the fp error bound.
//
// Integer accumulation is exact and the dequantization expression has a
// fixed evaluation order, so the fast kernel must match it bitwise.

// NaiveQMatMulInto computes dst = x @ q for a quantized q with the
// straightforward triple loop and a single int32 accumulator.
func NaiveQMatMulInto(dst, x *Tensor, q *QTensor) {
	m, k, n := checkQMatMulShapes("NaiveQMatMulInto", dst, x, q)
	qx := make([]int8, k)
	for i := 0; i < m; i++ {
		sx, zx, sumX := quantizeRow(qx, x.Data[i*k:(i+1)*k])
		for j := 0; j < n; j++ {
			var s int32
			for p := 0; p < k; p++ {
				s += int32(qx[p]) * int32(q.Data[p*n+j])
			}
			dst.Data[i*n+j] = q.dequant(s, j, sx, zx, sumX)
		}
	}
}
