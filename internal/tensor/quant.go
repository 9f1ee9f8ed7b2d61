package tensor

// Reduced-precision (int8) matmul kernel family.
//
// A QTensor is a 2-D weight matrix quantized to int8 with per-channel affine
// parameters (scale + zero-point), where "channel" is the output dimension:
// columns for the [k,n] layout consumed by QMatMulInto (the Dense layer's
// x @ W), rows for the [n,k] layout consumed by QMatMulTransBInto (the
// Conv2D layer's im2col product col @ Wᵀ). Activations are quantized on the
// fly, one affine pair per row, so every matmul is pure int8×int8 → int32
// arithmetic followed by a per-element dequantization:
//
//	dst[i][j] = sx_i·sw_j·( acc[i][j] − zw_j·Σp qx[i][p] − zx_i·Σp qw[p][j] + k·zx_i·zw_j )
//
// where acc is the raw int32 dot product of the quantized operands and the
// correction terms fold both zero-points back out (the per-channel weight
// sums are precomputed at quantization time; the per-row activation sums
// fall out of the row quantization pass). Integer accumulation is exact, so
// the fast kernels are *bitwise* reproducible against the NaiveQ* reference
// forms (naive_quant.go) and under any worker-pool size — the parity/fuzz
// harness pins both, exactly like the float64 kernels.
//
// The im2col path stays float64: Im2Col is a pure gather with no arithmetic,
// so the conv layer feeds its float64 col matrix straight into
// QMatMulTransBInto, which quantizes the gathered rows on the fly. Padding
// zeros survive quantization exactly — the row quantizer always includes 0
// in the clamped range, so 0 maps to the zero-point and back to exactly 0.
//
// The inner loops are 8-wide unrolled and gather-free. QMatMulInto is the
// throughput kernel: it carries a SWAR-packed mirror of the weights (four
// columns per uint64, 16-bit lanes, operands biased to unsigned) so one
// 64-bit multiply performs four multiply-accumulates — pure integer, still
// exact, and ~2-3x the fp64 kernel's single-core throughput without any
// architecture-specific code. QMatMulTransBInto is the plain unrolled
// signed form kept for the [n,k] layout; throughput-sensitive callers
// (the conv path) pre-transpose into the per-column layout instead.
// Reduction dims are bounded by qMaxK so no accumulator can overflow; the
// dequantization correction runs in int64.
//
// Quantization is lossy (the fp-exact serving path remains the default
// everywhere); the quantized path trades a bounded confidence error for
// ~2x single-core matmul throughput and 8x smaller weight bytes. The nn
// layer owns that trade-off (Model.Quantize); nothing here is invoked
// unless a caller explicitly quantizes.

import (
	"fmt"
	"math"
	"sync"
)

// qMaxK bounds the reduction dimension of the quantized kernels. The SWAR
// fast path accumulates unsigned biased products (≤ 255·255 = 65025) in
// 32-bit sublanes of a uint64, which stays exact for up to 2^16 terms
// (65025·2^16 < 2^32); the signed path's int32 accumulator is safe to 2^17,
// so the SWAR bound is the binding one. Larger reductions would overflow
// silently; the shape checks panic instead.
const qMaxK = 1 << 16

// QTensor is an int8-quantized 2-D matrix with per-channel affine
// parameters. Channels run over the output dimension: columns when perRow
// is false (QuantizePerCol, the [k,n] Dense weight layout), rows when
// perRow is true (QuantizePerRow, the [n,k] transposed-B layout). The
// fields are read-only after construction; a QTensor is safe for any number
// of concurrent kernel calls.
type QTensor struct {
	// Data holds the quantized values in the source tensor's row-major
	// layout.
	Data []int8
	// Scales and ZeroPoints are the per-channel affine parameters:
	// value ≈ scale·(q − zeroPoint).
	Scales     []float64
	ZeroPoints []int32
	// Sums holds the per-channel sums of Data, precomputed so the kernels
	// can fold the activation zero-point back out without a second pass.
	Sums []int32

	// packed (per-column layout only) holds the weights biased to unsigned
	// (q+128 ∈ [0,255]) and packed four adjacent columns per uint64 as
	// 16-bit lanes: the SWAR inner loop multiplies a whole lane group by a
	// biased activation scalar with one 64-bit multiply. Layout is
	// group-major — packed[g*rows+p] covers columns 4g..4g+3 of weight row
	// p — so the reduction walks packGroups contiguous streams. Remainder
	// columns (cols mod 4) run through the scalar path over Data.
	packed     []uint64
	packGroups int

	rows, cols int
	perRow     bool
}

// Shape returns the quantized matrix's dimensions (same layout as the
// source tensor). Callers must not mutate the result.
func (q *QTensor) Shape() []int { return []int{q.rows, q.cols} }

// PerRow reports the channel axis: true for per-row channels (the [n,k]
// QMatMulTransBInto layout), false for per-column channels ([k,n]).
func (q *QTensor) PerRow() bool { return q.perRow }

// Bytes reports the resident size of the quantized representation: the
// int8 data, the SWAR-packed mirror, and the per-channel parameter arrays.
func (q *QTensor) Bytes() int {
	return len(q.Data) + 8*len(q.packed) + 8*len(q.Scales) + 4*len(q.ZeroPoints) + 4*len(q.Sums)
}

// reduceDim is the length of the dimension the kernels sum over.
func (q *QTensor) reduceDim() int {
	if q.perRow {
		return q.cols
	}
	return q.rows
}

// rangeOf scans vals at the given stride for the [lo, hi] envelope,
// ignoring non-finite values — a NaN or ±Inf must not blow up the channel
// scale; quantizeValue clamps such values to the ends of the int8 range
// instead.
func rangeOf(vals []float64, stride int) (lo, hi float64) {
	for i := 0; i < len(vals); i += stride {
		v := vals[i]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// affineParams derives the (scale, zeroPoint) pair mapping [lo, hi] onto
// the full int8 range. The range is widened to include 0 so exact zeros
// (padding, ReLU outputs) quantize to the zero-point and dequantize back to
// exactly 0. A degenerate all-zero range gets scale 1.
func affineParams(lo, hi float64) (scale float64, zp int32) {
	lo = math.Min(lo, 0)
	hi = math.Max(hi, 0)
	scale = (hi - lo) / 255
	if scale == 0 {
		scale = 1
	}
	z := math.Round(-128 - lo/scale)
	if !(z > -129) { // also catches NaN from pathological ranges
		z = -128
	}
	if z > 127 {
		z = 127
	}
	return scale, int32(z)
}

// quantizeValue maps v onto int8 under (scale, zp), clamping to the
// representable range. Non-finite inputs clamp deterministically.
func quantizeValue(v, scale float64, zp int32) int8 {
	r := math.Round(v/scale) + float64(zp)
	if !(r > -129) { // NaN and underflow both land on the bottom of the range
		r = -128
	}
	if r > 127 {
		r = 127
	}
	return int8(r)
}

// QuantizePerCol quantizes a [k,n] matrix with one affine pair per column —
// the layout QMatMulInto consumes (columns are the output channels of
// x @ W). The source tensor is not retained.
func QuantizePerCol(t *Tensor) *QTensor {
	if t.Rank() != 2 {
		panic(fmt.Sprintf("tensor: QuantizePerCol requires a 2-D tensor, got shape %v", t.shape))
	}
	k, n := t.shape[0], t.shape[1]
	q := &QTensor{
		Data:       make([]int8, k*n),
		Scales:     make([]float64, n),
		ZeroPoints: make([]int32, n),
		Sums:       make([]int32, n),
		rows:       k,
		cols:       n,
	}
	for j := 0; j < n; j++ {
		scale, zp := affineParams(rangeOf(t.Data[j:], n))
		q.Scales[j], q.ZeroPoints[j] = scale, zp
		var sum int32
		for p := 0; p < k; p++ {
			qv := quantizeValue(t.Data[p*n+j], scale, zp)
			q.Data[p*n+j] = qv
			sum += int32(qv)
		}
		q.Sums[j] = sum
	}
	q.packGroups = n >> 2
	if q.packGroups > 0 {
		q.packed = make([]uint64, q.packGroups*k)
		for g := 0; g < q.packGroups; g++ {
			dst := q.packed[g*k : (g+1)*k]
			for p := 0; p < k; p++ {
				// Bias flip to unsigned: two's-complement int8 + 128 is the
				// same bit pattern as uint8 XOR 0x80.
				b := q.Data[p*n+g*4 : p*n+g*4+4]
				dst[p] = uint64(uint8(b[0])^0x80) |
					uint64(uint8(b[1])^0x80)<<16 |
					uint64(uint8(b[2])^0x80)<<32 |
					uint64(uint8(b[3])^0x80)<<48
			}
		}
	}
	return q
}

// QuantizePerRow quantizes an [n,k] matrix with one affine pair per row —
// the layout QMatMulTransBInto consumes (rows are the output channels of
// x @ Wᵀ, i.e. Conv2D's [OutC, InC·KH·KW] weights). The source tensor is
// not retained.
func QuantizePerRow(t *Tensor) *QTensor {
	if t.Rank() != 2 {
		panic(fmt.Sprintf("tensor: QuantizePerRow requires a 2-D tensor, got shape %v", t.shape))
	}
	n, k := t.shape[0], t.shape[1]
	q := &QTensor{
		Data:       make([]int8, n*k),
		Scales:     make([]float64, n),
		ZeroPoints: make([]int32, n),
		Sums:       make([]int32, n),
		rows:       n,
		cols:       k,
		perRow:     true,
	}
	for j := 0; j < n; j++ {
		row := t.Data[j*k : (j+1)*k]
		scale, zp := affineParams(rangeOf(row, 1))
		q.Scales[j], q.ZeroPoints[j] = scale, zp
		dst := q.Data[j*k : (j+1)*k]
		var sum int32
		for p, v := range row {
			qv := quantizeValue(v, scale, zp)
			dst[p] = qv
			sum += int32(qv)
		}
		q.Sums[j] = sum
	}
	return q
}

// Dequantize reconstructs the float64 matrix the quantized data represents
// (tests and diagnostics; the kernels never materialize it).
func (q *QTensor) Dequantize() *Tensor {
	out := New(q.rows, q.cols)
	for j := 0; j < len(q.Scales); j++ {
		scale, zp := q.Scales[j], q.ZeroPoints[j]
		if q.perRow {
			for p := 0; p < q.cols; p++ {
				out.Data[j*q.cols+p] = scale * float64(int32(q.Data[j*q.cols+p])-zp)
			}
		} else {
			for p := 0; p < q.rows; p++ {
				out.Data[p*q.cols+j] = scale * float64(int32(q.Data[p*q.cols+j])-zp)
			}
		}
	}
	return out
}

// dequant converts the raw int32 accumulator for output channel j back to
// float64, folding out both zero-points: sx/zx/sumX are the activation
// row's scale, zero-point and quantized-value sum. The correction runs in
// int64 so it cannot overflow for any reduction dim the checks admit, and
// the float expression has a fixed evaluation order, so fast and naive
// kernels (and any pool partitioning) produce identical bits.
func (q *QTensor) dequant(acc int32, j int, sx float64, zx, sumX int32) float64 {
	zw := int64(q.ZeroPoints[j])
	corr := int64(acc) - zw*int64(sumX) - int64(zx)*int64(q.Sums[j]) + int64(q.reduceDim())*int64(zx)*zw
	return sx * q.Scales[j] * float64(corr)
}

// qActs is the scratch holding one activation batch quantized row-wise:
// int8 values plus the per-row affine parameters and quantized-value sums
// the dequantization correction needs.
type qActs struct {
	data   []int8
	scales []float64
	zps    []int32
	sums   []int32
}

var qActsPool = sync.Pool{New: func() any { return new(qActs) }}

// quantizeActs quantizes every row of x (shape [m,k]) into a pooled
// scratch. Rows are independent, so unless serial is set the pass
// parallelizes on the shared pool without affecting bits. Callers release()
// the scratch when done.
func quantizeActs(x *Tensor, serial bool) *qActs {
	m, k := x.shape[0], x.shape[1]
	a := qActsPool.Get().(*qActs)
	if cap(a.data) < m*k {
		a.data = make([]int8, m*k)
	}
	a.data = a.data[:m*k]
	if cap(a.scales) < m {
		a.scales = make([]float64, m)
		a.zps = make([]int32, m)
		a.sums = make([]int32, m)
	}
	a.scales, a.zps, a.sums = a.scales[:m], a.zps[:m], a.sums[:m]
	if serial {
		a.quantizeRows(x, 0, m)
	} else {
		forEachScaled(m, k, func(lo, hi int) { a.quantizeRows(x, lo, hi) })
	}
	return a
}

// quantizeRows fills rows [lo, hi) of the scratch from x.
func (a *qActs) quantizeRows(x *Tensor, lo, hi int) {
	k := x.shape[1]
	for i := lo; i < hi; i++ {
		a.scales[i], a.zps[i], a.sums[i] = quantizeRow(a.data[i*k:(i+1)*k], x.Data[i*k:(i+1)*k])
	}
}

func (a *qActs) release() { qActsPool.Put(a) }

// quantizeRow quantizes one activation row with its own affine pair and
// returns (scale, zeroPoint, sum of quantized values). This is the
// canonical row quantizer — the fast and naive kernels share it, so the
// parity harness exercises the integer matmul and dequantization machinery
// against an independent reference while the (exact, branch-free) rounding
// policy stays single-sourced.
func quantizeRow(dst []int8, row []float64) (scale float64, zp int32, sum int32) {
	scale, zp = affineParams(rangeOf(row, 1))
	for i, v := range row {
		qv := quantizeValue(v, scale, zp)
		dst[i] = qv
		sum += int32(qv)
	}
	return scale, zp, sum
}

// checkQMatMulShapes validates dst = x @ q for a per-column QTensor and
// returns (m, k, n).
func checkQMatMulShapes(op string, dst, x *Tensor, q *QTensor) (m, k, n int) {
	if x.Rank() != 2 || dst.Rank() != 2 {
		panic(fmt.Sprintf("tensor: %s requires 2-D tensors, got %v @ %v -> %v", op, x.shape, q.Shape(), dst.shape))
	}
	if q.perRow {
		panic(fmt.Sprintf("tensor: %s requires a per-column QTensor (QuantizePerCol), got per-row %v", op, q.Shape()))
	}
	m, k = x.shape[0], x.shape[1]
	n = q.cols
	if k != q.rows || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v @ %v -> %v", op, x.shape, q.Shape(), dst.shape))
	}
	if k > qMaxK {
		panic(fmt.Sprintf("tensor: %s reduction dim %d exceeds the int32-safe bound %d", op, k, qMaxK))
	}
	return m, k, n
}

// checkQMatMulTransBShapes validates dst = x @ qᵀ for a per-row QTensor and
// returns (m, k, n).
func checkQMatMulTransBShapes(op string, dst, x *Tensor, q *QTensor) (m, k, n int) {
	if x.Rank() != 2 || dst.Rank() != 2 {
		panic(fmt.Sprintf("tensor: %s requires 2-D tensors, got %v @ᵀ %v -> %v", op, x.shape, q.Shape(), dst.shape))
	}
	if !q.perRow {
		panic(fmt.Sprintf("tensor: %s requires a per-row QTensor (QuantizePerRow), got per-column %v", op, q.Shape()))
	}
	m, k = x.shape[0], x.shape[1]
	n = q.rows
	if k != q.cols || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v @ᵀ %v -> %v", op, x.shape, q.Shape(), dst.shape))
	}
	if k > qMaxK {
		panic(fmt.Sprintf("tensor: %s reduction dim %d exceeds the int32-safe bound %d", op, k, qMaxK))
	}
	return m, k, n
}

// QMatMulInto computes dst = x @ q for float64 x [m,k] and a per-column
// quantized q [k,n]: x rows are quantized on the fly, the integer product
// accumulates in int32, and each output element is dequantized in place.
// Output blocks dispatch onto the shared worker pool above the same
// work floor as the float64 kernels; results are bitwise independent of
// the pool size and identical to NaiveQMatMulInto.
func QMatMulInto(dst, x *Tensor, q *QTensor) {
	m, k, n := checkQMatMulShapes("QMatMulInto", dst, x, q)
	acts := quantizeActs(x, false)
	defer acts.release()
	if m*n*k < matMulParMin {
		qMatMulRange(dst, acts, q, 0, m, 0, n)
		return
	}
	dispatchMatMul(m, n, func(i0, i1, j0, j1 int) { qMatMulRange(dst, acts, q, i0, i1, j0, j1) })
}

// SerialQMatMulInto is QMatMulInto run entirely on the calling goroutine,
// activation quantization included (see SerialMatMulInto).
func SerialQMatMulInto(dst, x *Tensor, q *QTensor) {
	m, _, n := checkQMatMulShapes("SerialQMatMulInto", dst, x, q)
	acts := quantizeActs(x, true)
	defer acts.release()
	qMatMulRange(dst, acts, q, 0, m, 0, n)
}

// qLaneMask selects the even 16-bit lanes of a uint64, giving two 32-bit
// accumulation sublanes.
const qLaneMask = 0x0000ffff0000ffff

// dequantBiased finishes one SWAR column: accPrime is the unsigned biased
// accumulator Σ (qx+128)(qw+128), which relates to the signed product by
// acc = accPrime − 128·(ΣqX + ΣqW) − 128²·k; corrBase carries the per-row
// half of that correction (−128·ΣqX − 16384·k). All terms are exact
// integers, so the result is bit-identical to the signed scalar path.
func (q *QTensor) dequantBiased(accPrime uint32, j int, corrBase int64, sx float64, zx, sumX int32) float64 {
	acc := int64(accPrime) + corrBase - 128*int64(q.Sums[j])
	return q.dequant(int32(acc), j, sx, zx, sumX)
}

// qMatMulRange computes the dst block rows [i0,i1) × columns [j0,j1) of
// x @ q. The inner loop is SWAR: both operands are biased to unsigned
// [0,255] (an XOR with 0x80 on the int8 bits), four weight columns ride in
// 16-bit lanes of one uint64, and a single 64-bit multiply by the biased
// activation scalar produces all four lane products (each < 2^16, so lanes
// never carry). Products are split into even/odd 32-bit sublanes and
// accumulated there — exact for the whole reduction because k ≤ qMaxK —
// giving 8 multiply-accumulates per two loads and two multiplies, with no
// gathers and no stores in the loop. The bias is folded back out in
// dequantBiased, so results match the signed scalar path bit for bit.
//
// Loop order is column-group-major: the two packed weight streams of each
// 8-column step (~16·k bytes) are reused across every row of the block, so
// the packed mirror is read once per call instead of once per row — the
// same weight-reuse trick the tiled float64 kernel gets from its panels.
// Narrow blocks (the serving path's 16-row predict blocks against wide
// Dense layers) would otherwise stream k×n weights per row and thrash L2.
// Each output element still accumulates in the same p order, so the result
// is bitwise independent of the loop nesting.
func qMatMulRange(dst *Tensor, acts *qActs, q *QTensor, i0, i1, j0, j1 int) {
	k, n := q.rows, q.cols
	packLim := q.packGroups * 4
	scalarCol := func(i, j int) {
		qa := acts.data[i*k : (i+1)*k]
		var s int32
		for p, av8 := range qa {
			s += int32(av8) * int32(q.Data[p*n+j])
		}
		dst.Data[i*n+j] = q.dequant(s, j, acts.scales[i], acts.zps[i], acts.sums[i])
	}
	j := j0
	for ; j < j1 && j&3 != 0; j++ { // align to a packed 4-column group
		for i := i0; i < i1; i++ {
			scalarCol(i, j)
		}
	}
	for ; j+8 <= j1 && j+8 <= packLim; j += 8 {
		g := j >> 2
		// Two contiguous group streams, L2-resident across the row loop.
		pw0 := q.packed[g*k : (g+1)*k]
		pw1 := q.packed[(g+1)*k : (g+2)*k]
		for i := i0; i < i1; i++ {
			qa := acts.data[i*k : (i+1)*k]
			// The [:len(qa)] reslices let the compiler drop the bounds
			// checks inside the reduction.
			pq0 := pw0[:len(qa)]
			pq1 := pw1[:len(qa)]
			var e0, o0, e1, o1 uint64
			for p, av8 := range qa {
				s := uint64(uint8(av8) ^ 0x80)
				w0 := pq0[p] * s
				w1 := pq1[p] * s
				e0 += w0 & qLaneMask
				o0 += (w0 >> 16) & qLaneMask
				e1 += w1 & qLaneMask
				o1 += (w1 >> 16) & qLaneMask
			}
			sx, zx, sumX := acts.scales[i], acts.zps[i], acts.sums[i]
			corrBase := -128*int64(sumX) - 16384*int64(k)
			di := dst.Data[i*n : (i+1)*n]
			di[j+0] = q.dequantBiased(uint32(e0), j+0, corrBase, sx, zx, sumX)
			di[j+1] = q.dequantBiased(uint32(o0), j+1, corrBase, sx, zx, sumX)
			di[j+2] = q.dequantBiased(uint32(e0>>32), j+2, corrBase, sx, zx, sumX)
			di[j+3] = q.dequantBiased(uint32(o0>>32), j+3, corrBase, sx, zx, sumX)
			di[j+4] = q.dequantBiased(uint32(e1), j+4, corrBase, sx, zx, sumX)
			di[j+5] = q.dequantBiased(uint32(o1), j+5, corrBase, sx, zx, sumX)
			di[j+6] = q.dequantBiased(uint32(e1>>32), j+6, corrBase, sx, zx, sumX)
			di[j+7] = q.dequantBiased(uint32(o1>>32), j+7, corrBase, sx, zx, sumX)
		}
	}
	for ; j < j1; j++ {
		for i := i0; i < i1; i++ {
			scalarCol(i, j)
		}
	}
}

// QMatMulTransBInto computes dst = x @ qᵀ for float64 x [m,k] and a
// per-row quantized q [n,k] — the quantized twin of MatMulTransBInto,
// consumed by the conv path (col @ Wᵀ with per-output-channel scales).
// Same contract as QMatMulInto: bitwise pool-size independent and
// identical to NaiveQMatMulTransBInto.
func QMatMulTransBInto(dst, x *Tensor, q *QTensor) {
	m, k, n := checkQMatMulTransBShapes("QMatMulTransBInto", dst, x, q)
	acts := quantizeActs(x, false)
	defer acts.release()
	if m*n*k < matMulParMin {
		qMatMulTransBRange(dst, acts, q, 0, m, 0, n)
		return
	}
	dispatchMatMul(m, n, func(i0, i1, j0, j1 int) { qMatMulTransBRange(dst, acts, q, i0, i1, j0, j1) })
}

// qMatMulTransBRange computes the dst block rows [i0,i1) × columns [j0,j1)
// of x @ qᵀ as contiguous int8 dot products, 8-wide unrolled onto eight
// independent accumulators (integer addition is associative, so the split
// is exact).
func qMatMulTransBRange(dst *Tensor, acts *qActs, q *QTensor, i0, i1, j0, j1 int) {
	k, n := q.cols, q.rows
	for i := i0; i < i1; i++ {
		qa := acts.data[i*k : (i+1)*k]
		di := dst.Data[i*n : (i+1)*n]
		sx, zx, sumX := acts.scales[i], acts.zps[i], acts.sums[i]
		for j := j0; j < j1; j++ {
			qb := q.Data[j*k : (j+1)*k]
			var s0, s1, s2, s3, s4, s5, s6, s7 int32
			p := 0
			for ; p+8 <= len(qa); p += 8 {
				s0 += int32(qa[p]) * int32(qb[p])
				s1 += int32(qa[p+1]) * int32(qb[p+1])
				s2 += int32(qa[p+2]) * int32(qb[p+2])
				s3 += int32(qa[p+3]) * int32(qb[p+3])
				s4 += int32(qa[p+4]) * int32(qb[p+4])
				s5 += int32(qa[p+5]) * int32(qb[p+5])
				s6 += int32(qa[p+6]) * int32(qb[p+6])
				s7 += int32(qa[p+7]) * int32(qb[p+7])
			}
			s := ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))
			for ; p < len(qa); p++ {
				s += int32(qa[p]) * int32(qb[p])
			}
			di[j] = q.dequant(s, j, sx, zx, sumX)
		}
	}
}
