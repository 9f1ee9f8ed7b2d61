// Package tensor implements the dense numerical arrays underlying the neural
// network substrate. It supports the small set of operations the repository
// needs — matrix multiplication, im2col convolution, pooling, elementwise
// arithmetic and reductions — on float64 data stored in row-major order.
//
// Design notes: shapes are plain []int; a Tensor owns its backing slice
// unless created with FromSlice, in which case the caller promises not to
// alias it concurrently. Operations either write into a receiver (the *Into
// forms, used on hot paths to avoid allocation) or return fresh tensors.
//
// Performance: the compute kernels are cache-blocked (tiled) and dispatch
// row-block chunks onto a shared worker pool (see pool.go) once the work
// exceeds a size threshold; below it they run serially so tiny-scale
// experiments never pay goroutine overhead. Partitioning is always over
// output rows/channels, so every output element is accumulated in the same
// floating-point order as the serial path and results do not depend on the
// pool size. Reductions (Sum, Dot, Norm2) stay single-threaded — partial
// sums per worker would make results depend on the machine's core count,
// which the bit-reproducible experiment harness cannot tolerate — but are
// unrolled into four independent accumulators for instruction-level
// parallelism. The naive reference forms live in naive.go and anchor the
// parity/fuzz test harness.
package tensor

import (
	"fmt"
	"math"
)

// Tiling and dispatch thresholds. The flop floors are deliberately small
// multiples of the per-chunk dispatch cost (~1µs): below them a goroutine
// handoff costs more than it buys.
const (
	// tileK is the k-panel height for MatMulInto/MatMulTransAInto: a
	// [tileK, n] panel of b is streamed across every dst row of a worker's
	// block while still cache-resident.
	tileK = 128
	// tileJ is the b-row panel width for MatMulTransBInto: tileJ rows of b
	// are reused across the worker's a rows.
	tileJ = 64
	// matMulParMin is the m*n*k floor below which matmuls stay serial.
	matMulParMin = 32 * 1024
	// elemParMin is the element-count floor for parallel elementwise ops;
	// they are memory-bound, so the threshold is high.
	elemParMin = 1 << 15
	// elemGrain is the minimum elementwise chunk handed to a worker.
	elemGrain = 1 << 13
)

// Tensor is a dense row-major float64 array with an explicit shape.
type Tensor struct {
	Data  []float64
	shape []int
}

// New returns a zero-filled tensor with the given shape.
func New(shape ...int) *Tensor {
	own := append([]int(nil), shape...) // messages below print the copy so shape never escapes
	n := 1
	for _, d := range own {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in shape %v", d, own))
		}
		n *= d
	}
	return &Tensor{Data: make([]float64, n), shape: own}
}

// FromSlice wraps data with the given shape without copying. The product of
// the shape must equal len(data).
func FromSlice(data []float64, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: shape %v does not match data length %d", shape, len(data)))
	}
	return &Tensor{Data: data, shape: append([]int(nil), shape...)}
}

// Rebind points t at data under shape without copying, reusing t's header
// and shape storage: FromSlice for a header that is recycled between passes
// (nn's activation arena). The product of the shape must equal len(data).
func (t *Tensor) Rebind(data []float64, shape ...int) {
	t.shape = append(t.shape[:0], shape...)
	n := 1
	for _, d := range t.shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: shape %v does not match data length %d", t.shape, len(data)))
	}
	t.Data = data
}

// Shape returns the tensor's dimensions. Callers must not mutate the result.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of axis i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of axes.
func (t *Tensor) Rank() int { return len(t.shape) }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a view of the same data under a new shape. The element
// count must match. The returned tensor shares the backing slice.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	own := append([]int(nil), shape...) // the message prints the copy so shape never escapes
	n := 1
	for _, d := range own {
		n *= d
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v to %v", t.shape, own))
	}
	return &Tensor{Data: t.Data, shape: own}
}

// At returns the element at the given multi-index (2-D fast path only where
// it matters; general indexing is used in tests and setup code).
func (t *Tensor) At(idx ...int) float64 {
	return t.Data[t.offset(idx)]
}

// Set assigns the element at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) {
	t.Data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match shape %v", len(idx), t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() { t.Fill(0) }

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// --- Elementwise operations -------------------------------------------------

// WorthParallel reports whether work (≈ a multiply-accumulate count) clears
// the floor below which parallel dispatch costs more than it buys. Callers
// that partition their own outer loops over ParallelFor (the nn Conv2D
// batch loop) use it so their serial/parallel decision stays in lockstep
// with the kernels' own.
func WorthParallel(work int) bool { return work >= matMulParMin }

// forEachRange runs f over [0, n): inline for small n, in parallel chunks on
// the shared pool otherwise. Chunk boundaries never change per-element
// results, so all elementwise ops stay bit-deterministic under any pool size.
func forEachRange(n int, f func(lo, hi int)) {
	forEachScaled(n, 1, f)
}

// forEachScaled is forEachRange for callers whose iterations each touch
// width elements (rows, channels): the serial/parallel decision weighs the
// true element count count*width, and the grain shrinks accordingly so a
// few thousand heavy rows still split across workers.
func forEachScaled(count, width int, f func(lo, hi int)) {
	if count*width < elemParMin {
		f(0, count)
		return
	}
	ParallelFor(count, max(1, elemGrain/width), f)
}

// AddInto computes dst = a + b elementwise. All three must share a length.
func AddInto(dst, a, b *Tensor) {
	checkSameLen("AddInto", dst, a, b)
	n := len(dst.Data)
	if n < elemParMin { // decided before the closure exists, so small calls allocate nothing
		addRange(dst, a, b, 0, n)
		return
	}
	ParallelFor(n, elemGrain, func(lo, hi int) { addRange(dst, a, b, lo, hi) })
}

func addRange(dst, a, b *Tensor, lo, hi int) {
	ad, bd, dd := a.Data[lo:hi], b.Data[lo:hi], dst.Data[lo:hi]
	for i := range dd {
		dd[i] = ad[i] + bd[i]
	}
}

// SubInto computes dst = a - b elementwise.
func SubInto(dst, a, b *Tensor) {
	checkSameLen("SubInto", dst, a, b)
	forEachRange(len(dst.Data), func(lo, hi int) {
		ad, bd, dd := a.Data[lo:hi], b.Data[lo:hi], dst.Data[lo:hi]
		for i := range dd {
			dd[i] = ad[i] - bd[i]
		}
	})
}

// MulInto computes dst = a * b elementwise (Hadamard product).
func MulInto(dst, a, b *Tensor) {
	checkSameLen("MulInto", dst, a, b)
	forEachRange(len(dst.Data), func(lo, hi int) {
		ad, bd, dd := a.Data[lo:hi], b.Data[lo:hi], dst.Data[lo:hi]
		for i := range dd {
			dd[i] = ad[i] * bd[i]
		}
	})
}

// AXPY computes dst += alpha * x.
func AXPY(alpha float64, x, dst *Tensor) {
	checkSameLen("AXPY", dst, x)
	forEachRange(len(dst.Data), func(lo, hi int) {
		xd, dd := x.Data[lo:hi], dst.Data[lo:hi]
		for i := range dd {
			dd[i] += alpha * xd[i]
		}
	})
}

// Scale multiplies every element by alpha in place.
func (t *Tensor) Scale(alpha float64) {
	forEachRange(len(t.Data), func(lo, hi int) {
		d := t.Data[lo:hi]
		for i := range d {
			d[i] *= alpha
		}
	})
}

// Clamp limits every element to [lo, hi] in place.
func (t *Tensor) Clamp(lo, hi float64) {
	forEachRange(len(t.Data), func(i0, i1 int) {
		d := t.Data[i0:i1]
		for i, v := range d {
			if v < lo {
				d[i] = lo
			} else if v > hi {
				d[i] = hi
			}
		}
	})
}

// Apply replaces each element x with f(x). f must be pure: it may run
// concurrently across chunks of the tensor.
func (t *Tensor) Apply(f func(float64) float64) {
	forEachRange(len(t.Data), func(lo, hi int) {
		d := t.Data[lo:hi]
		for i, v := range d {
			d[i] = f(v)
		}
	})
}

// checkSameLen panics with the offending shapes when any tensor's element
// count differs from the first's.
func checkSameLen(op string, ts ...*Tensor) {
	n := ts[0].Len()
	for i, t := range ts[1:] {
		if t.Len() != n {
			panic(fmt.Sprintf("tensor: %s length mismatch: argument 0 has shape %v (%d elements), argument %d has shape %v (%d elements)",
				op, ts[0].shape, n, i+1, t.shape, t.Len()))
		}
	}
}

// --- Reductions ---------------------------------------------------------------

// Reductions run single-threaded on purpose: splitting them across workers
// would make the accumulation order (and therefore the low-order bits) a
// function of the pool size, breaking the bit-for-bit reproducibility the
// experiment harness guarantees. Instead they use four independent
// accumulators — a fixed order on every machine — which breaks the serial
// add dependency chain and roughly triples throughput on large tensors.

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	var s0, s1, s2, s3 float64
	d := t.Data
	i := 0
	for ; i+4 <= len(d); i += 4 {
		s0 += d[i]
		s1 += d[i+1]
		s2 += d[i+2]
		s3 += d[i+3]
	}
	for ; i < len(d); i++ {
		s0 += d[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// Mean returns the arithmetic mean of all elements (0 for empty tensors).
func (t *Tensor) Mean() float64 {
	if len(t.Data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.Data))
}

// MaxIndex returns the index of the largest element (first on ties).
func (t *Tensor) MaxIndex() int {
	best, bi := math.Inf(-1), 0
	for i, v := range t.Data {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// Norm2 returns the Euclidean norm of the flattened tensor.
func (t *Tensor) Norm2() float64 {
	var s0, s1, s2, s3 float64
	d := t.Data
	i := 0
	for ; i+4 <= len(d); i += 4 {
		s0 += d[i] * d[i]
		s1 += d[i+1] * d[i+1]
		s2 += d[i+2] * d[i+2]
		s3 += d[i+3] * d[i+3]
	}
	for ; i < len(d); i++ {
		s0 += d[i] * d[i]
	}
	return math.Sqrt((s0 + s1) + (s2 + s3))
}

// Dot returns the inner product of two equally sized tensors.
func Dot(a, b *Tensor) float64 {
	checkSameLen("Dot", a, b)
	var s0, s1, s2, s3 float64
	ad, bd := a.Data, b.Data
	i := 0
	for ; i+4 <= len(ad); i += 4 {
		s0 += ad[i] * bd[i]
		s1 += ad[i+1] * bd[i+1]
		s2 += ad[i+2] * bd[i+2]
		s3 += ad[i+3] * bd[i+3]
	}
	for ; i < len(ad); i++ {
		s0 += ad[i] * bd[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// --- Matrix operations ---------------------------------------------------------

// checkMatMulShapes validates dst = a @ b and returns (m, k, n).
func checkMatMulShapes(op string, dst, a, b *Tensor) (m, k, n int) {
	if a.Rank() != 2 || b.Rank() != 2 || dst.Rank() != 2 {
		panic(fmt.Sprintf("tensor: %s requires 2-D tensors, got %v @ %v -> %v", op, a.shape, b.shape, dst.shape))
	}
	m, k = a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v @ %v -> %v", op, a.shape, b.shape, dst.shape))
	}
	return m, k, n
}

// checkMatMulTransAShapes validates dst = aᵀ @ b and returns (k, m, n).
func checkMatMulTransAShapes(op string, dst, a, b *Tensor) (k, m, n int) {
	if a.Rank() != 2 || b.Rank() != 2 || dst.Rank() != 2 {
		panic(fmt.Sprintf("tensor: %s requires 2-D tensors, got %v ᵀ@ %v -> %v", op, a.shape, b.shape, dst.shape))
	}
	k, m = a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v ᵀ@ %v -> %v", op, a.shape, b.shape, dst.shape))
	}
	return k, m, n
}

// checkMatMulTransBShapes validates dst = a @ bᵀ and returns (m, k, n).
func checkMatMulTransBShapes(op string, dst, a, b *Tensor) (m, k, n int) {
	if a.Rank() != 2 || b.Rank() != 2 || dst.Rank() != 2 {
		panic(fmt.Sprintf("tensor: %s requires 2-D tensors, got %v @ᵀ %v -> %v", op, a.shape, b.shape, dst.shape))
	}
	m, k = a.shape[0], a.shape[1]
	n, k2 := b.shape[0], b.shape[1]
	if k != k2 || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v @ᵀ %v -> %v", op, a.shape, b.shape, dst.shape))
	}
	return m, k, n
}

// dispatchMatMul partitions a matmul's output across the pool: by dst rows
// when there are enough rows to feed every worker, by dst columns otherwise
// (the batch-1 probe shape: [1,k] @ [k,n] must not pin a whole forward pass
// to one core). Both choices partition the *output*, so every element keeps
// its serial accumulation order and the result is independent of which path
// ran — parity_test.go pins this.
func dispatchMatMul(m, n int, run func(i0, i1, j0, j1 int)) {
	w := Workers()
	if m >= w || n < 2*w {
		ParallelFor(m, 1, func(i0, i1 int) { run(i0, i1, 0, n) })
		return
	}
	ParallelFor(n, 16, func(j0, j1 int) { run(0, m, j0, j1) })
}

// MatMulInto computes dst = a @ b for 2-D tensors a [m,k] and b [k,n],
// writing into dst [m,n]. The kernel is k-panel tiled: a [tileK, width] slab
// of b is streamed across every dst row of the current block while it is
// cache-hot. Output blocks are dispatched onto the shared worker pool above
// matMulParMin total work. Accumulation over p stays ascending per output
// element, so the result is identical to the naive kernel for finite inputs.
func MatMulInto(dst, a, b *Tensor) {
	m, k, n := checkMatMulShapes("MatMulInto", dst, a, b)
	if m*n*k < matMulParMin {
		matMulRange(dst, a, b, 0, m, 0, n)
		return
	}
	dispatchMatMul(m, n, func(i0, i1, j0, j1 int) { matMulRange(dst, a, b, i0, i1, j0, j1) })
}

// SerialMatMulInto is MatMulInto run entirely on the calling goroutine. The
// Serial* entry points are for callers that already hold one task per worker
// (nn's row-block inference driver): a second level of dispatch from inside
// a pool task buys no cores and pays for the handoffs. Same kernel, same
// bits.
func SerialMatMulInto(dst, a, b *Tensor) {
	m, _, n := checkMatMulShapes("SerialMatMulInto", dst, a, b)
	matMulRange(dst, a, b, 0, m, 0, n)
}

// matMulRange computes the dst block rows [i0, i1) × columns [j0, j1) of
// a @ b.
func matMulRange(dst, a, b *Tensor, i0, i1, j0, j1 int) {
	k, n := a.shape[1], b.shape[1]
	for i := i0; i < i1; i++ {
		di := dst.Data[i*n+j0 : i*n+j1]
		for j := range di {
			di[j] = 0
		}
	}
	for p0 := 0; p0 < k; p0 += tileK {
		p1 := min(p0+tileK, k)
		for i := i0; i < i1; i++ {
			ai := a.Data[i*k : (i+1)*k]
			di := dst.Data[i*n+j0 : i*n+j1]
			for p := p0; p < p1; p++ {
				av := ai[p]
				if av == 0 {
					continue
				}
				bp := b.Data[p*n+j0 : p*n+j1]
				for j, bv := range bp {
					di[j] += av * bv
				}
			}
		}
	}
}

// MatMul returns a @ b as a fresh tensor.
func MatMul(a, b *Tensor) *Tensor {
	dst := New(a.shape[0], b.shape[1])
	MatMulInto(dst, a, b)
	return dst
}

// MatMulTransAInto computes dst = aᵀ @ b where a is [k,m] and b is [k,n].
// Output blocks are partitioned across the pool; within a block the walk is
// k-panel tiled so the paired a/b panels stay cache-resident.
func MatMulTransAInto(dst, a, b *Tensor) {
	k, m, n := checkMatMulTransAShapes("MatMulTransAInto", dst, a, b)
	if m*n*k < matMulParMin {
		matMulTransARange(dst, a, b, 0, m, 0, n)
		return
	}
	dispatchMatMul(m, n, func(i0, i1, j0, j1 int) { matMulTransARange(dst, a, b, i0, i1, j0, j1) })
}

// matMulTransARange computes the dst block rows [i0, i1) × columns [j0, j1)
// of aᵀ @ b.
func matMulTransARange(dst, a, b *Tensor, i0, i1, j0, j1 int) {
	k, m := a.shape[0], a.shape[1]
	n := b.shape[1]
	for i := i0; i < i1; i++ {
		di := dst.Data[i*n+j0 : i*n+j1]
		for j := range di {
			di[j] = 0
		}
	}
	for p0 := 0; p0 < k; p0 += tileK {
		p1 := min(p0+tileK, k)
		for p := p0; p < p1; p++ {
			ap := a.Data[p*m : (p+1)*m]
			bp := b.Data[p*n+j0 : p*n+j1]
			for i := i0; i < i1; i++ {
				av := ap[i]
				if av == 0 {
					continue
				}
				di := dst.Data[i*n+j0 : i*n+j1]
				for j, bv := range bp {
					di[j] += av * bv
				}
			}
		}
	}
}

// MatMulTransBInto computes dst = a @ bᵀ where a is [m,k] and b is [n,k].
// Output blocks are partitioned across the pool; within a block, tileJ rows
// of b are reused across every a row before moving to the next b panel.
func MatMulTransBInto(dst, a, b *Tensor) {
	m, k, n := checkMatMulTransBShapes("MatMulTransBInto", dst, a, b)
	if m*n*k < matMulParMin {
		matMulTransBRange(dst, a, b, 0, m, 0, n)
		return
	}
	dispatchMatMul(m, n, func(i0, i1, j0, j1 int) { matMulTransBRange(dst, a, b, i0, i1, j0, j1) })
}

// SerialMatMulTransBInto is MatMulTransBInto run entirely on the calling
// goroutine (see SerialMatMulInto).
func SerialMatMulTransBInto(dst, a, b *Tensor) {
	m, _, n := checkMatMulTransBShapes("SerialMatMulTransBInto", dst, a, b)
	matMulTransBRange(dst, a, b, 0, m, 0, n)
}

// matMulTransBRange computes the dst block rows [i0, i1) × columns [j0, j1)
// of a @ bᵀ. Each output element is one dot product, and a single running
// sum makes every multiply-add wait for the previous one; so four output
// columns are swept together, giving the core four independent dependency
// chains per pass over the a row. Each sum still adds p ascending into its
// own accumulator, so every element keeps the naive kernel's bits.
func matMulTransBRange(dst, a, b *Tensor, i0, i1, j0, j1 int) {
	k := a.shape[1]
	n := b.shape[0]
	for jb := j0; jb < j1; jb += tileJ {
		je := min(jb+tileJ, j1)
		for i := i0; i < i1; i++ {
			ai := a.Data[i*k : (i+1)*k]
			di := dst.Data[i*n : (i+1)*n]
			j := jb
			for ; j+4 <= je; j += 4 {
				// The [:len(ai)] reslices let the compiler drop the bounds
				// checks inside the reduction.
				b0 := b.Data[j*k : (j+1)*k][:len(ai)]
				b1 := b.Data[(j+1)*k : (j+2)*k][:len(ai)]
				b2 := b.Data[(j+2)*k : (j+3)*k][:len(ai)]
				b3 := b.Data[(j+3)*k : (j+4)*k][:len(ai)]
				var s0, s1, s2, s3 float64
				for p, av := range ai {
					s0 += av * b0[p]
					s1 += av * b1[p]
					s2 += av * b2[p]
					s3 += av * b3[p]
				}
				di[j], di[j+1], di[j+2], di[j+3] = s0, s1, s2, s3
			}
			for ; j < je; j++ {
				bj := b.Data[j*k : (j+1)*k][:len(ai)]
				s := 0.0
				for p, av := range ai {
					s += av * bj[p]
				}
				di[j] = s
			}
		}
	}
}

// Transpose returns the transpose of a 2-D tensor.
func (t *Tensor) Transpose() *Tensor {
	if t.Rank() != 2 {
		panic("tensor: Transpose requires a 2-D tensor")
	}
	m, n := t.shape[0], t.shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.Data[j*m+i] = t.Data[i*n+j]
		}
	}
	return out
}

// AddRowVecInto adds a length-n row vector to every row of an [m,n] matrix.
func AddRowVecInto(dst, a *Tensor, v []float64) {
	m, n := a.shape[0], a.shape[1]
	if len(v) != n || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: AddRowVecInto shape mismatch: a %v, dst %v, vector length %d", a.shape, dst.shape, len(v)))
	}
	if m*n < elemParMin { // decided before the closure exists, so small calls allocate nothing
		addRowVecRows(dst, a, v, 0, m)
		return
	}
	ParallelFor(m, max(1, elemGrain/n), func(lo, hi int) { addRowVecRows(dst, a, v, lo, hi) })
}

func addRowVecRows(dst, a *Tensor, v []float64, lo, hi int) {
	n := len(v)
	for i := lo; i < hi; i++ {
		ai := a.Data[i*n : (i+1)*n]
		di := dst.Data[i*n : (i+1)*n]
		for j := range di {
			di[j] = ai[j] + v[j]
		}
	}
}

// ColSumsInto writes the per-column sums of an [m,n] matrix into dst (len n).
func ColSumsInto(dst []float64, a *Tensor) {
	m, n := a.shape[0], a.shape[1]
	if len(dst) != n {
		panic(fmt.Sprintf("tensor: ColSumsInto length mismatch: a %v, dst length %d", a.shape, len(dst)))
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m; i++ {
		ai := a.Data[i*n : (i+1)*n]
		for j, v := range ai {
			dst[j] += v
		}
	}
}

// Row returns a view of row i of a 2-D tensor (shares backing storage).
func (t *Tensor) Row(i int) []float64 {
	if t.Rank() != 2 {
		panic("tensor: Row requires a 2-D tensor")
	}
	n := t.shape[1]
	return t.Data[i*n : (i+1)*n]
}
