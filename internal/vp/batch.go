package vp

// Generation-batched prompt evaluation. CMA-ES prompt training dominates a
// black-box audit's wall clock, and its objective decomposes into a
// candidate-invariant part (resizing training images into the inner window)
// and a candidate-dependent part (the border θ). This file exploits both:
// Windows holds every inner-window image of a training set, built once and
// shared read-only — a bprom.Detector builds one on its first audit and
// every later audit reuses it — and the generation evaluator materializes
// all λ×k prompted canvases of a CMA-ES generation into one pooled tensor
// and issues a single fused oracle query per generation, so remote
// oracles' parallel chunk fan-out and the serving stack's micro-batch
// engine see full-width batches instead of λ narrow ones. A warm generation
// allocates nothing that scales with its rows or the dataset: sample
// indices are drawn into reused scratch (rng.SampleInto), canvases come
// from a pool, and confidences land in one reused tensor
// (oracle.IntoPredictor). Everything here is bit-identical to the serial
// path (locked in by the parity tests): candidate order, mini-batch RNG
// draws, per-row model outputs, and oracle query accounting (queries =
// rows) are all preserved.

import (
	"context"
	"fmt"
	"math"
	"sync"

	"bprom/internal/data"
	"bprom/internal/oracle"
	"bprom/internal/rng"
	"bprom/internal/tensor"
)

// promptChunk is the row granularity at which predictPrompted streams
// canvases through an oracle that does NOT advertise a transport batch
// limit (an in-process model): it bounds the peak canvas + activation
// footprint of large evaluation sets. Oracles that do advertise one
// (oracle.BatchLimiter — mlaas clients, server-side audit oracles) get a
// wider window instead — max(promptChunk, 4×MaxBatch) rows per Predict —
// enough for a parallel-fan-out client to keep its in-flight request
// budget full, while staying bounded by the advertised width rather than
// the evaluation-set size. Either way the split is invisible to query
// accounting (counters count rows, not calls) and to the results (per-row
// model outputs are batch-size independent).
const promptChunk = 512

// fanoutRequests is how many transport requests' worth of rows
// predictPrompted materializes per Predict against a BatchLimiter oracle.
// It mirrors mlaas.Client's maxInflightChunks (the client's parallel
// request budget): fewer would starve the fan-out, more would grow the
// canvas footprint without adding parallelism. Keep the two in sync.
const fanoutRequests = 4

// canvasPool recycles the flat scratch behind prompted-canvas tensors
// (mirroring nn's sync.Pool-backed Pass workspaces): the evaluation paths
// materialize λ×k canvases per CMA-ES generation, and pooling makes that
// allocation-free after the first generation.
var canvasPool sync.Pool

// getCanvas returns a pooled float64 slice of length n. Contents are
// unspecified — callers overwrite every element (a prompted canvas is
// border ∪ window, which covers the whole row). A canvas goes back to the
// pool only after the Predict it fed succeeded: an oracle that gives up
// early (cancelled context, closed engine) may return while its backend is
// still reading the rows, and recycling then would hand another search a
// buffer that is still being read.
func getCanvas(n int) *[]float64 {
	if p, ok := canvasPool.Get().(*[]float64); ok && cap(*p) >= n {
		*p = (*p)[:n]
		return p
	}
	s := make([]float64, n)
	return &s
}

func putCanvas(p *[]float64) { canvasPool.Put(p) }

// Windows holds every sample of one dataset bilinearly resized into a
// prompt geometry's inner window — the candidate-invariant half of prompt
// application. The black-box search reads it instead of resizing each
// mini-batch image per objective evaluation, and TrainWhiteBox instead of
// once per epoch×batch visit. The pixels are bit-identical to an
// on-the-fly resize: both run the same data.ResizeImage on the same inputs.
// A Windows is never written after NewWindows returns, so any number of
// concurrent searches over the same dataset and geometry may share one.
type Windows struct {
	ds    *data.Dataset
	inner data.Shape
	data  []float64 // [ds.Len()][inner.Dim()], row i = sample i resized
}

// NewWindows resizes every sample of ds into p's inner window. Only p's
// geometry is read: any prompt with the same canvas and window size may use
// the result.
func NewWindows(p *Prompt, ds *data.Dataset) *Windows {
	w := &Windows{ds: ds, inner: data.Shape{C: p.Source.C, H: p.Inner, W: p.Inner}}
	dim := w.inner.Dim()
	w.data = make([]float64, ds.Len()*dim)
	for i := 0; i < ds.Len(); i++ {
		data.ResizeImage(ds.Sample(i), ds.Shape, w.data[i*dim:(i+1)*dim], w.inner)
	}
	return w
}

// resized returns sample i's inner-window pixels. Callers must not mutate
// the result.
func (w *Windows) resized(i int) []float64 {
	dim := w.inner.Dim()
	return w.data[i*dim : (i+1)*dim]
}

// fits reports whether the windows were cut for p's window geometry.
func (w *Windows) fits(p *Prompt) error {
	if want := (data.Shape{C: p.Source.C, H: p.Inner, W: p.Inner}); w.inner != want {
		return fmt.Errorf("vp: windows resized to %+v, prompt window is %+v", w.inner, want)
	}
	return nil
}

// fillBorder writes clamp01(theta) into dst's border pixels.
func (p *Prompt) fillBorder(dst, theta []float64) {
	for i, bi := range p.borderIdx {
		dst[bi] = clamp01(theta[i])
	}
}

// copyWindow writes an already-resized inner image into dst's window rows.
func (p *Prompt) copyWindow(dst, resized []float64) {
	for c := 0; c < p.Source.C; c++ {
		srcOff := c * p.Inner * p.Inner
		dstOff := c * p.Source.H * p.Source.W
		for y := 0; y < p.Inner; y++ {
			copy(dst[dstOff+(p.y0+y)*p.Source.W+p.x0:dstOff+(p.y0+y)*p.Source.W+p.x0+p.Inner],
				resized[srcOff+y*p.Inner:srcOff+(y+1)*p.Inner])
		}
	}
}

// materializeInto writes the prompted canvases for samples idx, under
// border theta, into rows [row0, row0+len(idx)) of x. The border is filled
// once (scattered writes) into the first row and block-copied to the rest,
// then each row receives its window — so per-row cost is two contiguous
// copies instead of a scatter plus a resize.
func (p *Prompt) materializeInto(x *tensor.Tensor, row0 int, theta []float64, window func(sample int) []float64, idx []int) {
	if len(idx) == 0 {
		return
	}
	dim := p.Source.Dim()
	first := x.Data[row0*dim : (row0+1)*dim]
	p.fillBorder(first, theta)
	for r := 1; r < len(idx); r++ {
		copy(x.Data[(row0+r)*dim:(row0+r+1)*dim], first)
	}
	for r, i := range idx {
		p.copyWindow(x.Data[(row0+r)*dim:(row0+r+1)*dim], window(i))
	}
}

// genEvaluator is the cmaes.BatchObjective behind TrainBlackBox: one fused
// oracle call per CMA-ES generation. It draws every candidate's mini-batch
// up front in candidate order (the exact Sample sequence the serial
// objective consumes), materializes all λ×k canvases into one pooled
// tensor, sends them through the oracle in a single query, and folds the
// confidence rows back into per-candidate losses in the serial path's
// summation order — so best-θ selection and the query counter are
// bit-identical to the per-candidate path.
type genEvaluator struct {
	ctx      context.Context
	oracle   oracle.Oracle
	prompt   *Prompt
	windows  *Windows
	k        int      // samples per candidate evaluation
	batchRNG *rng.RNG // shared with the serial objective
	errp     *error   // first oracle failure, shared with TrainBlackBox

	// Scratch reused across generations.
	fs    []float64      // per-candidate losses
	idx   []int          // λ×k sample indices
	perm  []int          // SampleInto's n-sized permutation
	probs *tensor.Tensor // [λ×k, classes] confidences; dropped after a failed query
}

func (e *genEvaluator) evaluate(cands [][]float64) []float64 {
	lam := len(cands)
	if cap(e.fs) < lam {
		e.fs = make([]float64, lam)
	}
	fs := e.fs[:lam]
	if *e.errp != nil || e.ctx.Err() != nil {
		for i := range fs {
			fs[i] = math.Inf(1)
		}
		return fs
	}
	train := e.windows.ds
	if len(e.perm) != train.Len() {
		e.perm = make([]int, train.Len())
	}
	if cap(e.idx) < lam*e.k {
		e.idx = make([]int, 0, lam*e.k)
	}
	idx := e.idx[:0]
	for range cands {
		idx = append(idx, e.batchRNG.SampleInto(e.perm, e.k)...)
	}
	e.idx = idx

	dim := e.prompt.Source.Dim()
	rows := lam * e.k
	buf := getCanvas(rows * dim)
	x := tensor.FromSlice(*buf, rows, dim)
	for c, theta := range cands {
		e.prompt.materializeInto(x, c*e.k, theta, e.windows.resized, idx[c*e.k:(c+1)*e.k])
	}
	classes := e.oracle.NumClasses()
	if e.probs == nil || e.probs.Dim(0) != rows || e.probs.Dim(1) != classes {
		e.probs = tensor.New(rows, classes)
	}
	probs := e.probs
	if err := oracle.PredictInto(e.ctx, e.oracle, probs, x); err != nil {
		// Neither the canvas nor probs is reused: the backend may still be
		// reading the one and writing the other (oracle.IntoPredictor).
		e.probs = nil
		*e.errp = err
		for i := range fs {
			fs[i] = math.Inf(1)
		}
		return fs
	}
	putCanvas(buf)
	for c := 0; c < lam; c++ {
		loss := 0.0
		for bi := 0; bi < e.k; bi++ {
			row := c*e.k + bi
			pTrue := probs.Data[row*classes+train.Y[idx[row]]]
			loss -= math.Log(math.Max(pTrue, 1e-12))
		}
		fs[c] = loss / float64(e.k)
	}
	return fs
}

// predictPrompted streams the prompted canvases for ds[idx] through o in
// chunks of at most promptChunk rows, reusing one pooled canvas (and one
// resize scratch) across chunks, and collects the [len(idx), K] confidence
// tensor, each chunk's rows written straight into it. Prompted.Confidences
// and Accuracy share it with the audit feature-extraction path. Chunking is
// invisible to results and query accounting: per-row outputs are
// batch-size independent, and counters count rows, not calls.
func predictPrompted(ctx context.Context, o oracle.Oracle, p *Prompt, ds *data.Dataset, idx []int) (*tensor.Tensor, error) {
	classes := o.NumClasses()
	out := tensor.New(len(idx), classes)
	inner := data.Shape{C: p.Source.C, H: p.Inner, W: p.Inner}
	// The resize scratch is a few hundred floats allocated once per call —
	// deliberately NOT drawn from canvasPool, whose buffers are row-batch
	// sized: pooling it would let tiny buffers evict the large canvases.
	resized := make([]float64, inner.Dim())
	window := func(i int) []float64 {
		data.ResizeImage(ds.Sample(i), ds.Shape, resized, inner)
		return resized
	}
	dim := p.Source.Dim()
	chunk := promptChunk
	if bl, ok := o.(oracle.BatchLimiter); ok && bl.MaxBatch() > 0 {
		// Self-chunking transport (a positive limit means the oracle splits
		// to it internally): widen our materialization window to a few
		// transport requests' worth, so a parallel-fan-out client
		// (mlaas.Client keeps up to 4 chunked requests in flight) sees
		// enough rows per call to saturate its fan-out. Materializing
		// beyond that buys no extra parallelism — sequential self-chunkers
		// (server-side audit oracles) split any width into the same
		// requests — so the canvas footprint stays bounded by the
		// advertised width instead of the evaluation-set size. A zero
		// MaxBatch — e.g. a Counter around an in-process model — keeps the
		// promptChunk streamed path.
		if c := fanoutRequests * bl.MaxBatch(); c > chunk {
			chunk = c
		}
	}
	if chunk > len(idx) {
		chunk = len(idx)
	}
	buf := getCanvas(chunk * dim)
	for start := 0; start < len(idx); start += chunk {
		end := start + chunk
		if end > len(idx) {
			end = len(idx)
		}
		x := tensor.FromSlice((*buf)[:(end-start)*dim], end-start, dim)
		p.materializeInto(x, 0, p.Theta, window, idx[start:end])
		rows := tensor.FromSlice(out.Data[start*classes:end*classes], end-start, classes)
		if err := oracle.PredictInto(ctx, o, rows, x); err != nil {
			return nil, err
		}
	}
	putCanvas(buf)
	return out, nil
}
