package vp

// Generation-batched prompt evaluation. CMA-ES prompt training dominates a
// black-box audit's wall clock, and its objective decomposes into a
// candidate-invariant part (resizing training images into the inner window)
// and a candidate-dependent part (the border θ). This file exploits both:
// the resize cache computes every inner-window image once per training run,
// and the generation evaluator materializes all λ×k prompted canvases of a
// CMA-ES generation into one pooled tensor and issues a single fused
// oracle.Predict per generation — so remote oracles' parallel chunk fan-out
// and the serving stack's micro-batch engine see full-width batches instead
// of λ narrow ones. Everything here is bit-identical to the serial path
// (locked in by the parity tests): candidate order, mini-batch RNG draws,
// per-row model outputs, and oracle query accounting (queries = rows) are
// all preserved.

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

// resizeCache holds every sample of one dataset bilinearly resized into a
// prompt's inner window — the candidate-invariant half of prompt
// application. TrainBlackBox resizes each training image exactly once per
// call (instead of once per objective evaluation), and TrainWhiteBox once
// per call (instead of once per epoch×batch visit). The cached pixels are
// bit-identical to an on-the-fly resize: both run the same
// data.ResizeImage on the same inputs.
type resizeCache struct {
	dim  int
	data []float64 // [ds.Len()][dim], row i = sample i resized
}

func newResizeCache(p *Prompt, ds *data.Dataset) *resizeCache {
	inner := data.Shape{C: p.Source.C, H: p.Inner, W: p.Inner}
	c := &resizeCache{dim: inner.Dim()}
	c.data = make([]float64, ds.Len()*c.dim)
	for i := 0; i < ds.Len(); i++ {
		data.ResizeImage(ds.Sample(i), ds.Shape, c.data[i*c.dim:(i+1)*c.dim], inner)
	}
	return c
}

// resized returns sample i's cached inner-window pixels. Callers must not
// mutate the result.
func (c *resizeCache) resized(i int) []float64 { return c.data[i*c.dim : (i+1)*c.dim] }

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
// tensor, sends them through the oracle in a single Predict, and folds the
// confidence rows back into per-candidate losses in the serial path's
// summation order — so best-θ selection and the query counter are
// bit-identical to the per-candidate path.
type genEvaluator struct {
	ctx      context.Context
	oracle   oracle.Oracle
	prompt   *Prompt
	cache    *resizeCache
	train    *data.Dataset
	k        int       // samples per candidate evaluation
	batchRNG *rng.RNG  // shared with the serial objective
	errp     *error    // first oracle failure, shared with TrainBlackBox
	fs       []float64 // per-candidate losses, reused across generations
	idx      []int     // λ×k sample indices, reused across generations
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
	n := e.train.Len()
	if cap(e.idx) < lam*e.k {
		e.idx = make([]int, 0, lam*e.k)
	}
	idx := e.idx[:0]
	for range cands {
		idx = append(idx, e.batchRNG.Sample(n, e.k)...)
	}
	e.idx = idx

	dim := e.prompt.Source.Dim()
	rows := lam * e.k
	buf := getCanvas(rows * dim)
	x := tensor.FromSlice(*buf, rows, dim)
	for c, theta := range cands {
		e.prompt.materializeInto(x, c*e.k, theta, e.cache.resized, idx[c*e.k:(c+1)*e.k])
	}
	probs, err := e.oracle.Predict(e.ctx, x)
	if err != nil {
		*e.errp = err
		for i := range fs {
			fs[i] = math.Inf(1)
		}
		return fs
	}
	putCanvas(buf)
	classes := probs.Dim(1)
	for c := 0; c < lam; c++ {
		loss := 0.0
		for bi := 0; bi < e.k; bi++ {
			row := c*e.k + bi
			pTrue := probs.Data[row*classes+e.train.Y[idx[row]]]
			loss -= math.Log(math.Max(pTrue, 1e-12))
		}
		fs[c] = loss / float64(e.k)
	}
	return fs
}

// predictPrompted streams the prompted canvases for ds[idx] through o in
// chunks of at most promptChunk rows, reusing one pooled canvas (and one
// resize scratch) across chunks, and collects the [len(idx), K] confidence
// tensor. Prompted.Confidences and Accuracy share it with the audit
// feature-extraction path; it replaces the per-chunk idx rebuild and canvas
// allocation the old Accuracy loop paid. Chunking is invisible to results
// and query accounting: per-row outputs are batch-size independent, and
// counters count rows, not calls.
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
		probs, err := o.Predict(ctx, x)
		if err != nil {
			return nil, err
		}
		if probs.Dim(0) != end-start || probs.Dim(1) != classes {
			return nil, fmt.Errorf("vp: oracle returned %v confidences for %d prompted samples of %d advertised classes",
				probs.Shape(), end-start, classes)
		}
		copy(out.Data[start*classes:end*classes], probs.Data)
	}
	putCanvas(buf)
	return out, nil
}
