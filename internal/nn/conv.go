package nn

import (
	"fmt"
	"sync"

	"bprom/internal/rng"
	"bprom/internal/tensor"
)

// Conv2D is a 2-D convolution over batches shaped [N, C, H, W], implemented
// with im2col + matmul. Weights are stored as [OutC, InC*KH*KW].
// When Q is non-nil the layer is quantized: it holds the transposed weights
// [InC*KH*KW, OutC] in per-output-channel int8 (so the im2col product runs
// through the fast per-column kernel), W's float64 tensors are dropped, and
// the layer is inference-only (Backward panics). See Model.Quantize.
type Conv2D struct {
	Dims tensor.ConvDims
	W    *Param // [OutC, InC*KH*KW]; Value/Grad nil once quantized
	B    *Param // [1, OutC]; always float64
	Q    *tensor.QTensor

	// colPool recycles [OutH*OutW, InC*KH*KW] im2col matrices between a
	// recording Forward and the Backward that consumes them, keeping the
	// training loop's per-step allocations flat without giving up
	// reentrancy (sync.Pool is concurrency-safe). Inference scratch comes
	// from the pass's workspace instead.
	colPool sync.Pool
}

var _ Layer = (*Conv2D)(nil)

// conv2DCache holds the per-image im2col matrices Backward reuses.
type conv2DCache struct {
	cols []*tensor.Tensor
}

func (c *Conv2D) getCol(spatial, k int) *tensor.Tensor {
	if t, ok := c.colPool.Get().(*tensor.Tensor); ok {
		return t
	}
	return tensor.New(spatial, k)
}

// NewConv2D constructs a convolution layer. It panics on impossible
// geometry, which indicates a programming error in architecture builders.
func NewConv2D(dims tensor.ConvDims, r *rng.RNG) *Conv2D {
	if err := dims.Resolve(); err != nil {
		panic(fmt.Sprintf("nn: %v", err))
	}
	k := dims.InC * dims.KH * dims.KW
	c := &Conv2D{
		Dims: dims,
		W:    &Param{Name: "conv.w", Value: tensor.New(dims.OutC, k), Grad: tensor.New(dims.OutC, k)},
		B:    &Param{Name: "conv.b", Value: tensor.New(1, dims.OutC), Grad: tensor.New(1, dims.OutC)},
	}
	heInit(c.W.Value.Data, k, r)
	return c
}

// forward runs the convolution, drawing the output and scratch from ws.
// When cols is non-nil it receives one im2col matrix per image (kept for
// Backward) from the layer's pool.
//
// Inside a planned pass (non-nil ws) every image runs on the block's
// goroutine with the Serial* kernels. The chunk split below serves only the
// nil-workspace path — the public Infer and the recording Forward — where the
// batch is partitioned across the shared tensor worker pool: every image
// writes a disjoint slice of the output (and its own cols entry), so chunks
// are race-free. The split into chunks is fixed here rather than left to
// ParallelFor because each chunk needs scratch of its own. The nested
// Im2Col/MatMul calls dispatch onto the same shared pool, which bounds total
// parallelism at the pool size instead of multiplying batch-level by
// kernel-level workers.
func (c *Conv2D) forward(ws *workspace, x *tensor.Tensor, cols []*tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: Conv2D expects [N,C,H,W], got shape %v", x.Shape()))
	}
	n := x.Dim(0)
	d := c.Dims
	k := d.InC * d.KH * d.KW
	spatial := d.OutH * d.OutW
	// scratch draws one chunk's [spatial, OutC] product buffer and, unless
	// cols keeps them, its im2col matrix.
	scratch := func() (tmp, col *tensor.Tensor) {
		tmp = ws.tensor(spatial, d.OutC)
		if cols == nil {
			col = ws.tensor(spatial, k)
		}
		return tmp, col
	}
	// Per-image cost ≈ spatial*k*OutC multiplies; stay on this goroutine when
	// the whole batch is cheaper than a few goroutine handoffs.
	serial := ws.isSerial()
	if serial || n == 1 || !tensor.WorthParallel(n*spatial*k*d.OutC) {
		tmp, col := scratch()
		out := ws.tensor(n, d.OutC, d.OutH, d.OutW)
		c.convImages(out, x, 0, n, tmp, col, cols, serial)
		return out
	}
	chunks := make([]struct{ tmp, col *tensor.Tensor }, min(n, 2*tensor.Workers()))
	for ch := range chunks {
		chunks[ch].tmp, chunks[ch].col = scratch()
	}
	out := ws.tensor(n, d.OutC, d.OutH, d.OutW)
	tensor.ParallelFor(len(chunks), 1, func(lo, hi int) {
		for ch := lo; ch < hi; ch++ {
			c.convImages(out, x, ch*n/len(chunks), (ch+1)*n/len(chunks), chunks[ch].tmp, chunks[ch].col, cols, false)
		}
	})
	return out
}

// convImages convolves images [lo, hi) of x into out with one chunk's
// scratch: tmp holds an image's [spatial, OutC] product; its im2col matrix
// goes to a pooled cols[i] when cols is non-nil and to col otherwise.
func (c *Conv2D) convImages(out, x *tensor.Tensor, lo, hi int, tmp, col *tensor.Tensor, cols []*tensor.Tensor, serial bool) {
	d := c.Dims
	k := d.InC * d.KH * d.KW
	spatial := d.OutH * d.OutW
	img := d.InC * d.InH * d.InW
	for i := lo; i < hi; i++ {
		if cols != nil {
			cols[i] = c.getCol(spatial, k)
			col = cols[i]
		}
		src := x.Data[i*img : (i+1)*img]
		// tmp[pos, oc] = col[pos, :] · W[oc, :]
		if serial {
			tensor.SerialIm2Col(src, d, col)
			if c.Q != nil {
				tensor.SerialQMatMulInto(tmp, col, c.Q) // Q holds Wᵀ [k, OutC]
			} else {
				tensor.SerialMatMulTransBInto(tmp, col, c.W.Value)
			}
		} else {
			tensor.Im2Col(src, d, col)
			if c.Q != nil {
				tensor.QMatMulInto(tmp, col, c.Q)
			} else {
				tensor.MatMulTransBInto(tmp, col, c.W.Value)
			}
		}
		// transpose into [OutC, OutH*OutW] layout of the output image
		dst := out.Data[i*d.OutC*spatial : (i+1)*d.OutC*spatial]
		for pos := 0; pos < spatial; pos++ {
			row := tmp.Row(pos)
			for oc, v := range row {
				dst[oc*spatial+pos] = v + c.B.Value.Data[oc]
			}
		}
	}
}

func (c *Conv2D) Infer(x *tensor.Tensor) *tensor.Tensor { return c.forward(nil, x, nil) }

func (c *Conv2D) infer(ws *workspace, x *tensor.Tensor) *tensor.Tensor {
	return c.forward(ws, x, nil)
}

func (c *Conv2D) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, Cache) {
	cc := &conv2DCache{cols: make([]*tensor.Tensor, x.Dim(0))}
	return c.forward(nil, x, cc.cols), cc
}

func (c *Conv2D) Backward(cache Cache, grad *tensor.Tensor) *tensor.Tensor {
	if c.Q != nil {
		panic("nn: Backward on a quantized Conv2D layer (quantized models are inference-only)")
	}
	cc := cache.(*conv2DCache)
	n := grad.Dim(0)
	d := c.Dims
	k := d.InC * d.KH * d.KW
	spatial := d.OutH * d.OutW
	img := d.InC * d.InH * d.InW
	dx := tensor.New(n, d.InC, d.InH, d.InW)
	gcols := tensor.New(spatial, d.OutC) // per-image gradient in [pos, oc] layout
	dcols := tensor.New(spatial, k)
	dW := tensor.New(d.OutC, k)
	for i := 0; i < n; i++ {
		src := grad.Data[i*d.OutC*spatial : (i+1)*d.OutC*spatial]
		for oc := 0; oc < d.OutC; oc++ {
			for pos := 0; pos < spatial; pos++ {
				v := src[oc*spatial+pos]
				gcols.Data[pos*d.OutC+oc] = v
				c.B.Grad.Data[oc] += v
			}
		}
		// dW += gcolsᵀ @ cols  ([OutC, spatial] @ [spatial, k])
		tensor.MatMulTransAInto(dW, gcols, cc.cols[i])
		c.colPool.Put(cc.cols[i])
		cc.cols[i] = nil
		tensor.AXPY(1, dW, c.W.Grad)
		// dcols = gcols @ W  ([spatial, OutC] @ [OutC, k])
		tensor.MatMulInto(dcols, gcols, c.W.Value)
		tensor.Col2Im(dcols, d, dx.Data[i*img:(i+1)*img])
	}
	return dx
}

func (c *Conv2D) Params() []*Param {
	if c.Q != nil {
		return []*Param{c.B} // W lives in Q; no trainable float64 weights
	}
	return []*Param{c.W, c.B}
}

// Flatten reshapes [N, C, H, W] to [N, C*H*W]; identity for 2-D inputs.
type Flatten struct{}

var _ Layer = (*Flatten)(nil)

func (f *Flatten) Infer(x *tensor.Tensor) *tensor.Tensor { return f.infer(nil, x) }

func (f *Flatten) infer(ws *workspace, x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() == 2 {
		return x
	}
	n := x.Dim(0)
	return ws.reshape(x, n, x.Len()/n)
}

func (f *Flatten) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, Cache) {
	return f.Infer(x), x.Shape()
}

func (f *Flatten) Backward(cache Cache, grad *tensor.Tensor) *tensor.Tensor {
	return grad.Reshape(cache.([]int)...)
}

func (f *Flatten) Params() []*Param { return nil }

// ToImage reshapes [N, F] into [N, C, H, W] so convolutional stacks can
// follow dense preprocessing (and so flat dataset vectors enter conv nets).
type ToImage struct {
	C, H, W int
}

var _ Layer = (*ToImage)(nil)

func (t *ToImage) Infer(x *tensor.Tensor) *tensor.Tensor { return t.infer(nil, x) }

func (t *ToImage) infer(ws *workspace, x *tensor.Tensor) *tensor.Tensor {
	return ws.reshape(x, x.Dim(0), t.C, t.H, t.W)
}

func (t *ToImage) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, Cache) {
	return t.Infer(x), nil
}

func (t *ToImage) Backward(cache Cache, grad *tensor.Tensor) *tensor.Tensor {
	n := grad.Dim(0)
	return grad.Reshape(n, grad.Len()/n)
}

func (t *ToImage) Params() []*Param { return nil }

// GlobalAvgPool reduces [N, C, H, W] to [N, C].
type GlobalAvgPool struct{}

var _ Layer = (*GlobalAvgPool)(nil)

// avgPoolCache records the pooled spatial extent for the backward pass.
type avgPoolCache struct {
	h, w int
}

func (g *GlobalAvgPool) Infer(x *tensor.Tensor) *tensor.Tensor {
	return tensor.AvgPool2D(x)
}

func (g *GlobalAvgPool) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, Cache) {
	return tensor.AvgPool2D(x), &avgPoolCache{h: x.Dim(2), w: x.Dim(3)}
}

func (g *GlobalAvgPool) Backward(cache Cache, grad *tensor.Tensor) *tensor.Tensor {
	cc := cache.(*avgPoolCache)
	return tensor.AvgPool2DBackward(grad, cc.h, cc.w)
}

func (g *GlobalAvgPool) Params() []*Param { return nil }
