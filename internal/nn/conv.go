package nn

import (
	"fmt"

	"bprom/internal/rng"
	"bprom/internal/tensor"
)

// Conv2D is a 2-D convolution over batches shaped [N, C, H, W]. Weights are
// stored as [OutC, InC*KH*KW]. Float64 passes, recording or not, convolve
// straight from a zero-padded copy of each image (tensor.ConvInto); only
// Backward and the quantized layer unroll an image with im2col, because the
// weight gradient and the int8 kernel consume the unrolled matrix. When Q is
// non-nil the layer is quantized: it holds the transposed weights
// [InC*KH*KW, OutC] in per-output-channel int8 (so the im2col product runs
// through the per-column kernel), W's float64 tensors are dropped, and the
// layer is inference-only (Backward panics). See Model.Quantize.
type Conv2D struct {
	Dims tensor.ConvDims
	W    *Param // [OutC, InC*KH*KW]; Value/Grad nil once quantized
	B    *Param // [1, OutC]; always float64
	Q    *tensor.QTensor
}

var _ Layer = (*Conv2D)(nil)

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

// convScratch is one chunk's scratch. Float64 needs only the zero-padded
// image (nil when the layer has no padding); int8 needs an im2col matrix and
// a [spatial, OutC] product buffer.
type convScratch struct {
	padded   []float64
	col, tmp *tensor.Tensor
}

func (c *Conv2D) Infer(x *tensor.Tensor) *tensor.Tensor { return c.infer(nil, x) }

// infer runs the convolution, drawing the output and scratch from ws.
//
// Inside a planned pass (non-nil ws) every image runs on the block's
// goroutine. Without a workspace — the public Infer and the recording
// Forward — a batch worth parallelizing is split into chunks of images across
// the shared tensor worker pool: every image writes a disjoint slice of the
// output, so chunks are race-free. The split is fixed here rather than left
// to ParallelFor because each chunk needs scratch of its own. Float64 is
// parallel over images only, since ConvInto runs on its caller. The int8
// layer's nested Im2Col/QMatMulInto calls dispatch onto the same shared pool,
// which bounds total parallelism at the pool size instead of multiplying
// batch-level by kernel-level workers.
func (c *Conv2D) infer(ws *workspace, x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: Conv2D expects [N,C,H,W], got shape %v", x.Shape()))
	}
	n := x.Dim(0)
	d := c.Dims
	k := d.InC * d.KH * d.KW
	spatial := d.OutH * d.OutW
	scratch := func() (s convScratch) {
		switch {
		case c.Q != nil:
			s.col, s.tmp = ws.tensor(spatial, k), ws.tensor(spatial, d.OutC)
		case d.Pad > 0:
			s.padded = ws.tensor(d.PaddedLen()).Data
		}
		return s
	}
	// Per-image cost ≈ spatial*k*OutC multiplies; stay on this goroutine when
	// the whole batch is cheaper than a few goroutine handoffs.
	serial := ws.isSerial()
	if serial || n == 1 || !tensor.WorthParallel(n*spatial*k*d.OutC) {
		s := scratch()
		out := ws.tensor(n, d.OutC, d.OutH, d.OutW)
		c.convImages(out, x, 0, n, s, serial)
		return out
	}
	chunks := make([]convScratch, min(n, 2*tensor.Workers()))
	for ch := range chunks {
		chunks[ch] = scratch()
	}
	out := ws.tensor(n, d.OutC, d.OutH, d.OutW)
	tensor.ParallelFor(len(chunks), 1, func(lo, hi int) {
		for ch := lo; ch < hi; ch++ {
			c.convImages(out, x, ch*n/len(chunks), (ch+1)*n/len(chunks), chunks[ch], false)
		}
	})
	return out
}

// convImages convolves images [lo, hi) of x into out with one chunk's
// scratch s: float64 straight from the image, int8 through s.col and the
// [spatial, OutC] product s.tmp, transposed into place.
func (c *Conv2D) convImages(out, x *tensor.Tensor, lo, hi int, s convScratch, serial bool) {
	d := c.Dims
	spatial := d.OutH * d.OutW
	img := d.InC * d.InH * d.InW
	for i := lo; i < hi; i++ {
		src := x.Data[i*img : (i+1)*img]
		dst := out.Data[i*d.OutC*spatial : (i+1)*d.OutC*spatial]
		if c.Q == nil {
			tensor.ConvInto(dst, src, d, c.W.Value, c.B.Value.Data, s.padded)
			continue
		}
		// tmp[pos, oc] = col[pos, :] · Wᵀ[:, oc]; Q holds Wᵀ [k, OutC]
		if serial {
			tensor.SerialIm2Col(src, d, s.col)
			tensor.SerialQMatMulInto(s.tmp, s.col, c.Q)
		} else {
			tensor.Im2Col(src, d, s.col)
			tensor.QMatMulInto(s.tmp, s.col, c.Q)
		}
		// transpose into [OutC, OutH*OutW] layout of the output image
		for pos := 0; pos < spatial; pos++ {
			row := s.tmp.Row(pos)
			for oc, v := range row {
				dst[oc*spatial+pos] = v + c.B.Value.Data[oc]
			}
		}
	}
}

// Forward caches the input; Backward unrolls it again, one image at a time.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, Cache) {
	return c.Infer(x), x
}

// Backward runs images in parallel chunks, as infer does: each image writes
// its own dx slice and its own weight gradient, and those are summed into
// W.Grad afterwards in image order, so the bits do not depend on the split.
func (c *Conv2D) Backward(cache Cache, grad *tensor.Tensor) *tensor.Tensor {
	if c.Q != nil {
		panic("nn: Backward on a quantized Conv2D layer (quantized models are inference-only)")
	}
	x := cache.(*tensor.Tensor)
	n := grad.Dim(0)
	d := c.Dims
	k := d.InC * d.KH * d.KW
	spatial := d.OutH * d.OutW
	img := d.InC * d.InH * d.InW
	dx := tensor.New(n, d.InC, d.InH, d.InW)
	dWs := make([]float64, n*d.OutC*k) // per-image weight gradients
	images := func(lo, hi int) {
		gcols := tensor.New(spatial, d.OutC) // an image's gradient in [pos, oc] layout
		cols := tensor.New(spatial, k)       // its im2col matrix, then that matrix's gradient
		dW := tensor.New(d.OutC, k)
		for i := lo; i < hi; i++ {
			src := grad.Data[i*d.OutC*spatial : (i+1)*d.OutC*spatial]
			for oc := 0; oc < d.OutC; oc++ {
				for pos := 0; pos < spatial; pos++ {
					gcols.Data[pos*d.OutC+oc] = src[oc*spatial+pos]
				}
			}
			// dW = gcolsᵀ @ cols  ([OutC, spatial] @ [spatial, k])
			tensor.Im2Col(x.Data[i*img:(i+1)*img], d, cols)
			tensor.MatMulTransAInto(dW, gcols, cols)
			copy(dWs[i*d.OutC*k:], dW.Data)
			// dcols = gcols @ W  ([spatial, OutC] @ [OutC, k])
			tensor.MatMulInto(cols, gcols, c.W.Value)
			tensor.Col2Im(cols, d, dx.Data[i*img:(i+1)*img])
		}
	}
	chunks := 1 // a single chunk runs on this goroutine
	if tensor.WorthParallel(n * spatial * k * d.OutC) {
		chunks = min(n, 2*tensor.Workers())
	}
	tensor.ParallelFor(chunks, 1, func(lo, hi int) {
		for ch := lo; ch < hi; ch++ {
			images(ch*n/chunks, (ch+1)*n/chunks)
		}
	})
	for i := 0; i < n; i++ {
		for oc := 0; oc < d.OutC; oc++ {
			for _, v := range grad.Data[(i*d.OutC+oc)*spatial : (i*d.OutC+oc+1)*spatial] {
				c.B.Grad.Data[oc] += v
			}
		}
		for j, v := range dWs[i*d.OutC*k : (i+1)*d.OutC*k] {
			c.W.Grad.Data[j] += v
		}
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
