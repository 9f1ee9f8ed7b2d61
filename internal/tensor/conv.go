package tensor

import "fmt"

// Conv2D support via im2col: an input batch [N, C, H, W] is unrolled into a
// matrix of sliding-window patches so the convolution becomes one MatMul.
// This is the standard CPU strategy; the unrolled buffer is reused by the nn
// layer between calls to avoid per-batch allocation.
//
// Parallelism: Im2Col is a pure gather, so output rows are partitioned
// across the shared pool directly. Col2Im scatters into the image gradient
// with *overlapping* windows — neighbouring output positions write the same
// input pixel — so it is partitioned by channel instead: every channel owns
// a disjoint region of dx, and within a channel the accumulation order over
// window positions matches the serial kernel exactly. Both degrade to the
// single-threaded path below convParMin work.

// convParMin is the per-call work floor (output positions × patch size)
// below which the im2col kernels stay serial.
const convParMin = 16 * 1024

// ConvDims describes a 2-D convolution geometry.
type ConvDims struct {
	InC, InH, InW int // input channels / height / width
	OutC          int // output channels
	KH, KW        int // kernel height / width
	Stride, Pad   int
	OutH, OutW    int // derived by Resolve
}

// Resolve fills the derived output dimensions and validates the geometry.
func (d *ConvDims) Resolve() error {
	if d.Stride <= 0 {
		return fmt.Errorf("tensor: conv stride must be positive, got %d", d.Stride)
	}
	d.OutH = (d.InH+2*d.Pad-d.KH)/d.Stride + 1
	d.OutW = (d.InW+2*d.Pad-d.KW)/d.Stride + 1
	if d.OutH <= 0 || d.OutW <= 0 {
		return fmt.Errorf("tensor: conv output collapsed to %dx%d for input %dx%d kernel %dx%d",
			d.OutH, d.OutW, d.InH, d.InW, d.KH, d.KW)
	}
	return nil
}

// Im2Col unrolls one image (C,H,W flattened in x) into cols, a matrix of
// shape [OutH*OutW, C*KH*KW]. Padding positions contribute zeros. Output
// window rows are gathered in parallel for large geometries.
func Im2Col(x []float64, d ConvDims, cols *Tensor) {
	work := d.OutH * d.OutW * d.InC * d.KH * d.KW
	if work < convParMin {
		im2colRows(x, d, cols, 0, d.OutH)
		return
	}
	ParallelFor(d.OutH, 1, func(lo, hi int) { im2colRows(x, d, cols, lo, hi) })
}

// SerialIm2Col is Im2Col run entirely on the calling goroutine (see
// SerialMatMulInto).
func SerialIm2Col(x []float64, d ConvDims, cols *Tensor) {
	im2colRows(x, d, cols, 0, d.OutH)
}

// im2colRows unrolls output rows oy in [oy0, oy1): each writes the disjoint
// cols rows [oy*OutW, (oy+1)*OutW).
func im2colRows(x []float64, d ConvDims, cols *Tensor, oy0, oy1 int) {
	k := d.InC * d.KH * d.KW
	for oy := oy0; oy < oy1; oy++ {
		row := oy * d.OutW
		for ox := 0; ox < d.OutW; ox++ {
			dst := cols.Data[row*k : (row+1)*k]
			di := 0
			for c := 0; c < d.InC; c++ {
				chanOff := c * d.InH * d.InW
				for ky := 0; ky < d.KH; ky++ {
					iy := oy*d.Stride + ky - d.Pad
					if iy < 0 || iy >= d.InH {
						for kx := 0; kx < d.KW; kx++ {
							dst[di] = 0
							di++
						}
						continue
					}
					rowOff := chanOff + iy*d.InW
					for kx := 0; kx < d.KW; kx++ {
						ix := ox*d.Stride + kx - d.Pad
						if ix < 0 || ix >= d.InW {
							dst[di] = 0
						} else {
							dst[di] = x[rowOff+ix]
						}
						di++
					}
				}
			}
			row++
		}
	}
}

// Col2Im scatters gradient columns (shape [OutH*OutW, C*KH*KW]) back into an
// image gradient (C,H,W flattened into dx, accumulated). Channels are
// scattered in parallel for large geometries; each channel's dx region is
// disjoint, and the per-pixel accumulation order is the serial one.
func Col2Im(cols *Tensor, d ConvDims, dx []float64) {
	work := d.OutH * d.OutW * d.InC * d.KH * d.KW
	if d.InC == 1 || work < convParMin {
		col2imChans(cols, d, dx, 0, d.InC)
		return
	}
	ParallelFor(d.InC, 1, func(lo, hi int) { col2imChans(cols, d, dx, lo, hi) })
}

// col2imChans scatters channels [c0, c1) of every window row into dx.
func col2imChans(cols *Tensor, d ConvDims, dx []float64, c0, c1 int) {
	k := d.InC * d.KH * d.KW
	for c := c0; c < c1; c++ {
		chanOff := c * d.InH * d.InW
		base := c * d.KH * d.KW
		row := 0
		for oy := 0; oy < d.OutH; oy++ {
			for ox := 0; ox < d.OutW; ox++ {
				src := cols.Data[row*k+base : row*k+base+d.KH*d.KW]
				si := 0
				for ky := 0; ky < d.KH; ky++ {
					iy := oy*d.Stride + ky - d.Pad
					if iy < 0 || iy >= d.InH {
						si += d.KW
						continue
					}
					rowOff := chanOff + iy*d.InW
					for kx := 0; kx < d.KW; kx++ {
						ix := ox*d.Stride + kx - d.Pad
						if ix >= 0 && ix < d.InW {
							dx[rowOff+ix] += src[si]
						}
						si++
					}
				}
				row++
			}
		}
	}
}

// AvgPool2D performs global average pooling over each channel of a batch
// [N, C, H, W], producing [N, C]. Channels are reduced in parallel for
// large batches; each output element is one serial sum, so results are
// pool-size independent.
func AvgPool2D(x *Tensor) *Tensor {
	if x.Rank() != 4 {
		panic("tensor: AvgPool2D requires a 4-D tensor")
	}
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	out := New(n, c)
	area := float64(h * w)
	spatial := h * w
	forEachScaled(n*c, spatial, func(lo, hi int) {
		for nc := lo; nc < hi; nc++ {
			off := nc * spatial
			s := 0.0
			for p := 0; p < spatial; p++ {
				s += x.Data[off+p]
			}
			out.Data[nc] = s / area
		}
	})
	return out
}

// AvgPool2DBackward spreads the pooled gradient [N, C] uniformly back over
// the spatial positions, producing [N, C, H, W].
func AvgPool2DBackward(grad *Tensor, h, w int) *Tensor {
	n, c := grad.shape[0], grad.shape[1]
	out := New(n, c, h, w)
	inv := 1.0 / float64(h*w)
	spatial := h * w
	forEachScaled(n*c, spatial, func(lo, hi int) {
		for nc := lo; nc < hi; nc++ {
			g := grad.Data[nc] * inv
			off := nc * spatial
			for p := 0; p < spatial; p++ {
				out.Data[off+p] = g
			}
		}
	})
	return out
}
