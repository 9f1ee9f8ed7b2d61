package tensor

import "fmt"

// Conv2D support, two ways. The float64 forward convolves implicitly
// (ConvInto): each output element is a dot product read straight from a
// zero-padded copy of the image, with no unrolled matrix and no transpose.
// The backward pass unrolls each image with im2col into a matrix of
// sliding-window patches, because the weight gradient is one MatMul against
// it and Col2Im scatters the input gradient back from the same layout (the
// int8 forward consumes it too). ConvInto gives the bits of the MatMul over
// that matrix.
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
	// Checked before dividing: Go's division truncates toward zero, so a
	// kernel that overhangs the padded input by less than one stride would
	// otherwise resolve to one window reading past the image.
	if d.KH > d.InH+2*d.Pad || d.KW > d.InW+2*d.Pad {
		return fmt.Errorf("tensor: conv kernel %dx%d exceeds padded input %dx%d",
			d.KH, d.KW, d.InH+2*d.Pad, d.InW+2*d.Pad)
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

// PaddedLen is the scratch length ConvInto needs for its zero-padded copy of
// one image: 0 when the geometry has no padding and the image is read as is.
func (d ConvDims) PaddedLen() int {
	if d.Pad == 0 {
		return 0
	}
	return d.InC * (d.InH + 2*d.Pad) * (d.InW + 2*d.Pad)
}

// convTapsOnStack bounds the patch size whose tap offsets ConvInto keeps in
// a stack array; larger patches allocate theirs.
const convTapsOnStack = 512

// ConvInto convolves one image without unrolling it: dst (OutC×OutH×OutW,
// channel-major) gets w [OutC, InC*KH*KW] applied to every window of x
// (InC×InH×InW) plus bias. The image is first copied into padded
// (PaddedLen floats, contents undefined on entry) with a zero border, so
// every tap of every window is one load at a fixed offset from the window's
// corner, padding taps included. Each output element is then the same dot
// product the im2col matrix's row gives — the same taps, zeros included,
// multiplied by the same weights and summed p ascending in one accumulator
// per output channel, four channels at a time — so the result equals
// MatMulTransBInto over Im2Col's matrix plus bias bit for bit. It runs on the
// calling goroutine; callers parallelize over images.
func ConvInto(dst, x []float64, d ConvDims, w *Tensor, bias, padded []float64) {
	k := d.InC * d.KH * d.KW
	if w.Rank() != 2 || w.shape[0] != d.OutC || w.shape[1] != k || len(bias) != d.OutC ||
		len(x) != d.InC*d.InH*d.InW || len(dst) != d.OutC*d.OutH*d.OutW || len(padded) != d.PaddedLen() {
		panic(fmt.Sprintf("tensor: ConvInto shape mismatch for %+v: weights %v, bias %d, image %d, dst %d, padded %d",
			d, w.shape, len(bias), len(x), len(dst), len(padded)))
	}
	img, ph, pw := x, d.InH, d.InW
	if d.Pad > 0 {
		img, ph, pw = padded, d.InH+2*d.Pad, d.InW+2*d.Pad
		padImage(padded, x, d)
	}
	// taps[p] is where tap p of a window sits relative to the window's
	// top-left corner, in im2col's column order (channel, row, column).
	var onStack [convTapsOnStack]int
	taps := onStack[:0]
	if k > convTapsOnStack {
		taps = make([]int, 0, k)
	}
	for c := 0; c < d.InC; c++ {
		for ky := 0; ky < d.KH; ky++ {
			for kx := 0; kx < d.KW; kx++ {
				taps = append(taps, (c*ph+ky)*pw+kx)
			}
		}
	}
	spatial := d.OutH * d.OutW
	for oy := 0; oy < d.OutH; oy++ {
		for ox := 0; ox < d.OutW; ox++ {
			pos := oy*d.OutW + ox
			win := img[oy*d.Stride*pw+ox*d.Stride:]
			oc := 0
			for ; oc+4 <= d.OutC; oc += 4 {
				// The [:len(taps)] reslices let the compiler drop the bounds
				// checks on the weight loads.
				w0 := w.Data[oc*k : (oc+1)*k][:len(taps)]
				w1 := w.Data[(oc+1)*k : (oc+2)*k][:len(taps)]
				w2 := w.Data[(oc+2)*k : (oc+3)*k][:len(taps)]
				w3 := w.Data[(oc+3)*k : (oc+4)*k][:len(taps)]
				var s0, s1, s2, s3 float64
				for p, t := range taps {
					v := win[t]
					s0 += v * w0[p]
					s1 += v * w1[p]
					s2 += v * w2[p]
					s3 += v * w3[p]
				}
				dst[oc*spatial+pos] = s0 + bias[oc]
				dst[(oc+1)*spatial+pos] = s1 + bias[oc+1]
				dst[(oc+2)*spatial+pos] = s2 + bias[oc+2]
				dst[(oc+3)*spatial+pos] = s3 + bias[oc+3]
			}
			for ; oc < d.OutC; oc++ {
				wo := w.Data[oc*k : (oc+1)*k][:len(taps)]
				s := 0.0
				for p, t := range taps {
					s += win[t] * wo[p]
				}
				dst[oc*spatial+pos] = s + bias[oc]
			}
		}
	}
}

// padImage copies the image x into padded with a zero border d.Pad wide.
func padImage(padded, x []float64, d ConvDims) {
	pw := d.InW + 2*d.Pad
	border := d.Pad * pw // the rows above (and below) each channel's image
	i := 0
	for c := 0; c < d.InC; c++ {
		clear(padded[i : i+border+d.Pad])
		i += border + d.Pad
		for y := 0; y < d.InH; y++ {
			copy(padded[i:i+d.InW], x[(c*d.InH+y)*d.InW:])
			clear(padded[i+d.InW : i+pw])
			i += pw
		}
		clear(padded[i : i+border-d.Pad])
		i += border - d.Pad
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
