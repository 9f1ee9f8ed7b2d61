// Package data provides the Dataset container and the deterministic
// synthetic image datasets substituting for CIFAR-10, GTSRB, STL-10, SVHN,
// CIFAR-100, Tiny-ImageNet and ImageNet.
//
// Each synthetic dataset keeps its real counterpart's class count and an
// image-like generative structure: every class owns a template composed of
// low-frequency 2-D sinusoids plus a soft blob, and samples are the template
// under per-sample jitter (additive noise, brightness shift, small
// translation). Classes therefore form distinct clusters whose subspace
// geometry a trained network carves up — exactly the structure that the
// paper's class-subspace-inconsistency argument relies on — while low
// inter-class frequency content keeps defenses like the DCT-based Frequency
// detector meaningful (patch triggers add high-frequency energy).
package data

import (
	"fmt"
	"math"

	"bprom/internal/rng"
	"bprom/internal/tensor"
)

// Shape describes per-sample image geometry.
type Shape struct {
	C, H, W int
}

// Dim returns the flattened per-sample width.
func (s Shape) Dim() int { return s.C * s.H * s.W }

// Valid reports whether all dimensions are positive.
func (s Shape) Valid() bool { return s.C > 0 && s.H > 0 && s.W > 0 }

// Dataset is a labelled collection of flattened images with values in [0,1].
// X is sample-major: sample i occupies X[i*Shape.Dim() : (i+1)*Shape.Dim()].
type Dataset struct {
	Name    string
	Shape   Shape
	Classes int
	X       []float64
	Y       []int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Y) }

// Sample returns a view (not a copy) of sample i's pixels.
func (d *Dataset) Sample(i int) []float64 {
	w := d.Shape.Dim()
	return d.X[i*w : (i+1)*w]
}

// SetSample overwrites sample i's pixels.
func (d *Dataset) SetSample(i int, pix []float64) {
	copy(d.Sample(i), pix)
}

// Clone deep-copies the dataset.
func (d *Dataset) Clone() *Dataset {
	c := &Dataset{Name: d.Name, Shape: d.Shape, Classes: d.Classes}
	c.X = append([]float64(nil), d.X...)
	c.Y = append([]int(nil), d.Y...)
	return c
}

// Subset returns a new dataset containing the given sample indices (copied).
func (d *Dataset) Subset(idx []int) *Dataset {
	w := d.Shape.Dim()
	s := &Dataset{
		Name:    d.Name,
		Shape:   d.Shape,
		Classes: d.Classes,
		X:       make([]float64, 0, len(idx)*w),
		Y:       make([]int, 0, len(idx)),
	}
	for _, i := range idx {
		s.X = append(s.X, d.Sample(i)...)
		s.Y = append(s.Y, d.Y[i])
	}
	return s
}

// Append adds all samples of o (which must share the shape) to d.
func (d *Dataset) Append(o *Dataset) error {
	if d.Shape != o.Shape {
		return fmt.Errorf("data: cannot append %v-shaped samples to %v dataset", o.Shape, d.Shape)
	}
	d.X = append(d.X, o.X...)
	d.Y = append(d.Y, o.Y...)
	return nil
}

// Add appends one sample.
func (d *Dataset) Add(pix []float64, label int) {
	d.X = append(d.X, pix...)
	d.Y = append(d.Y, label)
}

// Batch materializes samples idx as a [len(idx), Dim] tensor plus labels.
func (d *Dataset) Batch(idx []int) (*tensor.Tensor, []int) {
	w := d.Shape.Dim()
	x := tensor.New(len(idx), w)
	y := make([]int, len(idx))
	for bi, i := range idx {
		copy(x.Data[bi*w:(bi+1)*w], d.Sample(i))
		y[bi] = d.Y[i]
	}
	return x, y
}

// Tensor materializes the whole dataset as a [N, Dim] tensor.
func (d *Dataset) Tensor() *tensor.Tensor {
	x := tensor.New(d.Len(), d.Shape.Dim())
	copy(x.Data, d.X)
	return x
}

// Split partitions the dataset into train and test parts with testFrac of
// the samples (per class, to keep splits stratified) going to test.
func (d *Dataset) Split(testFrac float64, r *rng.RNG) (train, test *Dataset) {
	perClass := make(map[int][]int, d.Classes)
	for i, y := range d.Y {
		perClass[y] = append(perClass[y], i)
	}
	var trainIdx, testIdx []int
	for c := 0; c < d.Classes; c++ {
		idx := perClass[c]
		if len(idx) == 0 {
			continue
		}
		perm := r.Perm(len(idx))
		nTest := int(math.Round(testFrac * float64(len(idx))))
		if nTest >= len(idx) {
			nTest = len(idx) - 1
		}
		for k, p := range perm {
			if k < nTest {
				testIdx = append(testIdx, idx[p])
			} else {
				trainIdx = append(trainIdx, idx[p])
			}
		}
	}
	return d.Subset(trainIdx), d.Subset(testIdx)
}

// Reserve implements the paper's reserved clean dataset DS: it returns a
// stratified random frac (e.g. 0.01, 0.05, 0.10) of d. The defender only
// ever sees this slice of the test set.
func (d *Dataset) Reserve(frac float64, r *rng.RNG) *Dataset {
	if frac <= 0 || frac > 1 {
		panic(fmt.Sprintf("data: Reserve frac %v outside (0,1]", frac))
	}
	perClass := make(map[int][]int, d.Classes)
	for i, y := range d.Y {
		perClass[y] = append(perClass[y], i)
	}
	var keep []int
	for c := 0; c < d.Classes; c++ {
		idx := perClass[c]
		if len(idx) == 0 {
			continue
		}
		n := int(math.Ceil(frac * float64(len(idx))))
		sel := r.Sample(len(idx), n)
		for _, s := range sel {
			keep = append(keep, idx[s])
		}
	}
	res := d.Subset(keep)
	res.Name = fmt.Sprintf("%s-reserved%.0f%%", d.Name, frac*100)
	return res
}

// ClassIndices returns the sample indices belonging to class c.
func (d *Dataset) ClassIndices(c int) []int {
	var out []int
	for i, y := range d.Y {
		if y == c {
			out = append(out, i)
		}
	}
	return out
}

// Resize returns a copy of the dataset with every sample bilinearly resized
// to the target height and width (channel count preserved). Visual prompting
// uses this to place target-domain images inside the source-domain canvas.
func (d *Dataset) Resize(h, w int) *Dataset {
	out := &Dataset{
		Name:    d.Name,
		Shape:   Shape{C: d.Shape.C, H: h, W: w},
		Classes: d.Classes,
		Y:       append([]int(nil), d.Y...),
	}
	out.X = make([]float64, d.Len()*out.Shape.Dim())
	buf := make([]float64, out.Shape.Dim())
	for i := 0; i < d.Len(); i++ {
		ResizeImage(d.Sample(i), d.Shape, buf, out.Shape)
		copy(out.X[i*len(buf):(i+1)*len(buf)], buf)
	}
	return out
}

// ResizeImage bilinearly resamples src (srcShape) into dst (dstShape). The
// channel counts must match.
func ResizeImage(src []float64, srcShape Shape, dst []float64, dstShape Shape) {
	if srcShape.C != dstShape.C {
		panic(fmt.Sprintf("data: resize channel mismatch %d -> %d", srcShape.C, dstShape.C))
	}
	sh, sw := srcShape.H, srcShape.W
	dh, dw := dstShape.H, dstShape.W
	for c := 0; c < srcShape.C; c++ {
		sOff := c * sh * sw
		dOff := c * dh * dw
		for y := 0; y < dh; y++ {
			fy := 0.0
			if dh > 1 {
				fy = float64(y) * float64(sh-1) / float64(dh-1)
			}
			y0 := int(fy)
			y1 := y0 + 1
			if y1 >= sh {
				y1 = sh - 1
			}
			wy := fy - float64(y0)
			for x := 0; x < dw; x++ {
				fx := 0.0
				if dw > 1 {
					fx = float64(x) * float64(sw-1) / float64(dw-1)
				}
				x0 := int(fx)
				x1 := x0 + 1
				if x1 >= sw {
					x1 = sw - 1
				}
				wx := fx - float64(x0)
				v00 := src[sOff+y0*sw+x0]
				v01 := src[sOff+y0*sw+x1]
				v10 := src[sOff+y1*sw+x0]
				v11 := src[sOff+y1*sw+x1]
				dst[dOff+y*dw+x] = v00*(1-wy)*(1-wx) + v01*(1-wy)*wx + v10*wy*(1-wx) + v11*wy*wx
			}
		}
	}
}
