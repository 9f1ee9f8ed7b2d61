package nn

import (
	"fmt"
	"io"

	"bprom/internal/binio"
	"bprom/internal/rng"
	"bprom/internal/tensor"
)

// Binary model format: the binio prelude (magic, version), arch, input dim,
// class count, then a recursive layer list with one byte-tag per layer type.
// Weights are raw little-endian float64. The format is versioned so saved
// shadow models remain loadable across releases.

const (
	formatMagic   = "BPROMNN"
	formatVersion = uint32(1)
)

// Layer tags. Values are stable once released — append only.
const (
	tagDense byte = iota + 1
	tagReLU
	tagTanh
	tagDropout
	tagLayerNorm
	tagResidual
	tagConv2D
	tagFlatten
	tagToImage
	tagGlobalAvgPool
)

// Save writes the model to w. Quantized models cannot be saved: the int8
// representation is derived state, re-created at load time from the full-
// precision weights, and persisting it would silently lose precision.
func (m *Model) Save(w io.Writer) error {
	bw := binio.NewWriter(w)
	m.encode(bw)
	return bw.Flush()
}

// SaveFile writes the model to path, creating or truncating it.
func (m *Model) SaveFile(path string) error { return binio.SaveFile(path, m.encode) }

// Load reads a model previously written by Save.
func Load(r io.Reader) (*Model, error) { return decode(binio.NewReader(r)) }

// LoadFile reads a model from path.
func LoadFile(path string) (*Model, error) { return binio.LoadFile(path, decode) }

func (m *Model) encode(w *binio.Writer) {
	if m.quantized {
		w.Failf("nn: cannot serialize a quantized model (quantization is derived at load, not persisted)")
		return
	}
	w.Prelude(formatMagic, formatVersion)
	w.String(string(m.Arch))
	w.U32(uint32(m.InputDim))
	w.U32(uint32(m.NumClasses))
	encodeLayers(w, m.Layers)
}

func decode(r *binio.Reader) (*Model, error) {
	h := decodeHeader(r)
	m := &Model{Arch: h.Arch, InputDim: h.InputDim, NumClasses: h.NumClasses, Layers: decodeLayers(r)}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("nn: loaded model invalid: %w", err)
	}
	return m, nil
}

func encodeLayers(w *binio.Writer, layers []Layer) {
	w.U32(uint32(len(layers)))
	for _, l := range layers {
		encodeLayer(w, l)
	}
}

func encodeLayer(w *binio.Writer, l Layer) {
	switch v := l.(type) {
	case *Dense:
		w.U8(tagDense)
		w.U32(uint32(v.In))
		w.U32(uint32(v.Out))
		w.Floats(v.W.Value.Data)
		w.Floats(v.B.Value.Data)
	case *ReLU:
		w.U8(tagReLU)
	case *Tanh:
		w.U8(tagTanh)
	case *Dropout:
		w.U8(tagDropout)
		w.Floats([]float64{v.Rate})
	case *LayerNorm:
		w.U8(tagLayerNorm)
		w.U32(uint32(v.F))
		w.Floats(v.Gamma.Value.Data)
		w.Floats(v.Beta.Value.Data)
	case *Residual:
		w.U8(tagResidual)
		encodeLayers(w, v.Body)
	case *Conv2D:
		w.U8(tagConv2D)
		d := v.Dims
		for _, x := range []int{d.InC, d.InH, d.InW, d.OutC, d.KH, d.KW, d.Stride, d.Pad} {
			w.U32(uint32(x))
		}
		w.Floats(v.W.Value.Data)
		w.Floats(v.B.Value.Data)
	case *Flatten:
		w.U8(tagFlatten)
	case *ToImage:
		w.U8(tagToImage)
		for _, x := range []int{v.C, v.H, v.W} {
			w.U32(uint32(x))
		}
	case *GlobalAvgPool:
		w.U8(tagGlobalAvgPool)
	default:
		w.Failf("nn: cannot serialize layer type %T", l)
	}
}

func decodeLayers(r *binio.Reader) []Layer {
	n := r.U32()
	if n > 1<<16 {
		r.Failf("nn: implausible layer count %d", n)
		return nil
	}
	layers := make([]Layer, 0, n)
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		layers = append(layers, decodeLayer(r))
	}
	return layers
}

// sized reports whether every decoded dimension is positive, latching an
// error otherwise: the tensor constructors panic on a zero, which is what a
// corrupt checkpoint — or a reader that already failed — hands out.
func sized(r *binio.Reader, dims ...int) bool {
	for _, d := range dims {
		if d <= 0 {
			r.Failf("nn: layer dimension %d, want a positive one", d)
		}
	}
	return r.Err() == nil
}

func decodeLayer(r *binio.Reader) Layer {
	switch tag := r.U8(); tag {
	case tagDense:
		in, out := int(r.U32()), int(r.U32())
		if !sized(r, in, out) {
			return nil
		}
		d := &Dense{
			In:  in,
			Out: out,
			W:   &Param{Name: "dense.w", Value: tensor.New(in, out), Grad: tensor.New(in, out)},
			B:   &Param{Name: "dense.b", Value: tensor.New(1, out), Grad: tensor.New(1, out)},
		}
		r.FloatsInto(d.W.Value.Data)
		r.FloatsInto(d.B.Value.Data)
		return d
	case tagReLU:
		return &ReLU{}
	case tagTanh:
		return &Tanh{}
	case tagDropout:
		rate := make([]float64, 1)
		r.FloatsInto(rate)
		// The dropout RNG is not part of the persisted state; inference does
		// not use it, and resumed training reseeds deterministically.
		return NewDropout(rate[0], rng.New(0xd06))
	case tagLayerNorm:
		f := int(r.U32())
		if !sized(r, f) {
			return nil
		}
		ln := NewLayerNorm(f)
		r.FloatsInto(ln.Gamma.Value.Data)
		r.FloatsInto(ln.Beta.Value.Data)
		return ln
	case tagResidual:
		return &Residual{Body: decodeLayers(r)}
	case tagConv2D:
		var vals [8]int
		for i := range vals {
			vals[i] = int(r.U32())
		}
		dims := tensor.ConvDims{
			InC: vals[0], InH: vals[1], InW: vals[2],
			OutC: vals[3], KH: vals[4], KW: vals[5],
			Stride: vals[6], Pad: vals[7],
		}
		if !sized(r, dims.InC, dims.OutC, dims.KH, dims.KW) {
			return nil
		}
		if err := dims.Resolve(); err != nil {
			r.Failf("nn: %v", err)
			return nil
		}
		c := NewConv2D(dims, rng.New(0)) // weights overwritten below
		r.FloatsInto(c.W.Value.Data)
		r.FloatsInto(c.B.Value.Data)
		return c
	case tagFlatten:
		return &Flatten{}
	case tagToImage:
		return &ToImage{C: int(r.U32()), H: int(r.U32()), W: int(r.U32())}
	case tagGlobalAvgPool:
		return &GlobalAvgPool{}
	default:
		r.Failf("nn: unknown layer tag %d", tag)
		return nil
	}
}
