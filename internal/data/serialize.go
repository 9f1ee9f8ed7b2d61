package data

import "bprom/internal/binio"

// Binary dataset section of the detector artifact. A detector is only as
// portable as its external dataset DT: prompting and the DQ query samples
// must be bit-identical across processes for verdicts to reproduce, so the
// artifact embeds the exact pixel and label data rather than a generator
// recipe. The enclosing artifact (internal/bprom/serialize.go) carries
// magic and version.

// Save writes the dataset section to w.
func (d *Dataset) Save(w *binio.Writer) {
	w.String(d.Name)
	for _, v := range []int{d.Shape.C, d.Shape.H, d.Shape.W, d.Classes} {
		w.U32(uint32(v))
	}
	w.Floats(d.X)
	w.Ints(d.Y)
}

// LoadDataset reads a dataset section previously written by Save and
// validates its internal consistency.
func LoadDataset(r *binio.Reader) (*Dataset, error) {
	d := &Dataset{
		Name:    r.String(),
		Shape:   Shape{C: int(r.U32()), H: int(r.U32()), W: int(r.U32())},
		Classes: int(r.U32()),
	}
	if !d.Shape.Valid() || d.Classes < 1 {
		r.Failf("data: invalid dataset geometry %+v classes=%d", d.Shape, d.Classes)
	}
	d.X, d.Y = r.Floats(), r.Ints()
	if len(d.X) != len(d.Y)*d.Shape.Dim() {
		r.Failf("data: %d pixel values for %d samples of dim %d", len(d.X), len(d.Y), d.Shape.Dim())
	}
	for i, y := range d.Y {
		if y < 0 || y >= d.Classes {
			r.Failf("data: sample %d has label %d outside %d classes", i, y, d.Classes)
			break
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return d, nil
}
