package vp

import (
	"bprom/internal/binio"
	"bprom/internal/data"
)

// Binary prompt section of the detector artifact: the source canvas
// geometry, the inner window side length, and the learned border pixels θ.
// The border index set is not stored — it is a pure function of the
// geometry and is rebuilt on load, so the section stays compact and cannot
// desynchronize from the canvas shape. The enclosing artifact
// (internal/bprom/serialize.go) carries magic and version.

// Save writes the prompt section to w.
func (p *Prompt) Save(w *binio.Writer) {
	for _, v := range []int{p.Source.C, p.Source.H, p.Source.W, p.Inner} {
		w.U32(uint32(v))
	}
	w.Floats(p.Theta)
}

// LoadPrompt reads a prompt section previously written by Save and rebuilds
// the border geometry.
func LoadPrompt(r *binio.Reader) (*Prompt, error) {
	source := data.Shape{C: int(r.U32()), H: int(r.U32()), W: int(r.U32())}
	inner := int(r.U32())
	if !source.Valid() {
		r.Failf("vp: invalid prompt canvas %+v", source)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	p, err := newPromptGeometry(source, inner)
	if err != nil {
		return nil, err
	}
	// The geometry dictates the border size; θ must match it exactly.
	if r.FloatsInto(p.Theta); r.Err() != nil {
		return nil, r.Err()
	}
	return p, nil
}
