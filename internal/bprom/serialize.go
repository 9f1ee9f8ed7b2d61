package bprom

import (
	"fmt"
	"io"

	"bprom/internal/binio"
	"bprom/internal/data"
	"bprom/internal/meta"
	"bprom/internal/vp"
)

// Detector artifact format (.bpd): the persistent form of a trained BPROM
// detector, opened by the same binio prelude (magic + version) as the nn
// checkpoint format. It holds everything Inspect needs — the meta-classifier forest,
// the OOB-calibrated threshold, the DQ query-sample indices, the embedded
// external dataset DT (both splits, bit-exact), the prompt geometry, the
// black-box prompting configuration, and the detector seed — plus the
// per-shadow analysis metadata (label, prompted accuracy, meta-features,
// learned prompt tensors).
//
// Shadow MODELS are deliberately not persisted: detection never queries
// them again, and they dominate the artifact size. A loaded detector
// therefore has Shadow.Model == nil; everything else round-trips exactly,
// so a detector trained once with `bprom train -out d.bpd` audits models in
// any later process with verdicts bit-identical to the training process.

const (
	detectorMagic   = "BPROMDET"
	detectorVersion = uint32(1)
)

// Save writes the detector artifact to w.
func (d *Detector) Save(w io.Writer) error {
	bw := binio.NewWriter(w)
	d.encode(bw)
	return bw.Flush()
}

// SaveFile writes the detector artifact to path, creating or truncating it.
func (d *Detector) SaveFile(path string) error { return binio.SaveFile(path, d.encode) }

// Load reads a detector artifact previously written by Save.
func Load(r io.Reader) (*Detector, error) { return decode(binio.NewReader(r)) }

// LoadFile reads a detector artifact from path.
func LoadFile(path string) (*Detector, error) { return binio.LoadFile(path, decode) }

func (d *Detector) encode(w *binio.Writer) {
	w.Prelude(detectorMagic, detectorVersion)
	w.U64(d.seed)
	w.F64(d.threshold)
	for _, v := range []int{d.prompt.source.C, d.prompt.source.H, d.prompt.source.W} {
		w.U32(uint32(v))
	}
	w.F64(d.prompt.frac)
	// Negative config values mean "use the default" (like zero); clamp them
	// so they cannot wrap into huge budgets on load.
	for _, v := range []int{d.blackBox.Iterations, d.blackBox.PopSize, d.blackBox.BatchSize, d.blackBox.MaxQueries} {
		w.U32(uint32(max(v, 0)))
	}
	w.F64(d.blackBox.Sigma0)
	w.Bool(d.blackBox.UseSPSA)
	w.Ints(d.queryIdx)
	d.extTrain.Save(w)
	d.external.Save(w)
	d.forest.Save(w)
	w.U32(uint32(len(d.Shadows)))
	for _, s := range d.Shadows {
		w.Bool(s.Backdoor)
		w.F64(s.PromptedAcc)
		w.Floats(s.Features)
		w.Bool(s.Prompt != nil)
		if s.Prompt != nil {
			s.Prompt.Save(w)
		}
	}
}

func decode(r *binio.Reader) (*Detector, error) {
	r.Prelude(detectorMagic, detectorVersion)
	d := &Detector{seed: r.U64(), threshold: r.F64()}
	d.prompt.source = data.Shape{C: int(r.U32()), H: int(r.U32()), W: int(r.U32())}
	if !d.prompt.source.Valid() {
		r.Failf("bprom: invalid prompt canvas %+v", d.prompt.source)
	}
	d.prompt.frac = r.F64()
	for _, dst := range []*int{&d.blackBox.Iterations, &d.blackBox.PopSize, &d.blackBox.BatchSize, &d.blackBox.MaxQueries} {
		*dst = int(r.U32())
	}
	d.blackBox.Sigma0 = r.F64()
	d.blackBox.UseSPSA = r.Bool()
	d.queryIdx = r.Ints()
	if err := r.Err(); err != nil {
		return nil, err
	}
	var err error
	if d.extTrain, err = data.LoadDataset(r); err != nil {
		return nil, fmt.Errorf("bprom: load DT train split: %w", err)
	}
	if d.external, err = data.LoadDataset(r); err != nil {
		return nil, fmt.Errorf("bprom: load DT test split: %w", err)
	}
	for _, qi := range d.queryIdx {
		if qi >= d.external.Len() {
			return nil, fmt.Errorf("bprom: query index %d outside DT test split of %d samples", qi, d.external.Len())
		}
	}
	if d.forest, err = meta.Load(r); err != nil {
		return nil, fmt.Errorf("bprom: load forest: %w", err)
	}
	nShadows := r.U32()
	if nShadows > 1<<16 {
		r.Failf("bprom: implausible shadow count %d", nShadows)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	d.Shadows = make([]Shadow, nShadows)
	for i := range d.Shadows {
		s := &d.Shadows[i]
		s.Backdoor, s.PromptedAcc, s.Features = r.Bool(), r.F64(), r.Floats()
		if r.Bool() {
			if s.Prompt, err = vp.LoadPrompt(r); err != nil {
				return nil, fmt.Errorf("bprom: load shadow %d prompt: %w", i, err)
			}
		}
		if err := r.Err(); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// InputDim reports the flattened input width suspicious oracles must have
// (the prompt canvas of the source domain).
func (d *Detector) InputDim() int { return d.prompt.source.Dim() }

// MinClasses reports the smallest label-space size a suspicious oracle can
// have: the identity label mapping needs at least as many source classes as
// the external task DT has.
func (d *Detector) MinClasses() int { return d.extTrain.Classes }

// Compatible reports whether a suspicious oracle with the given label-space
// size and input width can be audited by this detector, with a descriptive
// error when it cannot. Serving layers use it to reject incompatible audit
// submissions up front instead of failing the job mid-prompt.
func (d *Detector) Compatible(numClasses, inputDim int) error {
	if inputDim != d.InputDim() {
		return fmt.Errorf("bprom: model input width %d, detector prompts a %dx%dx%d canvas (dim %d)",
			inputDim, d.prompt.source.C, d.prompt.source.H, d.prompt.source.W, d.InputDim())
	}
	if numClasses < d.MinClasses() {
		return fmt.Errorf("bprom: model has %d classes, detector's external task needs at least %d",
			numClasses, d.MinClasses())
	}
	return nil
}
