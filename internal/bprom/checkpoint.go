package bprom

import (
	"bytes"
	"context"
	"fmt"

	"bprom/internal/binio"
	"bprom/internal/oracle"
	"bprom/internal/rng"
	"bprom/internal/vp"
)

// Inspection checkpoints: the resumable state of an in-flight Inspect call
// at a CMA-ES generation boundary. The job store persists one of these per
// journal checkpoint record (as an opaque blob inside a CRC-framed record),
// so a server restart resumes every running audit from its last completed
// generation instead of from scratch — bit-exactly, because the snapshot
// carries the optimizer state and both RNG streams, and the query counter is
// pre-charged with the checkpointed spend.

// checkpointMagic guards against feeding an arbitrary blob to DecodeCheckpoint;
// the version allows the layout to evolve without silent misreads.
const (
	checkpointMagic   = 0x4250_434b // "BPCK"
	checkpointVersion = 1
)

// Checkpoint is a restartable snapshot of an inspection.
type Checkpoint struct {
	// Generation is the number of completed CMA-ES generations.
	Generation int
	// Queries is the oracle sample spend at the snapshot — the value the
	// resumed run's counter is pre-charged with.
	Queries int64
	// Search is the optimizer + mini-batch RNG state.
	Search *vp.SearchState
}

// Encode returns the checkpoint in its wire form, in one exactly sized
// allocation.
func (c *Checkpoint) Encode() ([]byte, error) {
	if c.Search == nil {
		return nil, fmt.Errorf("bprom: checkpoint has no search state")
	}
	header := []uint64{checkpointMagic, checkpointVersion, uint64(c.Generation), uint64(c.Queries)}
	var w binio.Writer
	w.Grow(8*len(header) + c.Search.SavedSize())
	for _, v := range header {
		w.U64(v)
	}
	c.Search.Save(&w)
	return w.Bytes(), w.Err()
}

// DecodeCheckpoint parses a checkpoint from its wire form.
func DecodeCheckpoint(b []byte) (*Checkpoint, error) {
	r := binio.NewReader(bytes.NewReader(b))
	magic, version, generation, queries := r.U64(), r.U64(), r.U64(), r.U64()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("bprom: reading checkpoint header: %w", err)
	}
	if magic != checkpointMagic {
		return nil, fmt.Errorf("bprom: not a checkpoint blob (magic %#x)", magic)
	}
	if version != checkpointVersion {
		return nil, fmt.Errorf("bprom: unsupported checkpoint version %d", version)
	}
	search, err := vp.LoadSearchState(r)
	if err != nil {
		return nil, fmt.Errorf("bprom: reading checkpoint search state: %w", err)
	}
	return &Checkpoint{Generation: int(generation), Queries: int64(queries), Search: search}, nil
}

// InspectResumable is InspectProgress with checkpoint support: onCheckpoint
// (when non-nil) fires after every completed CMA-ES generation with a
// snapshot that, passed back as resume, continues the inspection bit-exactly
// — same prompt θ, same verdict, same total query count — after a process
// restart. A crash after the search finished but before the verdict was
// recorded simply redoes the feature-extraction queries from the
// final-generation snapshot, which replays the identical query stream.
// Checkpointing does not perturb the RNG streams or the query sequence, so
// an uninterrupted run with hooks is bit-identical to Inspect.
func (d *Detector) InspectResumable(ctx context.Context, sus oracle.Oracle, inspectID int, onProgress func(Progress), onCheckpoint func(*Checkpoint), resume *Checkpoint) (Verdict, error) {
	counter := oracle.NewCounter(sus)
	if resume != nil {
		if resume.Search == nil {
			return Verdict{}, fmt.Errorf("bprom: resume checkpoint has no search state")
		}
		counter.Add(resume.Queries)
	}
	r := rng.New(d.seed).Split("inspect", inspectID)
	prompt, err := vp.NewPrompt(d.prompt.source, d.extTrain.Shape, d.prompt.frac)
	if err != nil {
		return Verdict{}, err
	}
	bb := d.blackBox
	if resume != nil {
		bb.Resume = resume.Search
	}
	if onCheckpoint != nil {
		bb.OnCheckpoint = func(st *vp.SearchState) {
			onCheckpoint(&Checkpoint{Generation: st.CMA.Iter, Queries: counter.Queries(), Search: st})
		}
	}
	var reported int64
	if onProgress != nil {
		gens := bb.Generations()
		bb.OnGeneration = func(gen int) {
			q := counter.Queries()
			onProgress(Progress{Generation: gen, Generations: gens, Queries: q, QueriesDelta: q - reported})
			reported = q
		}
		first := Progress{Generations: gens}
		if resume != nil {
			first.Generation = resume.Generation
			first.Queries = resume.Queries
			reported = resume.Queries
		}
		onProgress(first)
	}
	// Error paths still report Queries: a failed job's structured error
	// envelope carries the spend exactly as oracle.Counter metered it.
	d.windowsOnce.Do(func() { d.windows = vp.NewWindows(prompt, d.extTrain) })
	if err := vp.TrainBlackBoxWindows(ctx, counter, prompt, d.windows, bb, r); err != nil {
		return Verdict{Queries: counter.Queries()}, fmt.Errorf("bprom: black-box prompting: %w", err)
	}
	pm := &vp.Prompted{Oracle: counter, Prompt: prompt}
	acc, err := pm.Accuracy(ctx, d.external)
	if err != nil {
		return Verdict{Queries: counter.Queries()}, err
	}
	feats, err := confidenceFeatures(ctx, counter, prompt, d.external, d.queryIdx)
	if err != nil {
		return Verdict{Queries: counter.Queries()}, err
	}
	score, err := d.forest.Score(feats)
	if err != nil {
		return Verdict{Queries: counter.Queries()}, err
	}
	if onProgress != nil {
		gens := bb.Generations()
		q := counter.Queries()
		onProgress(Progress{Generation: gens, Generations: gens, Queries: q, QueriesDelta: q - reported})
	}
	return Verdict{
		Score:       score,
		Threshold:   d.threshold,
		Backdoored:  score >= d.threshold,
		PromptedAcc: acc,
		Queries:     counter.Queries(),
	}, nil
}
