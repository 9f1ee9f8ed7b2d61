package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"bprom/internal/attack"
	"bprom/internal/bprom"
	"bprom/internal/data"
	"bprom/internal/nn"
	"bprom/internal/oracle"
	"bprom/internal/rng"
	"bprom/internal/tensor"
	"bprom/internal/trainer"
	"bprom/internal/vp"
)

// The zoo: two trained checkpoints (one clean, one BadNets-backdoored) and
// six seeded random-weight ones, all of the examples/fleet ConvLite family.
// Audits alternate between the trained pair; predicts round-robin over all
// eight, so the registry hot-set and the per-model engines are exercised as
// a fleet, not as one cache-resident model.
const (
	zooRandom   = 6
	predictRows = 8 // rows per predict request: the narrow-request shape
	predictPool = 64
)

var auditTargets = []string{"clean", "badnets"}

// scale fixes every size the inputs depend on. There are two: the real one
// and the smoke one (seconds in total, for tests).
type scale struct {
	epochs      int
	shadows     int // clean and backdoor each
	generations int // CMA-ES generations per audit (0: the detector default, 40)
}

var (
	fullScale  = scale{epochs: 14, shadows: 6, generations: 0}
	smokeScale = scale{epochs: 2, shadows: 2, generations: 3}
)

// inputs is everything a workload consumes, derived from the seed alone.
type inputs struct {
	seed    uint64
	zooDir  string
	detPath string
	trainS  float64 // wall seconds bprom.Train took when the artifact was made

	ids    []string             // zoo model ids, sorted as the registry lists them
	models map[string]*nn.Model // in-process reference copies (fp64)
	reqs   []*tensor.Tensor     // predict request pool, predictRows×InputDim each
	want   map[string][]*tensor.Tensor

	det *bprom.Detector
	// audits is the fixed cycle of (model, inspect id) pairs the audit
	// workloads walk — each audited model with an inspect id of its own;
	// refs holds the in-process verdict for each, computed
	// by this binary so a numerics change never reads as a parity failure.
	audits     []auditKey
	refs       map[auditKey]bprom.Verdict
	refSeconds []float64 // wall seconds of each hook-free in-process Inspect
}

type auditKey struct {
	Model     string
	InspectID int
}

// detectorMeta is kept beside a cached detector artifact.
type detectorMeta struct {
	TrainS float64 `json:"train_s"`
}

// cached returns dir/name, building it with build first unless an earlier
// run already did: the artifacts are pure functions of the seed and cost
// seconds to make. build fills a temporary directory that is renamed into
// place only when complete, so an interrupted build never passes for one.
func cached(dir, name string, build func(tmp string) error) (string, error) {
	final := filepath.Join(dir, name)
	if _, err := os.Stat(final); err == nil {
		return final, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	tmp, err := os.MkdirTemp(dir, name+".tmp-")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(tmp)
	if err := build(tmp); err != nil {
		return "", err
	}
	if err := os.Rename(tmp, final); err != nil {
		return "", err
	}
	return final, nil
}

// prepareInputs materializes, under cacheRoot, the zoo for seed and — for
// the audit workloads, which alone need it — the detector artifact, then
// loads the in-process references.
func prepareInputs(ctx context.Context, cacheRoot string, seed uint64, sc scale, smoke, withDetector bool) (*inputs, error) {
	name := fmt.Sprintf("seed-%d", seed)
	if smoke {
		name += "-smoke"
	}
	dir := filepath.Join(cacheRoot, "inputs", name)
	ds := makeDatasets(seed)
	in := &inputs{seed: seed, models: make(map[string]*nn.Model), want: make(map[string][]*tensor.Tensor)}
	var err error
	if in.zooDir, err = cached(dir, "zoo", func(tmp string) error { return buildZoo(ctx, tmp, ds, sc) }); err != nil {
		return nil, fmt.Errorf("inputs: zoo: %w", err)
	}
	in.ids = zooIDs()
	for _, id := range in.ids {
		m, err := nn.LoadFile(filepath.Join(in.zooDir, id+".bin"))
		if err != nil {
			return nil, fmt.Errorf("inputs: %w", err)
		}
		in.models[id] = m
	}
	dim := in.models[in.ids[0]].InputDim
	r := rng.New(seed).Split("requests")
	for i := 0; i < predictPool; i++ {
		x := tensor.New(predictRows, dim)
		r.Uniform(x.Data, 0, 1)
		in.reqs = append(in.reqs, x)
	}
	for _, id := range in.ids {
		for _, x := range in.reqs {
			in.want[id] = append(in.want[id], in.models[id].Predict(x))
		}
	}
	if !withDetector {
		return in, nil
	}

	detDir, err := cached(dir, "detector", func(tmp string) error { return buildDetector(ctx, tmp, ds, sc) })
	if err != nil {
		return nil, fmt.Errorf("inputs: detector: %w", err)
	}
	in.detPath = filepath.Join(detDir, "detector.bpd")
	raw, err := os.ReadFile(filepath.Join(detDir, "meta.json"))
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	var meta detectorMeta
	if err := json.Unmarshal(raw, &meta); err != nil {
		return nil, fmt.Errorf("inputs: detector meta: %w", err)
	}
	in.trainS = meta.TrainS
	if in.det, err = bprom.LoadFile(in.detPath); err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	for i, id := range auditTargets {
		in.audits = append(in.audits, auditKey{Model: id, InspectID: i})
	}
	return in, nil
}

// zooIDs lists the zoo's model ids in the registry's (sorted) order.
func zooIDs() []string {
	ids := []string{"badnets", "clean"}
	for i := 0; i < zooRandom; i++ {
		ids = append(ids, fmt.Sprintf("rand%d", i))
	}
	return ids
}

// datasets are the seed's source-domain (CIFAR-10-like) and external
// (STL-10-like) splits, as in examples/fleet.
type datasets struct {
	seed              uint64
	srcTrain, srcTest *data.Dataset
	tgtTrain, tgtTest *data.Dataset
}

// sub derives an independent seed for one labelled purpose.
func (d *datasets) sub(label string) uint64 { return rng.New(d.seed).Split(label).Uint64() }

func makeDatasets(seed uint64) *datasets {
	d := &datasets{seed: seed}
	srcGen := data.NewGenerator(data.MustSpec(data.CIFAR10), d.sub("src-templates"))
	d.srcTrain, d.srcTest = srcGen.GenerateSplit(50, 150, rng.New(d.sub("src-samples")))
	tgtGen := data.NewGenerator(data.MustSpec(data.STL10), d.sub("tgt-templates"))
	d.tgtTrain, d.tgtTest = tgtGen.GenerateSplit(20, 10, rng.New(d.sub("tgt-samples")))
	return d
}

func buildZoo(ctx context.Context, dir string, ds *datasets, sc scale) error {
	arch := nn.ArchConfig{
		Arch: nn.ArchConvLite, C: ds.srcTrain.Shape.C, H: ds.srcTrain.Shape.H, W: ds.srcTrain.Shape.W,
		NumClasses: ds.srcTrain.Classes, Hidden: 24,
	}
	save := func(id string, train *data.Dataset) error {
		model, err := nn.Build(arch, rng.New(ds.sub("init-"+id)))
		if err != nil {
			return err
		}
		if train != nil {
			if _, err := trainer.Train(ctx, model, train, trainer.Config{Epochs: sc.epochs}, rng.New(ds.sub("train-"+id))); err != nil {
				return err
			}
		}
		return model.SaveFile(filepath.Join(dir, id+".bin"))
	}
	poisoned, _, err := attack.Poison(ds.srcTrain,
		attack.Config{Kind: attack.BadNets, PoisonRate: 0.15, Target: 0, Seed: ds.sub("trigger")},
		rng.New(ds.sub("poison")))
	if err != nil {
		return err
	}
	if err := save("clean", ds.srcTrain); err != nil {
		return err
	}
	if err := save("badnets", poisoned); err != nil {
		return err
	}
	for i := 0; i < zooRandom; i++ {
		if err := save(fmt.Sprintf("rand%d", i), nil); err != nil {
			return err
		}
	}
	return nil
}

func buildDetector(ctx context.Context, dir string, ds *datasets, sc scale) error {
	t0 := time.Now()
	det, err := bprom.Train(ctx, bprom.Config{
		Reserved:      ds.srcTest.Reserve(0.10, rng.New(ds.sub("reserve"))),
		ExternalTrain: ds.tgtTrain,
		ExternalTest:  ds.tgtTest,
		NumClean:      sc.shadows,
		NumBackdoor:   sc.shadows,
		ShadowArch:    nn.ArchConfig{Arch: nn.ArchConvLite, Hidden: 24},
		ShadowTrain:   trainer.Config{Epochs: sc.epochs},
		BlackBox:      vp.BlackBoxConfig{Iterations: sc.generations},
		Seed:          ds.sub("detector"),
	})
	if err != nil {
		return err
	}
	meta, _ := json.Marshal(detectorMeta{TrainS: time.Since(t0).Seconds()})
	if err := os.WriteFile(filepath.Join(dir, "meta.json"), meta, 0o644); err != nil {
		return err
	}
	return det.SaveFile(filepath.Join(dir, "detector.bpd"))
}

// computeAuditRefs runs the hook-free in-process Detector.Inspect for every
// (model, inspect id) pair of the audit cycle, one at a time so each wall
// time is the uncontended floor an audit over any transport is compared to.
func (in *inputs) computeAuditRefs(ctx context.Context) error {
	in.refs = make(map[auditKey]bprom.Verdict, len(in.audits))
	for _, k := range in.audits {
		t0 := time.Now()
		v, err := in.det.Inspect(ctx, oracle.NewModelOracle(in.models[k.Model]), k.InspectID)
		if err != nil {
			return fmt.Errorf("reference inspect %v: %w", k, err)
		}
		in.refSeconds = append(in.refSeconds, time.Since(t0).Seconds())
		in.refs[k] = v
	}
	return nil
}

// sameBits reports whether two tensors hold bit-identical data.
func sameBits(a, b *tensor.Tensor) bool {
	if a == nil || b == nil || len(a.Data) != len(b.Data) {
		return false
	}
	for i, v := range a.Data {
		if math.Float64bits(v) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// sameVerdict reports whether two verdicts are bit-identical in every field.
func sameVerdict(a, b bprom.Verdict) bool {
	return math.Float64bits(a.Score) == math.Float64bits(b.Score) &&
		math.Float64bits(a.Threshold) == math.Float64bits(b.Threshold) &&
		math.Float64bits(a.PromptedAcc) == math.Float64bits(b.PromptedAcc) &&
		a.Backdoored == b.Backdoored && a.Queries == b.Queries
}
