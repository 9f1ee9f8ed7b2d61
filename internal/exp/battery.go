package exp

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"bprom/internal/attack"
	"bprom/internal/bprom"
	"bprom/internal/data"
	"bprom/internal/meta"
	"bprom/internal/metric"
	"bprom/internal/nn"
	"bprom/internal/oracle"
	"bprom/internal/rng"
	"bprom/internal/trainer"
	"bprom/internal/vp"
)

// trainModel builds and trains one classifier on ds. blocks is the arch's
// block count (0: nn's default).
func trainModel(ctx context.Context, ds *data.Dataset, arch nn.Arch, blocks int, p Params, seed uint64) (*nn.Model, error) {
	m, err := nn.Build(nn.ArchConfig{
		Arch: arch, C: ds.Shape.C, H: ds.Shape.H, W: ds.Shape.W,
		NumClasses: ds.Classes, Hidden: p.Hidden, Blocks: blocks,
	}, rng.New(seed))
	if err != nil {
		return nil, err
	}
	if _, err := trainer.Train(ctx, m, ds, trainer.Config{Epochs: p.Epochs}, rng.New(seed).Split("train")); err != nil {
		return nil, err
	}
	return m, nil
}

// trainDetector builds a BPROM detector on w whose shadows have the given
// arch and block count (0: nn's default).
func trainDetector(ctx context.Context, w *world, arch nn.Arch, blocks int, p Params, shadowAttack attack.Config) (*bprom.Detector, error) {
	if shadowAttack.Kind == "" {
		shadowAttack = attack.Config{Kind: attack.BadNets, PoisonRate: 0.20}
	}
	return bprom.Train(ctx, bprom.Config{
		Reserved:      w.reserved,
		ExternalTrain: w.tgtTrain,
		ExternalTest:  w.tgtTest,
		NumClean:      p.ShadowClean,
		NumBackdoor:   p.ShadowBackdoor,
		ShadowArch:    nn.ArchConfig{Arch: arch, Hidden: p.Hidden, Blocks: blocks},
		ShadowTrain:   trainer.Config{Epochs: p.Epochs},
		ShadowAttack:  shadowAttack,
		PromptFrac:    p.PromptFrac,
		WhiteBox:      vp.WhiteBoxConfig{Epochs: p.WBEpochs},
		BlackBox:      vp.BlackBoxConfig{Iterations: p.CMAIters},
		QuerySamples:  p.QuerySamples,
		Forest:        meta.TrainConfig{Trees: p.ForestTrees},
		Seed:          p.Seed,
	})
}

// susModel is one suspicious model with ground truth.
type susModel struct {
	model    *nn.Model
	backdoor bool
	kind     attack.Kind
	cfg      attack.Config
	acc, asr float64
}

// buildBattery trains the suspicious-model battery: SusClean clean models
// plus SusPerAttack models per attack config, each an arch with the given
// block count (0: nn's default). Training runs in parallel.
func buildBattery(ctx context.Context, w *world, arch nn.Arch, blocks int, p Params, attacks map[attack.Kind]attack.Config) ([]susModel, error) {
	type job struct {
		idx  int
		kind attack.Kind
		cfg  attack.Config
		bd   bool
		seed uint64
	}
	var jobs []job
	for s := 0; s < p.SusClean; s++ {
		jobs = append(jobs, job{kind: "clean", seed: uint64(1000 + s)})
	}
	// Deterministic attack order regardless of map iteration.
	for _, kind := range attack.AllKinds() {
		cfg, ok := attacks[kind]
		if !ok {
			continue
		}
		for s := 0; s < p.SusPerAttack; s++ {
			c := cfg
			c.Seed = p.Seed*7919 + uint64(s)
			if c.Target == 0 {
				c.Target = (s * 3) % w.srcTrain.Classes
			}
			jobs = append(jobs, job{kind: kind, cfg: c, bd: true, seed: uint64(2000 + 37*s)})
		}
	}
	out := make([]susModel, len(jobs))
	errs := make([]error, len(jobs))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, jb := range jobs {
		wg.Add(1)
		go func(i int, jb job) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			ds := w.srcTrain
			if jb.bd {
				poisoned, _, err := attack.Poison(w.srcTrain, jb.cfg, rng.New(p.Seed).Split("sus-poison", i))
				if err != nil {
					errs[i] = fmt.Errorf("battery %s[%d]: %w", jb.kind, i, err)
					return
				}
				ds = poisoned
			}
			m, err := trainModel(ctx, ds, arch, blocks, p, p.Seed^jb.seed^uint64(i*131))
			if err != nil {
				errs[i] = fmt.Errorf("battery %s[%d]: %w", jb.kind, i, err)
				return
			}
			sm := susModel{model: m, backdoor: jb.bd, kind: jb.kind, cfg: jb.cfg}
			sm.acc = trainer.Evaluate(m, w.srcTest, 0)
			if jb.bd {
				if asr, err := attack.ASR(m, w.srcTest, jb.cfg); err == nil {
					sm.asr = asr
				}
			}
			out[i] = sm
		}(i, jb)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// detectionResult holds BPROM's per-attack detection quality.
type detectionResult struct {
	AUROC map[attack.Kind]float64
	F1    map[attack.Kind]float64
	// MeanSusPacc maps each kind (and "clean") to the mean black-box
	// prompted accuracy of its suspicious models.
	MeanSusPacc map[attack.Kind]float64
	// MeanASR maps each kind to mean attack success rate.
	MeanASR map[attack.Kind]float64
}

// runDetection inspects every battery model with det and computes
// per-attack AUROC/F1 (each attack's backdoored models versus ALL clean
// models, the paper's evaluation protocol).
func runDetection(ctx context.Context, det *bprom.Detector, battery []susModel) (*detectionResult, error) {
	type scored struct {
		susModel
		score float64
		pacc  float64
	}
	scoredModels := make([]scored, len(battery))
	errs := make([]error, len(battery))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := range battery {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			v, err := det.Inspect(ctx, oracle.NewModelOracle(battery[i].model), i)
			if err != nil {
				errs[i] = err
				return
			}
			scoredModels[i] = scored{susModel: battery[i], score: v.Score, pacc: v.PromptedAcc}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("exp: inspect: %w", err)
		}
	}
	res := &detectionResult{
		AUROC:       map[attack.Kind]float64{},
		F1:          map[attack.Kind]float64{},
		MeanSusPacc: map[attack.Kind]float64{},
		MeanASR:     map[attack.Kind]float64{},
	}
	var cleanScores []float64
	perKind := map[attack.Kind][]scored{}
	for _, s := range scoredModels {
		if !s.backdoor {
			cleanScores = append(cleanScores, s.score)
			res.MeanSusPacc["clean"] += s.pacc
			continue
		}
		perKind[s.kind] = append(perKind[s.kind], s)
	}
	if len(cleanScores) > 0 {
		res.MeanSusPacc["clean"] /= float64(len(cleanScores))
	}
	for kind, ss := range perKind {
		scores := append([]float64(nil), cleanScores...)
		labels := make([]bool, len(cleanScores), len(cleanScores)+len(ss))
		for _, s := range ss {
			scores = append(scores, s.score)
			labels = append(labels, true)
			res.MeanSusPacc[kind] += s.pacc
			res.MeanASR[kind] += s.asr
		}
		res.MeanSusPacc[kind] /= float64(len(ss))
		res.MeanASR[kind] /= float64(len(ss))
		auc, err := metric.AUROC(scores, labels)
		if err != nil {
			return nil, fmt.Errorf("exp: AUROC for %s: %w", kind, err)
		}
		res.AUROC[kind] = auc
		res.F1[kind] = metric.BestF1(scores, labels)
	}
	return res, nil
}

// avg returns the mean of the map's values in kind order.
func avg(m map[attack.Kind]float64, kinds []attack.Kind) float64 {
	s, n := 0.0, 0
	for _, k := range kinds {
		if v, ok := m[k]; ok {
			s += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}
