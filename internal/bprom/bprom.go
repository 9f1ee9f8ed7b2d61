// Package bprom implements the paper's contribution: black-box model-level
// backdoor detection via visual prompting (Algorithm 1).
//
// Training (defender side, offline):
//  1. Generate shadow models — n clean models trained on the reserved clean
//     dataset DS with different initializations, and M-n backdoor models
//     trained on poisoned copies of DS with randomly drawn trigger
//     parameters (m, t, α, y_t) of a single attack family.
//  2. Prompt every shadow model on the external clean dataset DT
//     (white-box: the defender owns the shadows, so θ is learned by
//     backpropagation).
//  3. Query each prompted shadow with the fixed sample set DQ ⊂ DT_test and
//     train the random-forest meta-classifier on the concatenated
//     confidence vectors, labelled clean / backdoor.
//
// Detection (online, black-box): prompt the suspicious oracle with CMA-ES
// (queries only), collect its DQ confidence vectors, and let the
// meta-classifier decide. Low prompted accuracy — the class-subspace
// inconsistency signature — manifests in those vectors.
package bprom

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"bprom/internal/attack"
	"bprom/internal/data"
	"bprom/internal/meta"
	"bprom/internal/nn"
	"bprom/internal/oracle"
	"bprom/internal/rng"
	"bprom/internal/trainer"
	"bprom/internal/vp"
)

// Config assembles everything Algorithm 1 needs.
type Config struct {
	// Reserved is DS — the defender's small clean slice of the suspicious
	// model's domain (1–10% of its test set in the paper).
	Reserved *data.Dataset
	// ExternalTrain / ExternalTest are DT's splits: the unrelated clean
	// dataset used for prompting (STL-10 in the paper).
	ExternalTrain, ExternalTest *data.Dataset

	// NumClean (n) and NumBackdoor (M-n) are the shadow-model counts.
	// Default 10+10 — the count at which the paper's Table 7 plateaus.
	NumClean, NumBackdoor int

	// ShadowArch configures the shadow architecture. Classes/geometry are
	// overridden from Reserved.
	ShadowArch nn.ArchConfig
	// ShadowTrain configures shadow training.
	ShadowTrain trainer.Config

	// ShadowAttack is the single attack family used to poison shadow
	// datasets (BPROM needs only one; §5.3). Target class and trigger seed
	// are re-drawn per shadow model. Zero value selects BadNets at 10%.
	ShadowAttack attack.Config

	// PromptFrac sizes the prompt's inner window. Default 0.83.
	PromptFrac float64
	// WhiteBox configures shadow prompting.
	WhiteBox vp.WhiteBoxConfig
	// BlackBox configures suspicious-model prompting.
	BlackBox vp.BlackBoxConfig

	// QuerySamples is q = |DQ|. Default 30.
	QuerySamples int
	// Forest configures the meta-classifier.
	Forest meta.TrainConfig

	// Seed makes the whole pipeline reproducible.
	Seed uint64
	// Parallelism bounds concurrent shadow training (default GOMAXPROCS).
	// Shadow trainings are independent models, so they run concurrently;
	// the tensor kernels inside each share the process-wide worker pool,
	// which keeps total CPU use bounded however high this is set.
	Parallelism int
}

func (c *Config) defaults() error {
	if c.Reserved == nil || c.Reserved.Len() == 0 {
		return fmt.Errorf("bprom: missing reserved clean dataset DS")
	}
	if c.ExternalTrain == nil || c.ExternalTrain.Len() == 0 || c.ExternalTest == nil || c.ExternalTest.Len() == 0 {
		return fmt.Errorf("bprom: missing external dataset DT")
	}
	if c.ExternalTrain.Classes > c.Reserved.Classes {
		return fmt.Errorf("bprom: external task has %d classes, source domain only %d (identity mapping impossible)",
			c.ExternalTrain.Classes, c.Reserved.Classes)
	}
	if c.NumClean <= 0 {
		c.NumClean = 10
	}
	if c.NumBackdoor <= 0 {
		c.NumBackdoor = 10
	}
	if c.ShadowAttack.Kind == "" {
		c.ShadowAttack = attack.Config{Kind: attack.BadNets, PoisonRate: 0.10}
	}
	if c.PromptFrac <= 0 {
		c.PromptFrac = 0.83
	}
	if c.QuerySamples <= 0 {
		c.QuerySamples = 30
	}
	if c.QuerySamples > c.ExternalTest.Len() {
		c.QuerySamples = c.ExternalTest.Len()
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	c.ShadowArch.C = c.Reserved.Shape.C
	c.ShadowArch.H = c.Reserved.Shape.H
	c.ShadowArch.W = c.Reserved.Shape.W
	c.ShadowArch.NumClasses = c.Reserved.Classes
	return nil
}

// Shadow is one trained + prompted shadow model with its meta-features.
type Shadow struct {
	Model    *nn.Model
	Prompt   *vp.Prompt
	Backdoor bool
	// Features is the concatenated DQ confidence vector v_i.
	Features []float64
	// PromptedAcc is the prompted model's accuracy on DT_test — the
	// class-subspace-inconsistency observable (Tables 2–4).
	PromptedAcc float64
}

// Detector is a trained BPROM instance.
type Detector struct {
	forest    *meta.Forest
	threshold float64 // OOB-calibrated decision threshold
	queryIdx  []int
	external  *data.Dataset // DT test split (DQ source)
	extTrain  *data.Dataset
	prompt    promptGeometry
	blackBox  vp.BlackBoxConfig
	seed      uint64

	// windows is extTrain resized into the prompt's inner window: built by
	// the first inspection, then shared read-only by every later one,
	// concurrent audits included.
	windowsOnce sync.Once
	windows     *vp.Windows

	// Shadows are retained for analysis (Figure 5 PCA, ablations).
	Shadows []Shadow
}

type promptGeometry struct {
	source data.Shape
	frac   float64
}

// Train runs Algorithm 1 lines 1–25 and returns a ready Detector.
func Train(ctx context.Context, cfg Config) (*Detector, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	root := rng.New(cfg.Seed)
	m := cfg.NumClean + cfg.NumBackdoor
	shadows := make([]Shadow, m)
	errs := make([]error, m)

	// Shadow generation + prompting, parallel across models. Every shadow's
	// RNG stream is split off the root here, in index order, before its
	// goroutine starts: Split advances the root, so splitting inside the
	// goroutines would race on it and tie results to scheduling.
	sem := make(chan struct{}, cfg.Parallelism)
	var wg sync.WaitGroup
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func(i int, r *rng.RNG) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			shadows[i], errs[i] = trainShadow(ctx, cfg, r, i >= cfg.NumClean)
		}(i, root.Split("shadow", i))
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("bprom: shadow %d: %w", i, err)
		}
	}

	// DQ: q fixed random samples from DT_test (line 14).
	queryIdx := root.Split("dq").Sample(cfg.ExternalTest.Len(), cfg.QuerySamples)

	// Meta-features: v_i = (f̃_i(x¹_Q) || ... || f̃_i(x^q_Q)) (lines 16–24).
	rows := make([][]float64, m)
	labels := make([]bool, m)
	for i := range shadows {
		feats, err := confidenceFeatures(ctx, oracle.NewModelOracle(shadows[i].Model), shadows[i].Prompt, cfg.ExternalTest, queryIdx)
		if err != nil {
			return nil, fmt.Errorf("bprom: meta-features for shadow %d: %w", i, err)
		}
		shadows[i].Features = feats
		rows[i] = feats
		labels[i] = shadows[i].Backdoor
	}
	forest, err := meta.Train(rows, labels, cfg.Forest, root.Split("forest"))
	if err != nil {
		return nil, fmt.Errorf("bprom: meta-classifier: %w", err)
	}
	// Calibrate the decision threshold from out-of-bag shadow scores: the
	// forest's raw scores compress on suspicious models trained outside the
	// shadow distribution, so a fixed 0.5 cut misclassifies. The midpoint of
	// the mean OOB clean and backdoor scores is an unbiased operating point.
	threshold := 0.5
	if oob, err := forest.OOBScores(rows); err == nil {
		var cSum, bSum float64
		var cN, bN int
		for i, s := range oob {
			if labels[i] {
				bSum += s
				bN++
			} else {
				cSum += s
				cN++
			}
		}
		if cN > 0 && bN > 0 {
			mid := (cSum/float64(cN) + bSum/float64(bN)) / 2
			if mid > 0 && mid < 1 {
				threshold = mid
			}
		}
	}
	return &Detector{
		forest:    forest,
		threshold: threshold,
		queryIdx:  queryIdx,
		external:  cfg.ExternalTest,
		extTrain:  cfg.ExternalTrain,
		prompt:    promptGeometry{source: cfg.Reserved.Shape, frac: cfg.PromptFrac},
		blackBox:  cfg.BlackBox,
		seed:      cfg.Seed,
		Shadows:   shadows,
	}, nil
}

func trainShadow(ctx context.Context, cfg Config, r *rng.RNG, backdoor bool) (Shadow, error) {
	ds := cfg.Reserved
	atk := cfg.ShadowAttack
	if backdoor {
		// Redraw the trigger parameters (m, t, α, y_t) per shadow: random
		// target class and pattern seed (§5.2 step 3).
		atk.Target = r.Intn(ds.Classes - max(0, atk.NumTargets-1))
		atk.Seed = r.Uint64()
		poisoned, _, err := attack.Poison(ds, atk, r.Split("poison"))
		if err != nil {
			return Shadow{}, fmt.Errorf("poisoning shadow dataset: %w", err)
		}
		ds = poisoned
	}
	model, err := nn.Build(cfg.ShadowArch, r.Split("init"))
	if err != nil {
		return Shadow{}, err
	}
	if _, err := trainer.Train(ctx, model, ds, cfg.ShadowTrain, r.Split("train")); err != nil {
		return Shadow{}, err
	}
	prompt, err := vp.NewPrompt(cfg.Reserved.Shape, cfg.ExternalTrain.Shape, cfg.PromptFrac)
	if err != nil {
		return Shadow{}, err
	}
	if err := vp.TrainWhiteBox(ctx, model, prompt, cfg.ExternalTrain, cfg.WhiteBox, r.Split("prompt")); err != nil {
		return Shadow{}, err
	}
	pm := &vp.Prompted{Oracle: oracle.NewModelOracle(model), Prompt: prompt}
	acc, err := pm.Accuracy(ctx, cfg.ExternalTest)
	if err != nil {
		return Shadow{}, err
	}
	return Shadow{Model: model, Prompt: prompt, Backdoor: backdoor, PromptedAcc: acc}, nil
}

// confidenceFeatures builds the meta-feature vector v_i from the prompted
// model's DQ confidence vectors. The paper concatenates the raw vectors;
// at our shadow-model counts the forest additionally benefits from explicit
// sufficient statistics of the SAME black-box data (a deliberate deviation
// from the paper): per-query entropy / max / correct-class confidence, the mean
// per-class mass, and four scalar aggregates. High prompted-confidence
// entropy is the black-box footprint of class-subspace inconsistency — the
// poisoned target subspace borders every other subspace, keeping softmax
// mass spread.
func confidenceFeatures(ctx context.Context, o oracle.Oracle, p *vp.Prompt, ds *data.Dataset, queryIdx []int) ([]float64, error) {
	pm := &vp.Prompted{Oracle: o, Prompt: p}
	probs, err := pm.Confidences(ctx, ds, queryIdx)
	if err != nil {
		return nil, err
	}
	q := len(queryIdx)
	k := probs.Dim(1)
	feats := make([]float64, 0, q*(k+3)+k+4)
	feats = append(feats, probs.Data...)
	ents := make([]float64, q)
	maxes := make([]float64, q)
	corrects := make([]float64, q)
	classMass := make([]float64, k)
	accDQ := 0.0
	for i, qi := range queryIdx {
		row := probs.Data[i*k : (i+1)*k]
		ent, mx, argmax := 0.0, 0.0, 0
		for j, v := range row {
			classMass[j] += v / float64(q)
			if v > 0 {
				ent -= v * math.Log(v)
			}
			if v > mx {
				mx, argmax = v, j
			}
		}
		ents[i] = ent
		maxes[i] = mx
		corrects[i] = row[ds.Y[qi]]
		if argmax == ds.Y[qi] {
			accDQ++
		}
	}
	feats = append(feats, ents...)
	feats = append(feats, maxes...)
	feats = append(feats, corrects...)
	feats = append(feats, classMass...)
	feats = append(feats, mean(ents), mean(maxes), mean(corrects), accDQ/float64(q))
	return feats, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// Verdict is the outcome of inspecting one suspicious model. The JSON tags
// are its wire form in the audit-job API (docs/API.md).
type Verdict struct {
	// Score is the meta-classifier's backdoor probability.
	Score float64 `json:"score"`
	// Threshold is the detector's OOB-calibrated decision threshold.
	Threshold float64 `json:"threshold"`
	// Backdoored reports Score >= Threshold.
	Backdoored bool `json:"backdoored"`
	// PromptedAcc is the black-box prompted accuracy on DT_test.
	PromptedAcc float64 `json:"prompted_acc"`
	// Queries counts oracle sample queries spent — the paper's black-box
	// query budget for one audit.
	Queries int64 `json:"queries"`
}

// Progress is a point-in-time snapshot of one running inspection: how far
// the CMA-ES prompt search has advanced and how many oracle sample queries
// the audit has spent so far. The JSON tags are its wire form in the
// audit-job API.
type Progress struct {
	// Generation counts completed CMA-ES generations (0 before the first).
	Generation int `json:"generation"`
	// Generations is the total generation budget.
	Generations int `json:"generations"`
	// Queries counts oracle sample queries spent so far.
	Queries int64 `json:"queries"`
	// QueriesDelta counts the queries spent since the previous progress
	// report — for a CMA-ES generation, the row count of that generation's
	// fused oracle call (λ×BatchSize on a full generation). It lets audit
	// watchers see per-generation spend without diffing snapshots.
	QueriesDelta int64 `json:"queries_delta"`
}

// Inspect prompts the suspicious oracle black-box (CMA-ES), extracts its DQ
// confidence vector and scores it with the meta-classifier. The RNG stream
// is derived from the detector seed and inspectID, so repeated inspections
// are reproducible and independent.
//
// Inspect only reads detector state — the one thing it adds, the prompt
// training set resized into the prompt window on the first inspection, is
// built once under a sync.Once and read-only after — and every
// per-inspection workspace (prompt, query counter, RNG stream) is
// call-local, so one trained detector may audit any number of suspicious
// oracles concurrently — the
// fleet-audit mode of cmd/bprom does exactly that, one goroutine per
// hosted model.
func (d *Detector) Inspect(ctx context.Context, sus oracle.Oracle, inspectID int) (Verdict, error) {
	return d.InspectProgress(ctx, sus, inspectID, nil)
}

// InspectProgress is Inspect with a live progress hook: onProgress (when
// non-nil) is invoked once before prompting starts, after every completed
// CMA-ES generation, and once more when the meta-features are extracted.
// The hook runs on the inspection goroutine and must be fast; it must not
// query the oracle. Progress reporting does not perturb the RNG streams or
// the query sequence, so verdicts are bit-identical with or without a hook.
func (d *Detector) InspectProgress(ctx context.Context, sus oracle.Oracle, inspectID int, onProgress func(Progress)) (Verdict, error) {
	return d.InspectResumable(ctx, sus, inspectID, onProgress, nil, nil)
}

// ScoreModel adapts Inspect to the defense.ModelLevel convention (higher =
// more likely backdoored), for side-by-side evaluation with baselines.
func (d *Detector) ScoreModel(ctx context.Context, sus oracle.Oracle, inspectID int) (float64, error) {
	v, err := d.Inspect(ctx, sus, inspectID)
	if err != nil {
		return 0, err
	}
	return v.Score, nil
}
