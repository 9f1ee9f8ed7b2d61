package defense

import (
	"context"

	"bprom/internal/data"
	"bprom/internal/nn"
	"bprom/internal/rng"
	"bprom/internal/stats"
	"bprom/internal/trainer"
)

// --- AC: Activation Clustering (Chen et al. 2018) ---------------------------------

// AC clusters each class's penultimate activations into two groups: in a
// poisoned class the trigger samples form a separated minority cluster. The
// score combines minority-cluster membership with the class's silhouette.
type AC struct{}

var _ DatasetLevel = (*AC)(nil)

func (a *AC) Name() string { return "ac" }

func (a *AC) ScoreTraining(ctx context.Context, m *nn.Model, train *data.Dataset, env Env) ([]float64, error) {
	r := rng.New(env.Seed).Split("ac")
	scores := make([]float64, train.Len())
	for c := 0; c < train.Classes; c++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		idx := train.ClassIndices(c)
		if len(idx) < 4 {
			continue
		}
		feats := featuresOf(m, train, idx)
		// The published method reduces activations (ICA in the paper, PCA
		// here) before clustering; raw high-dimensional features drown the
		// poison direction in noise. The top component is the trigger
		// direction (cf. spectral signatures), so cluster along it.
		proj, err := pcaReduce(feats, 1, r)
		if err != nil {
			return nil, err
		}
		assign, _, err := stats.KMeans(proj, 2, r)
		if err != nil {
			return nil, err
		}
		sil := stats.Silhouette(proj, assign)
		if sil < 0 {
			sil = 0
		}
		n0 := 0
		for _, aa := range assign {
			if aa == 0 {
				n0++
			}
		}
		minority := 0
		if n0 > len(assign)-n0 {
			minority = 1
		}
		for i, aa := range assign {
			if aa == minority {
				scores[idx[i]] = sil
			}
		}
	}
	return scores, nil
}

// --- SS: Spectral Signatures (Tran et al. 2018) -----------------------------------

// SS scores each sample by its squared projection on the top singular
// direction of its class's centered feature matrix: poisoned samples carry
// the spectral signature.
type SS struct{}

var _ DatasetLevel = (*SS)(nil)

func (s *SS) Name() string { return "ss" }

func (s *SS) ScoreTraining(ctx context.Context, m *nn.Model, train *data.Dataset, env Env) ([]float64, error) {
	r := rng.New(env.Seed).Split("ss")
	scores := make([]float64, train.Len())
	for c := 0; c < train.Classes; c++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		idx := train.ClassIndices(c)
		if len(idx) < 3 {
			continue
		}
		feats := featuresOf(m, train, idx)
		comps, _, err := stats.PCA(feats, 1, r)
		if err != nil {
			return nil, err
		}
		mean := make([]float64, len(feats[0]))
		for _, f := range feats {
			for j, v := range f {
				mean[j] += v
			}
		}
		for j := range mean {
			mean[j] /= float64(len(feats))
		}
		for i, f := range feats {
			proj := 0.0
			for j := range f {
				proj += (f[j] - mean[j]) * comps[0][j]
			}
			scores[idx[i]] = proj * proj
		}
	}
	return scores, nil
}

// --- SPECTRE (Hayase et al. 2021) ---------------------------------------------------

// SPECTRE robustifies spectral signatures: features are standardized with
// robust statistics (median/MAD) before the spectral projection, so a large
// poisoned fraction cannot hide by inflating the variance estimate.
type SPECTRE struct{}

var _ DatasetLevel = (*SPECTRE)(nil)

func (s *SPECTRE) Name() string { return "spectre" }

func (s *SPECTRE) ScoreTraining(ctx context.Context, m *nn.Model, train *data.Dataset, env Env) ([]float64, error) {
	r := rng.New(env.Seed).Split("spectre")
	scores := make([]float64, train.Len())
	for c := 0; c < train.Classes; c++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		idx := train.ClassIndices(c)
		if len(idx) < 3 {
			continue
		}
		feats := featuresOf(m, train, idx)
		d := len(feats[0])
		col := make([]float64, len(feats))
		med := make([]float64, d)
		madv := make([]float64, d)
		for j := 0; j < d; j++ {
			for i := range feats {
				col[i] = feats[i][j]
			}
			med[j] = stats.Median(col)
			madv[j] = stats.MAD(col)
			if madv[j] < 1e-9 {
				madv[j] = 1e-9
			}
		}
		whitened := make([][]float64, len(feats))
		for i, f := range feats {
			whitened[i] = make([]float64, d)
			for j := range f {
				whitened[i][j] = (f[j] - med[j]) / madv[j]
			}
		}
		comps, _, err := stats.PCA(whitened, 2, r)
		if err != nil {
			return nil, err
		}
		// QUE-style score: robust outlyingness along the top spectral
		// directions of the robustly whitened features.
		for i, f := range whitened {
			total := 0.0
			for _, comp := range comps {
				proj := 0.0
				for j := range f {
					proj += f[j] * comp[j]
				}
				total += proj * proj
			}
			scores[idx[i]] = total
		}
	}
	return scores, nil
}

// --- SCAn (Tang et al. 2021) ----------------------------------------------------------

// SCAn performs a statistical two-component decomposition per class: if a
// class's features are better explained by two well-separated subgroups
// than by one (relative to the global within-class scatter), the minority
// subgroup is flagged. The score is the per-sample minority membership
// weighted by the class's likelihood-ratio-style separation statistic.
type SCAn struct{}

var _ DatasetLevel = (*SCAn)(nil)

func (s *SCAn) Name() string { return "scan" }

func (s *SCAn) ScoreTraining(ctx context.Context, m *nn.Model, train *data.Dataset, env Env) ([]float64, error) {
	r := rng.New(env.Seed).Split("scan")
	// Global within-class scatter from the clean reserved set (SCAn's
	// "untangling" uses clean data to estimate it).
	if err := validateEnv(s.Name(), env); err != nil {
		return nil, err
	}
	cleanFeats := featuresOf(m, env.Clean, allIndices(env.Clean.Len()))
	globalVar := withinClassScatter(cleanFeats, env.Clean.Y)
	if globalVar < 1e-9 {
		globalVar = 1e-9
	}
	scores := make([]float64, train.Len())
	for c := 0; c < train.Classes; c++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		idx := train.ClassIndices(c)
		if len(idx) < 4 {
			continue
		}
		feats := featuresOf(m, train, idx)
		proj, err := pcaReduce(feats, 1, r)
		if err != nil {
			return nil, err
		}
		assign, cents, err := stats.KMeans(proj, 2, r)
		if err != nil {
			return nil, err
		}
		between := 0.0
		for j := range cents[0] {
			d := cents[0][j] - cents[1][j]
			between += d * d
		}
		stat := between / globalVar // separation in units of natural scatter
		n0 := 0
		for _, aa := range assign {
			if aa == 0 {
				n0++
			}
		}
		minority := 0
		if n0 > len(assign)-n0 {
			minority = 1
		}
		for i, aa := range assign {
			if aa == minority {
				scores[idx[i]] = stat
			}
		}
	}
	return scores, nil
}

// pcaReduce projects rows onto their top-k principal components.
func pcaReduce(rows [][]float64, k int, r *rng.RNG) ([][]float64, error) {
	if k > len(rows[0]) {
		k = len(rows[0])
	}
	comps, _, err := stats.PCA(rows, k, r)
	if err != nil {
		return nil, err
	}
	return stats.Project(rows, comps), nil
}

func withinClassScatter(feats [][]float64, labels []int) float64 {
	byClass := map[int][][]float64{}
	for i, f := range feats {
		byClass[labels[i]] = append(byClass[labels[i]], f)
	}
	total, n := 0.0, 0
	for _, fs := range byClass {
		if len(fs) < 2 {
			continue
		}
		d := len(fs[0])
		mean := make([]float64, d)
		for _, f := range fs {
			for j, v := range f {
				mean[j] += v
			}
		}
		for j := range mean {
			mean[j] /= float64(len(fs))
		}
		for _, f := range fs {
			for j, v := range f {
				dd := v - mean[j]
				total += dd * dd
			}
		}
		n += len(fs)
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// --- CT: Confusion Training (Qi et al. 2023c) ------------------------------------------

// CT fine-tunes a copy of the dataset together with deliberately
// mislabelled clean samples ("confusion batches"): the random labels destroy
// the model's ability to fit genuine semantic features, but the shortcut
// trigger→target association survives. Samples the confused model still
// fits are flagged as poisoned.
type CT struct {
	// Epochs of confusion training (default 6).
	Epochs int
}

var _ DatasetLevel = (*CT)(nil)

func (c *CT) Name() string { return "ct" }

func (c *CT) ScoreTraining(ctx context.Context, m *nn.Model, train *data.Dataset, env Env) ([]float64, error) {
	if err := validateEnv(c.Name(), env); err != nil {
		return nil, err
	}
	epochs := c.Epochs
	if epochs <= 0 {
		epochs = 6
	}
	r := rng.New(env.Seed).Split("ct")
	// Build the confusion set: the training data plus the clean reserved set
	// replicated with random labels so it dominates gradient pressure.
	confused := train.Clone()
	reps := 2 * (train.Len()/env.Clean.Len() + 1)
	for rep := 0; rep < reps; rep++ {
		noisy := env.Clean.Clone()
		for i := range noisy.Y {
			noisy.Y[i] = r.Intn(noisy.Classes)
		}
		if err := confused.Append(noisy); err != nil {
			return nil, err
		}
	}
	probe, err := nn.Build(nn.ArchConfig{
		Arch: nn.ArchResNetLite, C: train.Shape.C, H: train.Shape.H, W: train.Shape.W,
		NumClasses: train.Classes, Hidden: 24,
	}, r.Split("probe"))
	if err != nil {
		return nil, err
	}
	if _, err := trainer.Train(ctx, probe, confused, trainer.Config{Epochs: epochs}, r.Split("train")); err != nil {
		return nil, err
	}
	// Score: confidence the confused model still assigns to each training
	// sample's (possibly poisoned) label.
	scores := make([]float64, train.Len())
	const batch = 128
	for start := 0; start < train.Len(); start += batch {
		end := start + batch
		if end > train.Len() {
			end = train.Len()
		}
		idx := make([]int, 0, end-start)
		for i := start; i < end; i++ {
			idx = append(idx, i)
		}
		x, y := train.Batch(idx)
		probs := probe.Predict(x)
		k := probs.Dim(1)
		for bi, i := range idx {
			scores[i] = probs.Data[bi*k+y[bi]]
		}
	}
	return scores, nil
}
