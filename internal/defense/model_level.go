package defense

import (
	"context"
	"fmt"
	"math"

	"bprom/internal/attack"
	"bprom/internal/data"
	"bprom/internal/meta"
	"bprom/internal/nn"
	"bprom/internal/rng"
	"bprom/internal/stats"
	"bprom/internal/tensor"
	"bprom/internal/trainer"
)

// --- MM-BD (Wang et al. 2024) --------------------------------------------------------

// MMBD estimates each class's maximum classification margin reachable under
// a small perturbation budget: starting from clean samples of OTHER classes,
// a bounded number of pixels may be saturated. A backdoor target class is
// reachable from anywhere with a trigger-sized budget, so its margin is
// anomalously large; the model score is the MAD-normalized deviation of the
// largest per-class margin (Wang et al.'s maximum-margin statistic).
type MMBD struct {
	// Starts is the number of restart samples per class (default 4).
	Starts int
	// Budget is the number of pixels the search may saturate; 0 selects
	// 10% of the input dimension (a trigger-sized allowance).
	Budget int
}

var _ ModelLevel = (*MMBD)(nil)

func (d *MMBD) Name() string { return "mm-bd" }

func (d *MMBD) ScoreModel(ctx context.Context, m *nn.Model, env Env) (float64, error) {
	if err := validateEnv(d.Name(), env); err != nil {
		return 0, err
	}
	starts := d.Starts
	if starts <= 0 {
		starts = 4
	}
	budget := d.Budget
	if budget <= 0 {
		budget = 16 // patch proposals per restart
	}
	shape := env.Clean.Shape
	r := rng.New(env.Seed).Split("mmbd")
	k := m.NumClasses
	margins := make([]float64, k)
	x := tensor.New(1, m.InputDim)
	cand := tensor.New(1, m.InputDim)
	for c := 0; c < k; c++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		best := math.Inf(-1)
		for s := 0; s < starts; s++ {
			// Start from a clean sample of a DIFFERENT class: the question
			// is how easily class c's region is reached from elsewhere.
			var seed []float64
			for tries := 0; tries < 50; tries++ {
				i := r.Intn(env.Clean.Len())
				if env.Clean.Y[i] != c {
					seed = env.Clean.Sample(i)
					break
				}
			}
			if seed == nil {
				continue
			}
			copy(x.Data, seed)
			cur := classProbMargin(m, x, c)
			// Structured proposals: a random binary patch at a random
			// location (trigger-shaped perturbations), greedily accepted.
			for spent := 0; spent < budget; spent++ {
				copy(cand.Data, x.Data)
				proposePatch(cand.Data, shape, r)
				if v := classProbMargin(m, cand, c); v > cur {
					cur = v
					copy(x.Data, cand.Data)
				}
			}
			if cur > best {
				best = cur
			}
		}
		margins[c] = best
	}
	med := stats.Median(margins)
	mad := stats.MAD(margins)
	if mad < 1e-9 {
		mad = 1e-9
	}
	maxDev := 0.0
	for _, v := range margins {
		if dev := (v - med) / mad; dev > maxDev {
			maxDev = dev
		}
	}
	return maxDev, nil
}

// proposePatch stamps a random 3x3 binary pattern (all channels) at a
// random location of img.
func proposePatch(img []float64, sh data.Shape, r *rng.RNG) {
	size := 3
	if sh.H < size || sh.W < size {
		size = 1
	}
	px := r.Intn(sh.W - size + 1)
	py := r.Intn(sh.H - size + 1)
	pat := make([]float64, size*size)
	for i := range pat {
		if r.Float64() < 0.5 {
			pat[i] = 1
		}
	}
	for c := 0; c < sh.C; c++ {
		off := c * sh.H * sh.W
		for dy := 0; dy < size; dy++ {
			for dx := 0; dx < size; dx++ {
				img[off+(py+dy)*sh.W+px+dx] = pat[dy*size+dx]
			}
		}
	}
}

// classProbMargin is the softmax-probability margin of class c — bounded in
// [-1, 1], so one saturated class cannot dominate the anomaly statistic the
// way raw logit margins can.
func classProbMargin(m *nn.Model, x *tensor.Tensor, c int) float64 {
	probs := m.Predict(x.Clone())
	row := probs.Row(0)
	target := row[c]
	other := 0.0
	for j, v := range row {
		if j != c && v > other {
			other = v
		}
	}
	return target - other
}

// --- MNTD (Xu et al. 2019) -------------------------------------------------------------

// MNTD trains clean and backdoored shadow models and a meta-classifier over
// their confidence vectors on a set of query inputs — BPROM's closest prior
// work, WITHOUT visual prompting: queries are raw source-domain inputs. It is
// the control for the paper's §5.3 comparison (fewer shadows needed, single
// attack suffices for BPROM), which runs both on identical budgets; no
// experiment runner makes that comparison yet, so only its tests call MNTD.
type MNTD struct {
	// NumClean / NumBackdoor shadow counts (default 10+10).
	NumClean, NumBackdoor int
	// Queries is the number of query inputs (default 30).
	Queries int
	// Epochs of shadow training (default 15).
	Epochs int
	// Attacks cycled when poisoning shadows; MNTD's jumbo learning wants
	// variety (default: BadNets, Blend, Trojan, Dynamic).
	Attacks []attack.Kind

	forest  *meta.Forest
	queryX  *tensor.Tensor
	shape   data.Shape
	classes int
	trained bool
}

var _ ModelLevel = (*MNTD)(nil)

func (d *MNTD) Name() string { return "mntd" }

func (d *MNTD) defaults() {
	if d.NumClean <= 0 {
		d.NumClean = 10
	}
	if d.NumBackdoor <= 0 {
		d.NumBackdoor = 10
	}
	if d.Queries <= 0 {
		d.Queries = 30
	}
	if d.Epochs <= 0 {
		d.Epochs = 15
	}
	if len(d.Attacks) == 0 {
		d.Attacks = []attack.Kind{attack.BadNets, attack.Blend, attack.Trojan, attack.Dynamic}
	}
}

// Fit trains the shadow models and meta-classifier from the reserved clean
// dataset. Call once before ScoreModel; ScoreModel fits lazily otherwise.
func (d *MNTD) Fit(ctx context.Context, env Env) error {
	if err := validateEnv(d.Name(), env); err != nil {
		return err
	}
	d.defaults()
	r := rng.New(env.Seed).Split("mntd")
	ds := env.Clean
	d.shape = ds.Shape
	d.classes = ds.Classes
	// Query set: clean samples with mild noise. (MNTD tunes queries by
	// gradient; clean-data queries transfer between shadow and suspicious
	// models far better than the uniform-noise ablation on this substrate.)
	qr := r.Split("queries")
	d.queryX = tensor.New(d.Queries, ds.Shape.Dim())
	w := ds.Shape.Dim()
	for i := 0; i < d.Queries; i++ {
		row := d.queryX.Data[i*w : (i+1)*w]
		copy(row, ds.Sample(qr.Intn(ds.Len())))
		for j := range row {
			row[j] = clamp01(row[j] + 0.05*qr.NormFloat64())
		}
	}

	total := d.NumClean + d.NumBackdoor
	rows := make([][]float64, 0, total)
	labels := make([]bool, 0, total)
	for i := 0; i < total; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		sr := r.Split("shadow", i)
		train := ds
		backdoor := i >= d.NumClean
		if backdoor {
			kind := d.Attacks[i%len(d.Attacks)]
			cfg := attack.Config{
				Kind:       kind,
				PoisonRate: 0.1 + 0.1*sr.Float64(),
				Target:     sr.Intn(ds.Classes),
				Seed:       sr.Uint64(),
			}
			poisoned, _, err := attack.Poison(ds, cfg, sr.Split("poison"))
			if err != nil {
				return fmt.Errorf("defense: mntd shadow %d: %w", i, err)
			}
			train = poisoned
		}
		model, err := nn.Build(nn.ArchConfig{
			Arch: nn.ArchConvLite, C: ds.Shape.C, H: ds.Shape.H, W: ds.Shape.W,
			NumClasses: ds.Classes, Hidden: 24,
		}, sr.Split("init"))
		if err != nil {
			return err
		}
		if _, err := trainer.Train(ctx, model, train, trainer.Config{Epochs: d.Epochs}, sr.Split("train")); err != nil {
			return err
		}
		rows = append(rows, d.features(model))
		labels = append(labels, backdoor)
	}
	forest, err := meta.Train(rows, labels, meta.TrainConfig{}, r.Split("forest"))
	if err != nil {
		return fmt.Errorf("defense: mntd meta-classifier: %w", err)
	}
	d.forest = forest
	d.trained = true
	return nil
}

func (d *MNTD) features(m *nn.Model) []float64 {
	probs := m.Predict(d.queryX.Clone())
	return append([]float64(nil), probs.Data...)
}

func (d *MNTD) ScoreModel(ctx context.Context, m *nn.Model, env Env) (float64, error) {
	if !d.trained {
		if err := d.Fit(ctx, env); err != nil {
			return 0, err
		}
	}
	if m.InputDim != d.shape.Dim() || m.NumClasses != d.classes {
		return 0, fmt.Errorf("defense: mntd fitted for %v/%d-class models, got %d/%d",
			d.shape, d.classes, m.InputDim, m.NumClasses)
	}
	return d.forest.Score(d.features(m))
}
