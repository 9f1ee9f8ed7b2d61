package exp

import (
	"context"
	"fmt"
	"time"

	"bprom/internal/attack"
	"bprom/internal/data"
	"bprom/internal/defense"
	"bprom/internal/metric"
	"bprom/internal/nn"
	"bprom/internal/oracle"
	"bprom/internal/rng"
	"bprom/internal/stats"
	"bprom/internal/vp"
)

// table5Attacks are the main-table attacks (paper Table 5 column order).
func table5Attacks() []attack.Kind {
	return []attack.Kind{attack.BadNets, attack.Blend, attack.Trojan, attack.BPP,
		attack.WaNet, attack.Dynamic, attack.AdapBlend, attack.AdapPatch}
}

// attackConfigsFor builds the battery configs for the listed kinds.
func attackConfigsFor(dataset string, kinds []attack.Kind) map[attack.Kind]attack.Config {
	all := attack.DefaultConfigs(dataset)
	out := make(map[attack.Kind]attack.Config, len(kinds))
	for _, k := range kinds {
		out[k] = all[k]
	}
	return out
}

// kindsHeader is a header of the leading columns, one column per kind and
// AVG.
func kindsHeader(kinds []attack.Kind, lead ...string) []string {
	return append(append(lead, names(kinds)...), "AVG")
}

// runTable1 reproduces Table 1: input-level detectors (TeCo, SCALE-UP)
// evaluated on a backdoored AND a clean model — F1/AUROC collapse on clean.
func runTable1(ctx context.Context, p Params, s *spec, t *Table) error {
	w, err := buildWorld(p, data.CIFAR10, data.STL10, s.world)
	if err != nil {
		return err
	}
	cleanModel, err := trainModel(ctx, w.srcTrain, nn.ArchConvLite, 0, p, p.Seed^11)
	if err != nil {
		return err
	}
	env := defense.Env{Clean: w.reserved, Seed: p.Seed}
	cfgs := attackConfigsFor(data.CIFAR10, s.kinds)
	for _, kind := range s.kinds {
		cfg := cfgs[kind]
		cfg.Seed = p.Seed
		poisoned, _, err := attack.Poison(w.srcTrain, cfg, rng.New(p.Seed).Split("t1:"+string(kind)))
		if err != nil {
			return err
		}
		infected, err := trainModel(ctx, poisoned, nn.ArchConvLite, 0, p, p.Seed^23)
		if err != nil {
			return err
		}
		benign, triggered, err := inputEvalSets(w, cfg, p)
		if err != nil {
			return err
		}
		for _, d := range []defense.InputLevel{&defense.TeCo{}, &defense.ScaleUp{}} {
			bF1, bAUC, err := inputLevelQuality(ctx, d, infected, benign, triggered, env)
			if err != nil {
				return err
			}
			cF1, cAUC, err := inputLevelQuality(ctx, d, cleanModel, benign, triggered, env)
			if err != nil {
				return err
			}
			t.AddRow(d.Name(), string(kind), f3(bF1), f3(bAUC), f3(cF1), f3(cAUC))
		}
	}
	return nil
}

// inputEvalSets draws the benign/triggered evaluation samples.
func inputEvalSets(w *world, cfg attack.Config, p Params) (benign, triggered *data.Dataset, err error) {
	n := p.InputAUROCSamples
	r := rng.New(p.Seed).Split("inputeval")
	benign = w.srcTest.Subset(r.Sample(w.srcTest.Len(), min(n, w.srcTest.Len())))
	trigAll, err := attack.TriggeredTestSet(w.srcTest, cfg)
	if err != nil {
		return nil, nil, err
	}
	triggered = trigAll.Subset(r.Sample(trigAll.Len(), min(n, trigAll.Len())))
	return benign, triggered, nil
}

func inputLevelQuality(ctx context.Context, d defense.InputLevel, m *nn.Model, benign, triggered *data.Dataset, env defense.Env) (f1, auroc float64, err error) {
	sb, err := d.ScoreInputs(ctx, m, benign, env)
	if err != nil {
		return 0, 0, fmt.Errorf("%s: %w", d.Name(), err)
	}
	st, err := d.ScoreInputs(ctx, m, triggered, env)
	if err != nil {
		return 0, 0, fmt.Errorf("%s: %w", d.Name(), err)
	}
	scores := append(append([]float64(nil), sb...), st...)
	labels := make([]bool, len(scores))
	for i := len(sb); i < len(scores); i++ {
		labels[i] = true
	}
	auc, err := metric.AUROC(scores, labels)
	if err != nil {
		return 0, 0, err
	}
	return metric.BestF1(scores, labels), auc, nil
}

// promptSweep reproduces Tables 2–4, where class subspace inconsistency
// shows as lower prompted accuracy: per source, sweep step and attack, the
// mean black-box prompted accuracy on DT of two poisoned models.
func promptSweep(ctx context.Context, p Params, s *spec, t *Table) error {
	steps := s.steps(p)
	res := make([][]scores, len(s.sources))
	for i, src := range s.sources {
		w, err := buildWorld(p, src, data.STL10, s.world)
		if err != nil {
			return err
		}
		for _, st := range steps {
			cfgs, pacc := s.configs(src, st), map[attack.Kind]float64{}
			for _, k := range s.kinds {
				if pacc[k], err = meanPromptedAcc(ctx, w, cfgs[k], p); err != nil {
					return err
				}
			}
			res[i] = append(res[i], scores{"PACC": pacc})
		}
	}
	s.render(t, res, steps)
	return nil
}

// meanPromptedAcc trains two poisoned models under cfg and returns their
// mean black-box prompted accuracy on DT.
func meanPromptedAcc(ctx context.Context, w *world, cfg attack.Config, p Params) (float64, error) {
	const reps = 2
	total := 0.0
	for s := 0; s < reps; s++ {
		c := cfg
		c.Seed = cfg.Seed + uint64(s)
		poisoned, _, err := attack.Poison(w.srcTrain, c, rng.New(p.Seed).Split("pacc", s))
		if err != nil {
			return 0, err
		}
		m, err := trainModel(ctx, poisoned, nn.ArchConvLite, 0, p, p.Seed+uint64(100+s*17))
		if err != nil {
			return 0, err
		}
		acc, _, err := promptedAcc(ctx, m, w, p.PromptFrac, vp.BlackBoxConfig{Iterations: p.CMAIters}, rng.New(p.Seed).Split("bbp", s))
		if err != nil {
			return 0, err
		}
		total += acc
	}
	return total / reps, nil
}

// promptedAcc trains a prompt of inner fraction frac for m on DT by
// black-box search and returns the prompted model's accuracy on DT's test
// split and θ's size.
func promptedAcc(ctx context.Context, m *nn.Model, w *world, frac float64, cfg vp.BlackBoxConfig, r *rng.RNG) (float64, int, error) {
	prompt, err := vp.NewPrompt(w.srcTrain.Shape, w.tgtTrain.Shape, frac)
	if err != nil {
		return 0, 0, err
	}
	o := oracle.NewModelOracle(m)
	if err := vp.TrainBlackBox(ctx, o, prompt, w.tgtTrain, cfg, r); err != nil {
		return 0, 0, err
	}
	acc, err := (&vp.Prompted{Oracle: o, Prompt: prompt}).Accuracy(ctx, w.tgtTest)
	return acc, prompt.Dim(), err
}

// runTable5 reproduces the main comparison: AUROC of every baseline defense
// plus BPROM on CIFAR-10 and GTSRB over 8 attacks.
func runTable5(ctx context.Context, p Params, s *spec, t *Table) error {
	for _, src := range s.sources {
		if err := defenseRows(ctx, p, s, t, src, nn.ArchConvLite, src, false); err != nil {
			return err
		}
	}
	return nil
}

// runTable6 reproduces Table 6: Tiny-ImageNet, two architectures, the
// paper's smaller baseline set.
func runTable6(ctx context.Context, p Params, s *spec, t *Table) error {
	for _, arch := range []nn.Arch{nn.ArchConvLite, nn.ArchMobileNetLite} {
		if err := defenseRows(ctx, p, s, t, s.sources[0], arch, string(arch), true); err != nil {
			return err
		}
	}
	return nil
}

// defenseRows adds one row per defense on src, its second cell tag:
// baselines evaluated at their natural granularity per attack, MM-BD and
// BPROM over the suspect battery. reduced drops the slowest baselines.
func defenseRows(ctx context.Context, p Params, s *spec, t *Table, src string, arch nn.Arch, tag string, reduced bool) error {
	inputDefs := []defense.InputLevel{&defense.STRIP{}, &defense.Frequency{}, &defense.SentiNet{}, &defense.TeCo{}}
	datasetDefs := []defense.DatasetLevel{&defense.AC{}, &defense.CT{}, &defense.SS{}, &defense.SCAn{}, &defense.SPECTRE{}}
	if reduced {
		inputDefs = []defense.InputLevel{&defense.STRIP{}, &defense.ScaleUp{}, &defense.CD{}}
		datasetDefs = []defense.DatasetLevel{&defense.AC{}, &defense.SS{}, &defense.SCAn{}, &defense.CT{}}
	}
	w, err := buildWorld(p, src, data.STL10, s.world)
	if err != nil {
		return err
	}
	env := defense.Env{Clean: w.reserved, Seed: p.Seed}
	cfgs := attackConfigsFor(src, s.kinds)
	row := func(name string, auroc map[attack.Kind]float64) {
		r := []string{name, tag}
		for _, kind := range s.kinds {
			r = append(r, f3(auroc[kind]))
		}
		t.AddRow(append(r, f3(avg(auroc, s.kinds)))...)
	}

	// One infected model + poisoned set per attack for the baselines.
	type perAttack struct {
		infected          *nn.Model
		poisoned          *data.Dataset
		poisonLabels      []bool
		benign, triggered *data.Dataset
	}
	pa := map[attack.Kind]*perAttack{}
	for _, kind := range s.kinds {
		cfg := cfgs[kind]
		cfg.Seed = p.Seed
		poisoned, info, err := attack.Poison(w.srcTrain, cfg, rng.New(p.Seed).Split("cmp:"+string(kind)))
		if err != nil {
			return err
		}
		infected, err := trainModel(ctx, poisoned, arch, 0, p, p.Seed^uint64(len(kind)*977))
		if err != nil {
			return err
		}
		benign, triggered, err := inputEvalSets(w, cfg, p)
		if err != nil {
			return err
		}
		labels := make([]bool, poisoned.Len())
		copy(labels, info.IsPoisoned)
		pa[kind] = &perAttack{infected: infected, poisoned: poisoned, poisonLabels: labels, benign: benign, triggered: triggered}
	}
	for _, d := range inputDefs {
		auroc := map[attack.Kind]float64{}
		for _, kind := range s.kinds {
			a := pa[kind]
			if _, auroc[kind], err = inputLevelQuality(ctx, d, a.infected, a.benign, a.triggered, env); err != nil {
				return err
			}
		}
		row(d.Name(), auroc)
	}
	for _, d := range datasetDefs {
		auroc := map[attack.Kind]float64{}
		for _, kind := range s.kinds {
			a := pa[kind]
			scores, err := d.ScoreTraining(ctx, a.infected, a.poisoned, env)
			if err != nil {
				return err
			}
			if auroc[kind], err = metric.AUROC(scores, a.poisonLabels); err != nil {
				return err
			}
		}
		row(d.Name(), auroc)
	}
	// MM-BD and BPROM are model-level: evaluate over the battery.
	battery, err := buildBattery(ctx, w, arch, 0, p, cfgs)
	if err != nil {
		return err
	}
	mmbd := &defense.MMBD{}
	score := make([]float64, len(battery))
	for i := range battery {
		if score[i], err = mmbd.ScoreModel(ctx, battery[i].model, env); err != nil {
			return fmt.Errorf("%s: %w", mmbd.Name(), err)
		}
	}
	res, err := perKind(battery, score)
	if err != nil {
		return err
	}
	row("mm-bd", res["AUROC"])
	det, err := trainDetector(ctx, w, arch, 0, p, attack.Config{})
	if err != nil {
		return err
	}
	if score, err = inspect(ctx, det, battery); err != nil {
		return err
	}
	if res, err = perKind(battery, score); err != nil {
		return err
	}
	row(bpromLabel(p.ReservedFrac), res["AUROC"])
	return nil
}

// bpromLabel names BPROM's row at a DS fraction.
func bpromLabel(frac float64) string { return fmt.Sprintf("bprom (%.3g%%)", frac*100) }

// runTrainingTime reproduces the §6.2 training-time report: BPROM training
// wall time versus shadow count and architecture.
func runTrainingTime(ctx context.Context, p Params, s *spec, t *Table) error {
	w, err := buildWorld(p, data.CIFAR10, data.STL10, s.world)
	if err != nil {
		return err
	}
	counts := []int{4, 8, 16}
	if p.Scale == Tiny {
		counts = []int{2, 4}
	}
	for _, arch := range []nn.Arch{nn.ArchConvLite, nn.ArchMobileNetLite} {
		for _, n := range counts {
			pp := p
			pp.ShadowClean, pp.ShadowBackdoor = n/2, n/2
			start := time.Now()
			if _, err := trainDetector(ctx, w, arch, 0, pp, attack.Config{}); err != nil {
				return err
			}
			t.AddRow(string(arch), fmt.Sprint(n), time.Since(start).Round(time.Millisecond).String())
		}
	}
	return nil
}

// runFigure3 reproduces Figure 3 numerically: silhouette separation of class
// subspaces for clean/infected source models and their prompted target
// views, plus the PCA coordinates' variance share.
func runFigure3(ctx context.Context, p Params, s *spec, t *Table) error {
	w, err := buildWorld(p, data.CIFAR10, data.STL10, s.world)
	if err != nil {
		return err
	}
	cfg := attack.DefaultConfigs(data.CIFAR10)[attack.BadNets]
	cfg.PoisonRate = 0.20
	cfg.Seed = p.Seed
	poisoned, _, err := attack.Poison(w.srcTrain, cfg, rng.New(p.Seed).Split("fig3"))
	if err != nil {
		return err
	}
	cleanM, err := trainModel(ctx, w.srcTrain, nn.ArchConvLite, 0, p, p.Seed^77)
	if err != nil {
		return err
	}
	infectedM, err := trainModel(ctx, poisoned, nn.ArchConvLite, 0, p, p.Seed^78)
	if err != nil {
		return err
	}
	for _, mc := range []struct {
		name string
		m    *nn.Model
	}{{"clean", cleanM}, {"infected", infectedM}} {
		// source view: features of source test samples
		sil, err := subspaceSilhouette(mc.m, w.srcTest, nil, p)
		if err != nil {
			return err
		}
		t.AddRow(mc.name, "source", f3(sil))
		// prompted target view
		prompt, err := vp.NewPrompt(w.srcTrain.Shape, w.tgtTrain.Shape, p.PromptFrac)
		if err != nil {
			return err
		}
		if err := vp.TrainWhiteBox(ctx, mc.m, prompt, w.tgtTrain, vp.WhiteBoxConfig{Epochs: p.WBEpochs}, rng.New(p.Seed).Split("fig3p", len(mc.name))); err != nil {
			return err
		}
		sil, err = subspaceSilhouette(mc.m, w.tgtTest, prompt, p)
		if err != nil {
			return err
		}
		t.AddRow(mc.name, "prompted-target", f3(sil))
	}
	return nil
}

// subspaceSilhouette computes the silhouette of true-class clusters over the
// model's penultimate features (optionally through a prompt), after top-2
// PCA as in the figure.
func subspaceSilhouette(m *nn.Model, ds *data.Dataset, prompt *vp.Prompt, p Params) (float64, error) {
	n := min(ds.Len(), 200)
	idx := rng.New(p.Seed).Split("sil").Sample(ds.Len(), n)
	xt := ds.Subset(idx)
	in := xt.Tensor()
	if prompt != nil {
		in = prompt.Batch(xt, allIdx(xt.Len()))
	}
	f := m.Features(in)
	d := f.Dim(1)
	x := make([][]float64, xt.Len())
	for i := range x {
		x[i] = append([]float64(nil), f.Data[i*d:(i+1)*d]...)
	}
	comps, _, err := stats.PCA(x, 2, rng.New(p.Seed).Split("silpca"))
	if err != nil {
		return 0, err
	}
	proj := stats.Project(x, comps)
	labels := make([]int, n)
	for i, id := range idx {
		labels[i] = ds.Y[id]
	}
	return stats.Silhouette(proj, labels), nil
}

func allIdx(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// runFigure5 reproduces Figure 5: PCA of meta-features of shadow and
// suspicious models — clean and backdoored models separate.
func runFigure5(ctx context.Context, p Params, s *spec, t *Table) error {
	w, err := buildWorld(p, data.CIFAR10, data.STL10, s.world)
	if err != nil {
		return err
	}
	det, err := trainDetector(ctx, w, nn.ArchConvLite, 0, p, attack.Config{Kind: attack.Trojan, PoisonRate: 0.20})
	if err != nil {
		return err
	}
	var rows [][]float64
	var labels []int
	for _, sh := range det.Shadows {
		rows = append(rows, sh.Features)
		if sh.Backdoor {
			labels = append(labels, 1)
		} else {
			labels = append(labels, 0)
		}
	}
	comps, _, err := stats.PCA(rows, 2, rng.New(p.Seed).Split("fig5"))
	if err != nil {
		return err
	}
	proj := stats.Project(rows, comps)
	t.AddRow("shadow models (trojan)", f3(stats.Silhouette(proj, labels)), fmt.Sprint(len(rows)))
	return nil
}

// runTable13 reproduces Table 13: attack configurations — the paper's
// published rates side by side with the scaled rates this reproduction uses.
func runTable13(_ context.Context, _ Params, s *spec, t *Table) error {
	for _, src := range s.sources {
		paper := attack.PaperConfigs(src)
		ours := attack.DefaultConfigs(src)
		for _, kind := range s.kinds {
			pc := paper[kind]
			oc := ours[kind]
			cover := "-"
			if oc.CoverRate > 0 {
				cover = fmt.Sprintf("%.1f%%", oc.CoverRate*100)
			}
			pcover := pc.CoverRate
			if pcover == "" {
				pcover = "-"
			}
			t.AddRow(string(kind), src, pc.PoisonRate, pcover, fmt.Sprintf("%.1f%%", oc.PoisonRate*100), cover)
		}
	}
	return nil
}

// runAblationOptimizer compares the black-box prompt optimizers: CMA-ES
// (the paper's choice) versus SPSA on the same query budget.
func runAblationOptimizer(ctx context.Context, p Params, s *spec, t *Table) error {
	w, err := buildWorld(p, data.CIFAR10, data.STL10, s.world)
	if err != nil {
		return err
	}
	m, err := trainModel(ctx, w.srcTrain, nn.ArchConvLite, 0, p, p.Seed^s.world)
	if err != nil {
		return err
	}
	for i, name := range []string{"cma-es (paper)", "spsa"} {
		cfg := vp.BlackBoxConfig{Iterations: p.CMAIters, UseSPSA: i == 1}
		acc, _, err := promptedAcc(ctx, m, w, p.PromptFrac, cfg, rng.New(p.Seed).Split("abl-opt", i))
		if err != nil {
			return err
		}
		t.AddRow(name, f3(acc))
	}
	return nil
}

// runAblationPromptSize sweeps the prompt's inner-window fraction: more
// visible image content raises prompted accuracy but shrinks θ.
func runAblationPromptSize(ctx context.Context, p Params, s *spec, t *Table) error {
	w, err := buildWorld(p, data.CIFAR10, data.STL10, s.world)
	if err != nil {
		return err
	}
	m, err := trainModel(ctx, w.srcTrain, nn.ArchConvLite, 0, p, p.Seed^s.world)
	if err != nil {
		return err
	}
	for _, frac := range []float64{0.58, 0.67, 0.75, 0.83} {
		cfg := vp.BlackBoxConfig{Iterations: p.CMAIters}
		acc, dims, err := promptedAcc(ctx, m, w, frac, cfg, rng.New(p.Seed).Split("abl-size", int(frac*100)))
		if err != nil {
			return err
		}
		t.AddRow(fmt.Sprintf("%.2f", frac), fmt.Sprint(dims), f3(acc))
	}
	return nil
}
