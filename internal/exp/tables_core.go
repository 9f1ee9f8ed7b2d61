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

// RunTable1 reproduces Table 1: input-level detectors (TeCo, SCALE-UP)
// evaluated on a backdoored AND a clean model — F1/AUROC collapse on clean.
func RunTable1(ctx context.Context, p Params) (*Table, error) {
	t := &Table{
		ID:      "table1",
		Caption: "Input-level detection collapses on clean models (F1 / AUROC)",
		Header:  []string{"detector", "attack", "backdoored-F1", "backdoored-AUROC", "clean-F1", "clean-AUROC"},
	}
	w, err := buildWorld(p, data.CIFAR10, data.STL10, 1)
	if err != nil {
		return nil, err
	}
	cleanModel, err := trainModel(ctx, w.srcTrain, nn.ArchConvLite, 0, p, p.Seed^11)
	if err != nil {
		return nil, err
	}
	env := defense.Env{Clean: w.reserved, Seed: p.Seed}
	kinds := []attack.Kind{attack.BadNets, attack.Blend, attack.WaNet}
	cfgs := attackConfigsFor(data.CIFAR10, kinds)
	for _, kind := range kinds {
		cfg := cfgs[kind]
		cfg.Seed = p.Seed
		poisoned, _, err := attack.Poison(w.srcTrain, cfg, rng.New(p.Seed).Split("t1:"+string(kind)))
		if err != nil {
			return nil, err
		}
		infected, err := trainModel(ctx, poisoned, nn.ArchConvLite, 0, p, p.Seed^23)
		if err != nil {
			return nil, err
		}
		benign, triggered, err := inputEvalSets(w, cfg, p)
		if err != nil {
			return nil, err
		}
		for _, d := range []defense.InputLevel{&defense.TeCo{}, &defense.ScaleUp{}} {
			bF1, bAUC, err := inputLevelQuality(ctx, d, infected, benign, triggered, env)
			if err != nil {
				return nil, err
			}
			cF1, cAUC, err := inputLevelQuality(ctx, d, cleanModel, benign, triggered, env)
			if err != nil {
				return nil, err
			}
			t.AddRow(d.Name(), string(kind), f3(bF1), f3(bAUC), f3(cF1), f3(cAUC))
		}
	}
	return t, nil
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

// RunTable2 reproduces Table 2: prompted accuracy versus number of target
// classes (class subspace inconsistency worsens with more targets).
func RunTable2(ctx context.Context, p Params) (*Table, error) {
	t := &Table{
		ID:      "table2",
		Caption: "Prompted accuracy vs number of target classes",
		Header:  []string{"dataset", "1 target", "2 targets", "3 targets"},
	}
	for _, dsName := range []string{data.CIFAR10, data.GTSRB} {
		w, err := buildWorld(p, dsName, data.STL10, 2)
		if err != nil {
			return nil, err
		}
		row := []string{dsName}
		for _, nt := range []int{1, 2, 3} {
			cfg := attack.Config{Kind: attack.BadNets, PoisonRate: 0.20, NumTargets: nt, Seed: p.Seed}
			acc, err := meanPromptedAcc(ctx, w, cfg, p, 2)
			if err != nil {
				return nil, err
			}
			row = append(row, f3(acc))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// meanPromptedAcc trains `reps` poisoned models under cfg and returns their
// mean black-box prompted accuracy on DT.
func meanPromptedAcc(ctx context.Context, w *world, cfg attack.Config, p Params, reps int) (float64, error) {
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
		acc, err := blackBoxPromptedAcc(ctx, m, w, p, uint64(s))
		if err != nil {
			return 0, err
		}
		total += acc
	}
	return total / float64(reps), nil
}

func blackBoxPromptedAcc(ctx context.Context, m *nn.Model, w *world, p Params, seed uint64) (float64, error) {
	prompt, err := vp.NewPrompt(w.srcTrain.Shape, w.tgtTrain.Shape, p.PromptFrac)
	if err != nil {
		return 0, err
	}
	o := oracle.NewModelOracle(m)
	if err := vp.TrainBlackBox(ctx, o, prompt, w.tgtTrain, vp.BlackBoxConfig{Iterations: p.CMAIters}, rng.New(p.Seed).Split("bbp", int(seed))); err != nil {
		return 0, err
	}
	return (&vp.Prompted{Oracle: o, Prompt: prompt}).Accuracy(ctx, w.tgtTest)
}

// RunTable3 reproduces Table 3: prompted accuracy versus trigger size.
func RunTable3(ctx context.Context, p Params) (*Table, error) {
	return sweepPromptedAcc(ctx, p, "table3", "Prompted accuracy vs trigger size",
		triggerSizeSweep, func(cfg *attack.Config, v int) { cfg.TriggerSize = v },
		func(v int) string { return fmt.Sprintf("%dx%d", v, v) })
}

// RunTable4 reproduces Table 4: prompted accuracy versus poison rate.
func RunTable4(ctx context.Context, p Params) (*Table, error) {
	return sweepPromptedAcc(ctx, p, "table4", "Prompted accuracy vs poison rate",
		[]int{5, 10, 20}, func(cfg *attack.Config, v int) { cfg.PoisonRate = float64(v) / 100 },
		func(v int) string { return fmt.Sprintf("%d%%", v) })
}

// triggerSizeSweep: the paper's 4/8/16-on-32 ratios mapped onto the 12-pixel
// synthetic canvas (2, 3, 6 pixels ≈ 1/6, 1/4, 1/2 of the side).
var triggerSizeSweep = []int{2, 3, 6}

func sweepPromptedAcc(ctx context.Context, p Params, id, caption string, values []int,
	apply func(*attack.Config, int), label func(int) string) (*Table, error) {
	t := &Table{
		ID:      id,
		Caption: caption,
		Header:  []string{"setting"},
	}
	for _, dsName := range []string{data.CIFAR10, data.GTSRB} {
		for _, kind := range []attack.Kind{attack.Blend, attack.AdapBlend} {
			t.Header = append(t.Header, fmt.Sprintf("%s/%s", dsName, kind))
		}
	}
	rows := make(map[int][]string, len(values))
	for _, v := range values {
		rows[v] = []string{label(v)}
	}
	for _, dsName := range []string{data.CIFAR10, data.GTSRB} {
		w, err := buildWorld(p, dsName, data.STL10, 3)
		if err != nil {
			return nil, err
		}
		for _, kind := range []attack.Kind{attack.Blend, attack.AdapBlend} {
			base := attack.DefaultConfigs(dsName)[kind]
			base.PoisonRate = 0.20
			for _, v := range values {
				cfg := base
				apply(&cfg, v)
				acc, err := meanPromptedAcc(ctx, w, cfg, p, 2)
				if err != nil {
					return nil, err
				}
				rows[v] = append(rows[v], f3(acc))
			}
		}
	}
	for _, v := range values {
		t.AddRow(rows[v]...)
	}
	return t, nil
}

// RunTable5 reproduces the main comparison: AUROC of every baseline defense
// plus BPROM on CIFAR-10 and GTSRB over 8 attacks.
func RunTable5(ctx context.Context, p Params) (*Table, error) {
	return defenseComparison(ctx, p, "table5",
		"AUROC of defenses vs BPROM (primary architecture)",
		[]string{data.CIFAR10, data.GTSRB}, table5Attacks(), nn.ArchConvLite, false)
}

// RunTable6 reproduces Table 6: Tiny-ImageNet, two architectures, 7 attacks.
func RunTable6(ctx context.Context, p Params) (*Table, error) {
	kinds := []attack.Kind{attack.BadNets, attack.Blend, attack.Trojan, attack.BPP,
		attack.WaNet, attack.AdapBlend, attack.AdapPatch}
	t := &Table{
		ID:      "table6",
		Caption: "AUROC of defenses on Tiny-ImageNet (class count capped per scale)",
		Header:  append([]string{"defense", "arch"}, kindsHeader(kinds)...),
	}
	for _, arch := range []nn.Arch{nn.ArchConvLite, nn.ArchMobileNetLite} {
		sub, err := defenseComparison(ctx, p, "table6-"+string(arch), "",
			[]string{data.TinyImageNet}, kinds, arch, true)
		if err != nil {
			return nil, err
		}
		for _, row := range sub.Rows {
			// sub rows: defense, dataset, per-kind..., avg → re-tag with arch
			t.AddRow(append([]string{row[0], string(arch)}, row[2:]...)...)
		}
	}
	t.Notes = append(t.Notes, fmt.Sprintf("Tiny-ImageNet classes capped at %d at scale %s", p.MaxClasses, p.Scale))
	return t, nil
}

func kindsHeader(kinds []attack.Kind) []string {
	h := make([]string, 0, len(kinds)+1)
	for _, k := range kinds {
		h = append(h, string(k))
	}
	return append(h, "AVG")
}

// defenseComparison runs the shared defense-vs-BPROM AUROC protocol:
// baselines evaluated at their natural granularity per attack, BPROM over
// the suspicious-model battery. reduced drops the slowest baselines (used
// for the large-dataset tables, matching the paper's smaller Table 6 set).
func defenseComparison(ctx context.Context, p Params, id, caption string, datasets []string, kinds []attack.Kind, arch nn.Arch, reduced bool) (*Table, error) {
	t := &Table{
		ID:      id,
		Caption: caption,
		Header:  append([]string{"defense", "dataset"}, kindsHeader(kinds)...),
	}
	inputDefs := []defense.InputLevel{&defense.STRIP{}, &defense.Frequency{}, &defense.SentiNet{}, &defense.TeCo{}}
	datasetDefs := []defense.DatasetLevel{&defense.AC{}, &defense.CT{}, &defense.SS{}, &defense.SCAn{}, &defense.SPECTRE{}}
	if reduced {
		inputDefs = []defense.InputLevel{&defense.STRIP{}, &defense.ScaleUp{}, &defense.CD{}}
		datasetDefs = []defense.DatasetLevel{&defense.AC{}, &defense.SS{}, &defense.SCAn{}, &defense.CT{}}
	}
	for _, dsName := range datasets {
		w, err := buildWorld(p, dsName, data.STL10, 5)
		if err != nil {
			return nil, err
		}
		env := defense.Env{Clean: w.reserved, Seed: p.Seed}
		cfgs := attackConfigsFor(dsName, kinds)

		// One infected model + poisoned set per attack for the baselines.
		type perAttack struct {
			infected          *nn.Model
			poisoned          *data.Dataset
			poisonLabels      []bool
			benign, triggered *data.Dataset
		}
		pa := map[attack.Kind]*perAttack{}
		for _, kind := range kinds {
			cfg := cfgs[kind]
			cfg.Seed = p.Seed
			poisoned, info, err := attack.Poison(w.srcTrain, cfg, rng.New(p.Seed).Split("cmp:"+string(kind)))
			if err != nil {
				return nil, err
			}
			infected, err := trainModel(ctx, poisoned, arch, 0, p, p.Seed^uint64(len(kind)*977))
			if err != nil {
				return nil, err
			}
			benign, triggered, err := inputEvalSets(w, cfg, p)
			if err != nil {
				return nil, err
			}
			labels := make([]bool, poisoned.Len())
			copy(labels, info.IsPoisoned)
			pa[kind] = &perAttack{infected: infected, poisoned: poisoned, poisonLabels: labels, benign: benign, triggered: triggered}
		}
		for _, d := range inputDefs {
			row := []string{d.Name(), dsName}
			sum := 0.0
			for _, kind := range kinds {
				a := pa[kind]
				_, auc, err := inputLevelQuality(ctx, d, a.infected, a.benign, a.triggered, env)
				if err != nil {
					return nil, err
				}
				row = append(row, f3(auc))
				sum += auc
			}
			t.AddRow(append(row, f3(sum/float64(len(kinds))))...)
		}
		for _, d := range datasetDefs {
			row := []string{d.Name(), dsName}
			sum := 0.0
			for _, kind := range kinds {
				a := pa[kind]
				scores, err := d.ScoreTraining(ctx, a.infected, a.poisoned, env)
				if err != nil {
					return nil, err
				}
				auc, err := metric.AUROC(scores, a.poisonLabels)
				if err != nil {
					return nil, err
				}
				row = append(row, f3(auc))
				sum += auc
			}
			t.AddRow(append(row, f3(sum/float64(len(kinds))))...)
		}
		// MM-BD and BPROM are model-level: evaluate over the battery.
		battery, err := buildBattery(ctx, w, arch, 0, p, cfgs)
		if err != nil {
			return nil, err
		}
		mmbdRow, err := modelLevelRow(ctx, &defense.MMBD{}, battery, env, kinds)
		if err != nil {
			return nil, err
		}
		t.AddRow(append([]string{"mm-bd", dsName}, mmbdRow...)...)

		det, err := trainDetector(ctx, w, arch, 0, p, attack.Config{})
		if err != nil {
			return nil, err
		}
		res, err := runDetection(ctx, det, battery)
		if err != nil {
			return nil, err
		}
		row := []string{fmt.Sprintf("bprom (%d%%)", int(p.ReservedFrac*100)), dsName}
		for _, kind := range kinds {
			row = append(row, f3(res.AUROC[kind]))
		}
		t.AddRow(append(row, f3(avg(res.AUROC, kinds)))...)
	}
	return t, nil
}

// modelLevelRow evaluates a model-level baseline over the battery.
func modelLevelRow(ctx context.Context, d defense.ModelLevel, battery []susModel, env defense.Env, kinds []attack.Kind) ([]string, error) {
	scores := make([]float64, len(battery))
	for i := range battery {
		s, err := d.ScoreModel(ctx, battery[i].model, env)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.Name(), err)
		}
		scores[i] = s
	}
	var cleanScores []float64
	perKind := map[attack.Kind][]float64{}
	for i, b := range battery {
		if !b.backdoor {
			cleanScores = append(cleanScores, scores[i])
		} else {
			perKind[b.kind] = append(perKind[b.kind], scores[i])
		}
	}
	var row []string
	sum := 0.0
	for _, kind := range kinds {
		all := append([]float64(nil), cleanScores...)
		labels := make([]bool, len(cleanScores), len(cleanScores)+len(perKind[kind]))
		for _, s := range perKind[kind] {
			all = append(all, s)
			labels = append(labels, true)
		}
		auc, err := metric.AUROC(all, labels)
		if err != nil {
			return nil, err
		}
		row = append(row, f3(auc))
		sum += auc
	}
	return append(row, f3(sum/float64(len(kinds)))), nil
}

// RunTrainingTime reproduces the §6.2 training-time report: BPROM training
// wall time versus shadow count and architecture.
func RunTrainingTime(ctx context.Context, p Params) (*Table, error) {
	t := &Table{
		ID:      "training-time",
		Caption: "BPROM training time vs shadow-model count",
		Header:  []string{"arch", "shadows", "wall-time"},
	}
	w, err := buildWorld(p, data.CIFAR10, data.STL10, 6)
	if err != nil {
		return nil, err
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
				return nil, err
			}
			t.AddRow(string(arch), fmt.Sprint(n), time.Since(start).Round(time.Millisecond).String())
		}
	}
	return t, nil
}

// RunFigure3 reproduces Figure 3 numerically: silhouette separation of class
// subspaces for clean/infected source models and their prompted target
// views, plus the PCA coordinates' variance share.
func RunFigure3(ctx context.Context, p Params) (*Table, error) {
	t := &Table{
		ID:      "figure3",
		Caption: "Class-subspace separation (silhouette over penultimate features, top-2 PCA)",
		Header:  []string{"model", "view", "silhouette"},
	}
	w, err := buildWorld(p, data.CIFAR10, data.STL10, 7)
	if err != nil {
		return nil, err
	}
	cfg := attack.DefaultConfigs(data.CIFAR10)[attack.BadNets]
	cfg.PoisonRate = 0.20
	cfg.Seed = p.Seed
	poisoned, _, err := attack.Poison(w.srcTrain, cfg, rng.New(p.Seed).Split("fig3"))
	if err != nil {
		return nil, err
	}
	cleanM, err := trainModel(ctx, w.srcTrain, nn.ArchConvLite, 0, p, p.Seed^77)
	if err != nil {
		return nil, err
	}
	infectedM, err := trainModel(ctx, poisoned, nn.ArchConvLite, 0, p, p.Seed^78)
	if err != nil {
		return nil, err
	}
	for _, mc := range []struct {
		name string
		m    *nn.Model
	}{{"clean", cleanM}, {"infected", infectedM}} {
		// source view: features of source test samples
		sil, err := subspaceSilhouette(mc.m, w.srcTest, nil, p)
		if err != nil {
			return nil, err
		}
		t.AddRow(mc.name, "source", f3(sil))
		// prompted target view
		prompt, err := vp.NewPrompt(w.srcTrain.Shape, w.tgtTrain.Shape, p.PromptFrac)
		if err != nil {
			return nil, err
		}
		if err := vp.TrainWhiteBox(ctx, mc.m, prompt, w.tgtTrain, vp.WhiteBoxConfig{Epochs: p.WBEpochs}, rng.New(p.Seed).Split("fig3p", len(mc.name))); err != nil {
			return nil, err
		}
		sil, err = subspaceSilhouette(mc.m, w.tgtTest, prompt, p)
		if err != nil {
			return nil, err
		}
		t.AddRow(mc.name, "prompted-target", f3(sil))
	}
	t.Notes = append(t.Notes, "expected shape: infected prompted-target silhouette well below clean (Figure 3d's class confusion)")
	return t, nil
}

// subspaceSilhouette computes the silhouette of true-class clusters over the
// model's penultimate features (optionally through a prompt), after top-2
// PCA as in the figure.
func subspaceSilhouette(m *nn.Model, ds *data.Dataset, prompt *vp.Prompt, p Params) (float64, error) {
	n := min(ds.Len(), 200)
	idx := rng.New(p.Seed).Split("sil").Sample(ds.Len(), n)
	var x = func() (feats [][]float64) {
		var batch = func(ids []int) [][]float64 {
			var xt = ds.Subset(ids)
			var in = xt.Tensor()
			if prompt != nil {
				in = prompt.Batch(xt, allIdx(xt.Len()))
			}
			f := m.Features(in)
			d := f.Dim(1)
			out := make([][]float64, xt.Len())
			for i := range out {
				out[i] = append([]float64(nil), f.Data[i*d:(i+1)*d]...)
			}
			return out
		}
		return batch(idx)
	}()
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

// RunFigure5 reproduces Figure 5: PCA of meta-features of shadow and
// suspicious models — clean and backdoored models separate.
func RunFigure5(ctx context.Context, p Params) (*Table, error) {
	t := &Table{
		ID:      "figure5",
		Caption: "Meta-feature PCA separation (silhouette of clean vs backdoor model groups)",
		Header:  []string{"population", "silhouette", "models"},
	}
	w, err := buildWorld(p, data.CIFAR10, data.STL10, 8)
	if err != nil {
		return nil, err
	}
	det, err := trainDetector(ctx, w, nn.ArchConvLite, 0, p, attack.Config{Kind: attack.Trojan, PoisonRate: 0.20})
	if err != nil {
		return nil, err
	}
	var rows [][]float64
	var labels []int
	for _, s := range det.Shadows {
		rows = append(rows, s.Features)
		if s.Backdoor {
			labels = append(labels, 1)
		} else {
			labels = append(labels, 0)
		}
	}
	comps, _, err := stats.PCA(rows, 2, rng.New(p.Seed).Split("fig5"))
	if err != nil {
		return nil, err
	}
	proj := stats.Project(rows, comps)
	t.AddRow("shadow models (trojan)", f3(stats.Silhouette(proj, labels)), fmt.Sprint(len(rows)))
	return t, nil
}
