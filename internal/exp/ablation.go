package exp

import (
	"context"
	"fmt"

	"bprom/internal/attack"
	"bprom/internal/data"
	"bprom/internal/nn"
	"bprom/internal/oracle"
	"bprom/internal/rng"
	"bprom/internal/vp"
)

// The ablations below cover design choices beyond the paper's own tables: the black-box optimizer, the prompt geometry, the
// query-set size, and the paper's stated limitation (all-to-all backdoors).

// RunLimitationAllToAll reproduces the conclusion section's limitation:
// BPROM detects all-to-one backdoors but struggles with all-to-all ones,
// whose feature-space distortion the attacker controls.
func RunLimitationAllToAll(ctx context.Context, p Params) (*Table, error) {
	t := &Table{
		ID:      "limitation-alltoall",
		Caption: "All-to-one vs all-to-all backdoors (BadNets, CIFAR-10)",
		Header:  []string{"backdoor mapping", "AUROC", "mean ASR"},
	}
	w, err := buildWorld(p, data.CIFAR10, data.STL10, 30)
	if err != nil {
		return nil, err
	}
	det, err := trainDetector(ctx, w, nn.ArchConvLite, p, attack.Config{})
	if err != nil {
		return nil, err
	}
	for _, allToAll := range []bool{false, true} {
		cfg := attack.Config{Kind: attack.BadNets, PoisonRate: 0.20, AllToAll: allToAll}
		battery, err := buildBattery(ctx, w, nn.ArchConvLite, p, map[attack.Kind]attack.Config{attack.BadNets: cfg})
		if err != nil {
			return nil, err
		}
		res, err := runDetection(ctx, det, battery)
		if err != nil {
			return nil, err
		}
		name := "all-to-one"
		if allToAll {
			name = "all-to-all"
		}
		t.AddRow(name, f3(res.AUROC[attack.BadNets]), f3(res.MeanASR[attack.BadNets]))
	}
	t.Notes = append(t.Notes, "expected shape: all-to-all AUROC at or below all-to-one (the paper's stated limitation)")
	return t, nil
}

// RunAblationOptimizer compares the black-box prompt optimizers: CMA-ES
// (the paper's choice) versus SPSA on the same query budget.
func RunAblationOptimizer(ctx context.Context, p Params) (*Table, error) {
	t := &Table{
		ID:      "ablation-optimizer",
		Caption: "Black-box prompt optimizer: prompted accuracy on a clean model",
		Header:  []string{"optimizer", "prompted accuracy"},
	}
	w, err := buildWorld(p, data.CIFAR10, data.STL10, 31)
	if err != nil {
		return nil, err
	}
	m, err := trainModel(ctx, w.srcTrain, nn.ArchConvLite, p, p.Seed^31)
	if err != nil {
		return nil, err
	}
	for _, useSPSA := range []bool{false, true} {
		prompt, err := vp.NewPrompt(w.srcTrain.Shape, w.tgtTrain.Shape, p.PromptFrac)
		if err != nil {
			return nil, err
		}
		o := oracle.NewModelOracle(m)
		cfg := vp.BlackBoxConfig{Iterations: p.CMAIters, UseSPSA: useSPSA}
		if err := vp.TrainBlackBox(ctx, o, prompt, w.tgtTrain, cfg, rng.New(p.Seed).Split("abl-opt", boolToInt(useSPSA))); err != nil {
			return nil, err
		}
		acc, err := (&vp.Prompted{Oracle: o, Prompt: prompt}).Accuracy(ctx, w.tgtTest)
		if err != nil {
			return nil, err
		}
		name := "cma-es (paper)"
		if useSPSA {
			name = "spsa"
		}
		t.AddRow(name, f3(acc))
	}
	return t, nil
}

// RunAblationPromptSize sweeps the prompt's inner-window fraction: more
// visible image content raises prompted accuracy but shrinks θ.
func RunAblationPromptSize(ctx context.Context, p Params) (*Table, error) {
	t := &Table{
		ID:      "ablation-promptsize",
		Caption: "Prompt inner-window fraction vs prompted accuracy (clean model)",
		Header:  []string{"inner fraction", "theta dims", "prompted accuracy"},
	}
	w, err := buildWorld(p, data.CIFAR10, data.STL10, 32)
	if err != nil {
		return nil, err
	}
	m, err := trainModel(ctx, w.srcTrain, nn.ArchConvLite, p, p.Seed^32)
	if err != nil {
		return nil, err
	}
	for _, frac := range []float64{0.58, 0.67, 0.75, 0.83} {
		prompt, err := vp.NewPrompt(w.srcTrain.Shape, w.tgtTrain.Shape, frac)
		if err != nil {
			return nil, err
		}
		o := oracle.NewModelOracle(m)
		if err := vp.TrainBlackBox(ctx, o, prompt, w.tgtTrain, vp.BlackBoxConfig{Iterations: p.CMAIters}, rng.New(p.Seed).Split("abl-size", int(frac*100))); err != nil {
			return nil, err
		}
		acc, err := (&vp.Prompted{Oracle: o, Prompt: prompt}).Accuracy(ctx, w.tgtTest)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%.2f", frac), fmt.Sprint(prompt.Dim()), f3(acc))
	}
	t.Notes = append(t.Notes, "expected shape: accuracy rises with the visible-content fraction")
	return t, nil
}

// RunAblationQueryCount sweeps q = |DQ|: more query samples give the
// meta-classifier a richer signature.
func RunAblationQueryCount(ctx context.Context, p Params) (*Table, error) {
	t := &Table{
		ID:      "ablation-querycount",
		Caption: "Meta-feature query count q vs detection AUROC (BadNets)",
		Header:  []string{"q", "AUROC"},
	}
	w, err := buildWorld(p, data.CIFAR10, data.STL10, 33)
	if err != nil {
		return nil, err
	}
	cfg := attack.Config{Kind: attack.BadNets, PoisonRate: 0.20}
	battery, err := buildBattery(ctx, w, nn.ArchConvLite, p, map[attack.Kind]attack.Config{attack.BadNets: cfg})
	if err != nil {
		return nil, err
	}
	for _, q := range []int{5, 15, 30} {
		pp := p
		pp.QuerySamples = q
		det, err := trainDetector(ctx, w, nn.ArchConvLite, pp, attack.Config{})
		if err != nil {
			return nil, err
		}
		res, err := runDetection(ctx, det, battery)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(q), f3(res.AUROC[attack.BadNets]))
	}
	return t, nil
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
