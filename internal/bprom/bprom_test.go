package bprom

import (
	"context"
	"sync"
	"testing"

	"bprom/internal/attack"
	"bprom/internal/data"
	"bprom/internal/metric"
	"bprom/internal/nn"
	"bprom/internal/oracle"
	"bprom/internal/rng"
	"bprom/internal/trainer"
)

type env struct {
	srcTrain, srcTest *data.Dataset
	tgtTrain, tgtTest *data.Dataset
	det               *Detector
}

var (
	envOnce sync.Once
	shared  *env
)

// sharedEnv trains one detector reused by the tests below (detector
// training is the expensive part).
func sharedEnv(t *testing.T) *env {
	t.Helper()
	envOnce.Do(func() {
		ctx := context.Background()
		srcGen := data.NewGenerator(data.MustSpec(data.CIFAR10), 1)
		srcTrain, srcTest := srcGen.GenerateSplit(40, 120, rng.New(2))
		tgtGen := data.NewGenerator(data.MustSpec(data.STL10), 3)
		tgtTrain, tgtTest := tgtGen.GenerateSplit(15, 8, rng.New(4))
		det, err := Train(ctx, Config{
			Reserved:      srcTest.Reserve(0.10, rng.New(5)),
			ExternalTrain: tgtTrain,
			ExternalTest:  tgtTest,
			NumClean:      5,
			NumBackdoor:   5,
			ShadowArch:    nn.ArchConfig{Arch: nn.ArchConvLite, Hidden: 24},
			ShadowTrain:   trainer.Config{Epochs: 12},
			ShadowAttack:  attack.Config{Kind: attack.BadNets, PoisonRate: 0.20},
			Seed:          42,
		})
		if err != nil {
			panic(err)
		}
		shared = &env{srcTrain: srcTrain, srcTest: srcTest, tgtTrain: tgtTrain, tgtTest: tgtTest, det: det}
	})
	return shared
}

func trainSus(t *testing.T, e *env, poisonCfg *attack.Config, seed uint64) *nn.Model {
	t.Helper()
	ctx := context.Background()
	ds := e.srcTrain
	if poisonCfg != nil {
		poisoned, _, err := attack.Poison(e.srcTrain, *poisonCfg, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		ds = poisoned
	}
	m, err := nn.Build(nn.ArchConfig{
		Arch: nn.ArchConvLite, C: ds.Shape.C, H: ds.Shape.H, W: ds.Shape.W,
		NumClasses: ds.Classes, Hidden: 24,
	}, rng.New(seed+1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trainer.Train(ctx, m, ds, trainer.Config{Epochs: 12}, rng.New(seed+2)); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTrainProducesBalancedShadows(t *testing.T) {
	e := sharedEnv(t)
	var clean, bd int
	for _, s := range e.det.Shadows {
		if s.Backdoor {
			bd++
		} else {
			clean++
		}
		if len(s.Features) == 0 {
			t.Fatal("shadow has no meta-features")
		}
		if s.PromptedAcc < 0 || s.PromptedAcc > 1 {
			t.Fatalf("prompted accuracy %v out of range", s.PromptedAcc)
		}
	}
	if clean != 5 || bd != 5 {
		t.Fatalf("shadow counts %d/%d, want 5/5", clean, bd)
	}
	// All shadows share the feature layout required by the forest.
	for _, s := range e.det.Shadows[1:] {
		if len(s.Features) != len(e.det.Shadows[0].Features) {
			t.Fatal("inconsistent meta-feature widths")
		}
	}
}

func TestDetectionSeparatesBackdooredModels(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a battery of suspicious models")
	}
	e := sharedEnv(t)
	ctx := context.Background()
	var scores []float64
	var labels []bool
	id := 0
	for s := uint64(0); s < 4; s++ {
		m := trainSus(t, e, nil, 100+s*7)
		v, err := e.det.Inspect(ctx, oracle.NewModelOracle(m), id)
		if err != nil {
			t.Fatal(err)
		}
		id++
		scores = append(scores, v.Score)
		labels = append(labels, false)
		if v.Queries == 0 {
			t.Fatal("inspection made no oracle queries")
		}
	}
	for _, kind := range []attack.Kind{attack.BadNets, attack.Blend} {
		for s := uint64(0); s < 2; s++ {
			cfg := attack.Config{Kind: kind, PoisonRate: 0.20, Target: int(s*3 + 1), Seed: 50 + s}
			m := trainSus(t, e, &cfg, 200+s*11)
			v, err := e.det.Inspect(ctx, oracle.NewModelOracle(m), id)
			if err != nil {
				t.Fatal(err)
			}
			id++
			scores = append(scores, v.Score)
			labels = append(labels, true)
		}
	}
	auc, err := metric.AUROC(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("detection AUROC = %.3f (scores %v)", auc, scores)
	if auc < 0.7 {
		t.Errorf("detection AUROC %.3f below 0.7", auc)
	}
}

func TestInspectDeterministic(t *testing.T) {
	e := sharedEnv(t)
	ctx := context.Background()
	m := trainSus(t, e, nil, 300)
	v1, err := e.det.Inspect(ctx, oracle.NewModelOracle(m), 7)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := e.det.Inspect(ctx, oracle.NewModelOracle(m), 7)
	if err != nil {
		t.Fatal(err)
	}
	if v1.Score != v2.Score || v1.PromptedAcc != v2.PromptedAcc {
		t.Fatalf("inspection not reproducible: %+v vs %+v", v1, v2)
	}
}

func TestTrainValidation(t *testing.T) {
	ctx := context.Background()
	tgt := data.NewGenerator(data.MustSpec(data.STL10), 1).Generate(2, rng.New(1))
	if _, err := Train(ctx, Config{}); err == nil {
		t.Fatal("expected error for missing DS")
	}
	small := data.NewGenerator(data.MustSpec(data.CIFAR10), 2).Generate(2, rng.New(2))
	if _, err := Train(ctx, Config{Reserved: small}); err == nil {
		t.Fatal("expected error for missing DT")
	}
	// external task with more classes than the source domain
	big := data.NewGenerator(data.MustSpec(data.GTSRB), 3).Generate(1, rng.New(3))
	if _, err := Train(ctx, Config{Reserved: small, ExternalTrain: big, ExternalTest: big}); err == nil {
		t.Fatal("expected error for class-count mismatch")
	}
	_ = tgt
}

func TestTrainRespectsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	src := data.NewGenerator(data.MustSpec(data.CIFAR10), 4).Generate(12, rng.New(4))
	tgt := data.NewGenerator(data.MustSpec(data.STL10), 5).Generate(6, rng.New(5))
	_, err := Train(ctx, Config{
		Reserved: src, ExternalTrain: tgt, ExternalTest: tgt,
		NumClean: 1, NumBackdoor: 1,
		ShadowArch:  nn.ArchConfig{Arch: nn.ArchConvLite, Hidden: 8},
		ShadowTrain: trainer.Config{Epochs: 1},
	})
	if err == nil {
		t.Fatal("expected cancellation error")
	}
}

func TestScoreModelMatchesInspect(t *testing.T) {
	e := sharedEnv(t)
	ctx := context.Background()
	m := trainSus(t, e, nil, 400)
	v, err := e.det.Inspect(ctx, oracle.NewModelOracle(m), 9)
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.det.ScoreModel(ctx, oracle.NewModelOracle(m), 9)
	if err != nil {
		t.Fatal(err)
	}
	if s != v.Score {
		t.Fatalf("ScoreModel %v != Inspect score %v", s, v.Score)
	}
}

// TestProgressQueryDeltas asserts the per-generation spend reporting: the
// deltas must be positive for every completed generation and sum to the
// final cumulative query count.
func TestProgressQueryDeltas(t *testing.T) {
	e := sharedEnv(t)
	ctx := context.Background()
	m := trainSus(t, e, nil, 700)
	var snaps []Progress
	v, err := e.det.InspectProgress(ctx, oracle.NewModelOracle(m), 17, func(p Progress) {
		snaps = append(snaps, p)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) < 3 {
		t.Fatalf("only %d progress snapshots", len(snaps))
	}
	var sum int64
	for i, p := range snaps {
		if i == 0 {
			if p.Generation != 0 || p.Queries != 0 || p.QueriesDelta != 0 {
				t.Fatalf("initial snapshot not zeroed: %+v", p)
			}
			continue
		}
		if p.QueriesDelta <= 0 {
			t.Fatalf("snapshot %d has non-positive delta: %+v", i, p)
		}
		if p.Queries != snaps[i-1].Queries+p.QueriesDelta {
			t.Fatalf("snapshot %d delta inconsistent with cumulative count: %+v after %+v", i, p, snaps[i-1])
		}
		sum += p.QueriesDelta
	}
	if sum != v.Queries {
		t.Fatalf("deltas sum to %d, verdict reports %d queries", sum, v.Queries)
	}
	// Every mid-run snapshot's delta is one fused generation: λ×k rows.
	final := snaps[len(snaps)-1]
	if final.Queries != v.Queries || final.Generation != final.Generations {
		t.Fatalf("final snapshot %+v inconsistent with verdict %+v", final, v)
	}
}
