// Quickstart: train a clean and a BadNets-backdoored classifier on the
// synthetic CIFAR-10 analogue, train a BPROM detector, and inspect both
// models black-box. Each model gets its thresholded verdict; the closing
// line reports the score ordering, which is what the paper's AUROC
// measures. At this demo scale the backdoored model scores above the clean
// one but below the detector's threshold, so both verdicts read CLEAN.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"

	"bprom/internal/attack"
	"bprom/internal/bprom"
	"bprom/internal/data"
	"bprom/internal/nn"
	"bprom/internal/oracle"
	"bprom/internal/rng"
	"bprom/internal/trainer"
)

func main() {
	if err := run(context.Background(), os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(ctx context.Context, w io.Writer) error {
	// 1. Data: the suspicious models' domain (CIFAR-10 analogue) and the
	//    defender's external clean dataset DT (STL-10 analogue).
	srcGen := data.NewGenerator(data.MustSpec(data.CIFAR10), 1)
	srcTrain, srcTest := srcGen.GenerateSplit(50, 150, rng.New(2))
	tgtGen := data.NewGenerator(data.MustSpec(data.STL10), 3)
	tgtTrain, tgtTest := tgtGen.GenerateSplit(20, 10, rng.New(4))

	// 2. Two suspicious models: one clean, one carrying a BadNets backdoor.
	fmt.Fprintln(w, "training suspicious models ...")
	cleanModel, err := trainOn(ctx, srcTrain, 10)
	if err != nil {
		return err
	}
	atk := attack.Config{Kind: attack.BadNets, PoisonRate: 0.15, Target: 0, Seed: 5}
	poisoned, _, err := attack.Poison(srcTrain, atk, rng.New(6))
	if err != nil {
		return err
	}
	backdoored, err := trainOn(ctx, poisoned, 20)
	if err != nil {
		return err
	}
	asr, err := attack.ASR(backdoored, srcTest, atk)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "backdoored model: clean acc %.3f, attack success rate %.3f\n",
		trainer.Evaluate(backdoored, srcTest, 0), asr)

	// 3. BPROM: the defender reserves 10%% of the test set as DS, trains
	//    shadow models + meta-classifier.
	fmt.Fprintln(w, "training BPROM detector (shadow models + prompting + meta-classifier) ...")
	det, err := bprom.Train(ctx, bprom.Config{
		Reserved:      srcTest.Reserve(0.10, rng.New(7)),
		ExternalTrain: tgtTrain,
		ExternalTest:  tgtTest,
		NumClean:      6,
		NumBackdoor:   6,
		ShadowArch:    nn.ArchConfig{Arch: nn.ArchConvLite, Hidden: 24},
		ShadowTrain:   trainer.Config{Epochs: 14},
		Seed:          42,
	})
	if err != nil {
		return err
	}

	// 4. Inspect both models using only black-box confidence queries. The
	//    verdict thresholds each score; the paper evaluates with AUROC, i.e.
	//    by score ORDERING across many models.
	scores := make([]float64, 2)
	for i, m := range []*nn.Model{cleanModel, backdoored} {
		name := [...]string{"clean model     ", "backdoored model"}[i]
		v, err := det.Inspect(ctx, oracle.NewModelOracle(m), i)
		if err != nil {
			return err
		}
		scores[i] = v.Score
		verdict := "CLEAN"
		if v.Backdoored {
			verdict = "BACKDOORED"
		}
		fmt.Fprintf(w, "%s -> %s: backdoor score %.3f (threshold %.3f), prompted acc %.3f, %d queries\n",
			name, verdict, v.Score, v.Threshold, v.PromptedAcc, v.Queries)
	}
	if scores[1] > scores[0] {
		fmt.Fprintln(w, "score ordering: the backdoored model scores above the clean one")
	} else {
		fmt.Fprintln(w, "score ordering: the scores did not separate on this seed")
	}
	return nil
}

func trainOn(ctx context.Context, ds *data.Dataset, seed uint64) (*nn.Model, error) {
	m, err := nn.Build(nn.ArchConfig{
		Arch: nn.ArchConvLite, C: ds.Shape.C, H: ds.Shape.H, W: ds.Shape.W,
		NumClasses: ds.Classes, Hidden: 24,
	}, rng.New(seed))
	if err != nil {
		return nil, err
	}
	if _, err := trainer.Train(ctx, m, ds, trainer.Config{Epochs: 14}, rng.New(seed+1)); err != nil {
		return nil, err
	}
	return m, nil
}
