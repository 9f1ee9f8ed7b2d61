// Screening example: the detector's learned prompt reused as an inline
// request screen. A BadNets-backdoored model is served with screening
// enabled; clean inputs and trigger-stamped inputs are sent through the
// same predict API, and the per-row screening verdicts show the trigger
// rows lighting up while the served confidences stay untouched (annotate
// policy). A second server demonstrates the reject policy withholding
// flagged rows.
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
	"bprom/internal/mlaas"
	"bprom/internal/nn"
	"bprom/internal/rng"
	"bprom/internal/tensor"
	"bprom/internal/trainer"
)

func main() {
	if err := run(context.Background(), os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(ctx context.Context, w io.Writer) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	srcGen := data.NewGenerator(data.MustSpec(data.CIFAR10), 1)
	srcTrain, srcTest := srcGen.GenerateSplit(50, 150, rng.New(2))
	tgtGen := data.NewGenerator(data.MustSpec(data.STL10), 3)
	tgtTrain, tgtTest := tgtGen.GenerateSplit(20, 10, rng.New(4))

	// Train the victim: a BadNets patch backdoor targeting class 2.
	fmt.Fprintln(w, "train: poisoning and training a BadNets model ...")
	atk := attack.Config{Kind: attack.BadNets, PoisonRate: 0.15, Target: 2, TriggerSize: 4, Seed: 5}
	poisoned, _, err := attack.Poison(srcTrain, atk, rng.New(6))
	if err != nil {
		return err
	}
	model, err := nn.Build(nn.ArchConfig{
		Arch: nn.ArchConvLite, C: srcTrain.Shape.C, H: srcTrain.Shape.H, W: srcTrain.Shape.W,
		NumClasses: srcTrain.Classes, Hidden: 24,
	}, rng.New(7))
	if err != nil {
		return err
	}
	if _, err := trainer.Train(ctx, model, poisoned, trainer.Config{Epochs: 14}, rng.New(8)); err != nil {
		return err
	}

	// Train a small BPROM detector; its shadow prompts are what the
	// screener reuses (mean θ), so this is the same artifact a `bprom
	// train` run would persist and `mlaas-server -screen` would load.
	fmt.Fprintln(w, "train: BPROM detector (shadow prompts double as the request screen) ...")
	det, err := bprom.Train(ctx, bprom.Config{
		Reserved:      srcTest.Reserve(0.10, rng.New(9)),
		ExternalTrain: tgtTrain,
		ExternalTest:  tgtTest,
		NumClean:      4,
		NumBackdoor:   4,
		ShadowArch:    nn.ArchConfig{Arch: nn.ArchConvLite, Hidden: 24},
		ShadowTrain:   trainer.Config{Epochs: 12},
		// A wider learned border (smaller inner window) makes the prompt
		// dominate clean content, which is what separates clean rows
		// (argmax shifts, score drops) from trigger rows (the patch
		// survives the resize and keeps hijacking) at this demo scale.
		PromptFrac: 0.6,
		Seed:       42,
	})
	if err != nil {
		return err
	}
	screener, err := det.Screener(0)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "screen: threshold %.2f, canvas dim %d\n", screener.Threshold(), screener.InputDim())

	// Serve WITH inline screening (annotate policy: confidences untouched,
	// verdicts ride along). Equivalent to `mlaas-server -screen d.bpd`.
	server := mlaas.NewServer(model, mlaas.ServerConfig{
		Name:     "model-zoo/animal-classifier",
		Screener: screener,
	})
	ready := make(chan string, 1)
	serveErr := make(chan error, 1)
	go func() { serveErr <- server.Serve(ctx, "127.0.0.1:0", ready) }()
	addr := <-ready
	fmt.Fprintf(w, "serve: screened endpoint live at http://%s\n", addr)

	client, err := mlaas.Dial(ctx, "http://"+addr, mlaas.ClientConfig{})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "serve: endpoint advertises screened=%v policy=%q\n", client.Screened(), client.ScreenPolicy())

	// Build a mixed batch: n clean test rows followed by the SAME rows with
	// the attacker's test-time trigger stamped on.
	const n = 6
	trig, err := attack.MakeTrigger(atk, srcTest.Shape)
	if err != nil {
		return err
	}
	dim := srcTest.Shape.Dim()
	x := tensor.New(2*n, dim)
	for i := 0; i < n; i++ {
		copy(x.Row(i), srcTest.Sample(i+2))
		trig.Stamp(x.Row(n+i), srcTest.Sample(i+2), srcTest.Shape, i, 0, true)
	}

	out, scr, err := client.PredictScreened(ctx, x)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "predict: per-row screening verdicts (annotate policy):")
	var cleanSum, trigSum float64
	for i := 0; i < 2*n; i++ {
		kind := "clean    "
		if i >= n {
			kind = "triggered"
			trigSum += scr[i].Score
		} else {
			cleanSum += scr[i].Score
		}
		fmt.Fprintf(w, "  row %d  %s  class=%d  score=%.3f  flagged=%v\n",
			i, kind, argmax(out.Row(i)), scr[i].Score, scr[i].Flagged)
	}
	// Per-row flags are noisy at this toy scale (4+4 shadows, 12×12 demo
	// images); the score MEANS separate, which is what a production-scale
	// detector sharpens into reliable per-row flags.
	fmt.Fprintf(w, "predict: mean score clean %.3f vs triggered %.3f\n", cleanSum/n, trigSum/n)

	// The reject policy withholds flagged rows' confidences instead.
	reject := mlaas.NewServer(model, mlaas.ServerConfig{
		Name:         "model-zoo/animal-classifier",
		Screener:     screener,
		ScreenPolicy: mlaas.ScreenReject,
	})
	ready2 := make(chan string, 1)
	serveErr2 := make(chan error, 1)
	go func() { serveErr2 <- reject.Serve(ctx, "127.0.0.1:0", ready2) }()
	client2, err := mlaas.Dial(ctx, "http://"+<-ready2, mlaas.ClientConfig{})
	if err != nil {
		return err
	}
	_, scr2, err := client2.PredictScreened(ctx, x)
	if err != nil {
		return err
	}
	rejected := 0
	for _, s := range scr2 {
		if s.Rejected {
			rejected++
		}
	}
	fmt.Fprintf(w, "reject: same batch under -screen-policy reject: %d/%d rows withheld\n", rejected, 2*n)

	cancel()
	if err := <-serveErr; err != nil {
		return err
	}
	if err := <-serveErr2; err != nil {
		return err
	}
	return nil
}

func argmax(row []float64) int {
	best := 0
	for i, v := range row {
		if v > row[best] {
			best = i
		}
	}
	return best
}
