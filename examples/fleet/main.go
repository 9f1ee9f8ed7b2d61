// Fleet-audit example: the full train-once / audit-many workload in one
// process. An attacker uploads a zoo of checkpoints — a clean model and two
// backdoored ones — to a multi-model MLaaS registry whose LRU hot-set is
// SMALLER than the zoo, so serving pages models in and out of memory. The
// defender trains ONE BPROM detector, persists it as a versioned .bpd
// artifact, and hands the artifact to the platform; the platform reloads it
// from disk (exactly what a separate server process would do) and exposes
// audit-as-a-service. Auditing the whole fleet is then nothing but
// submitting asynchronous audit jobs over HTTP and polling their progress —
// no retraining, and no probe traffic across the wire.
//
// This is the in-process twin of the CLI walkthrough:
//
//	attackzoo -export zoo/
//	bprom train -out detector.bpd
//	mlaas-server -models zoo/ -detector detector.bpd
//	bprom audit -url http://... -fleet
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sync"
	"time"

	"bprom/internal/attack"
	"bprom/internal/audit"
	"bprom/internal/bprom"
	"bprom/internal/data"
	"bprom/internal/mlaas"
	"bprom/internal/nn"
	"bprom/internal/rng"
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

	// The "attacker" side: materialize a zoo of checkpoints on disk.
	work, err := os.MkdirTemp("", "bprom-fleet-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	zoo := filepath.Join(work, "zoo")
	if err := os.MkdirAll(zoo, 0o755); err != nil {
		return err
	}
	uploads := []struct {
		id  string
		atk *attack.Config
	}{
		{"clean", nil},
		{"trojan", &attack.Config{Kind: attack.Trojan, PoisonRate: 0.15, Target: 2, Seed: 5}},
		{"badnets", &attack.Config{Kind: attack.BadNets, PoisonRate: 0.15, Target: 0, Seed: 6}},
	}
	fmt.Fprintf(w, "attacker: uploading %d models to the platform ...\n", len(uploads))
	for i, up := range uploads {
		train := srcTrain
		note := "clean upload"
		if up.atk != nil {
			poisoned, _, err := attack.Poison(srcTrain, *up.atk, rng.New(uint64(20+i)))
			if err != nil {
				return err
			}
			train = poisoned
			note = fmt.Sprintf("backdoored upload (%s)", up.atk.Kind)
		}
		model, err := nn.Build(nn.ArchConfig{
			Arch: nn.ArchConvLite, C: srcTrain.Shape.C, H: srcTrain.Shape.H, W: srcTrain.Shape.W,
			NumClasses: srcTrain.Classes, Hidden: 24,
		}, rng.New(uint64(30+i)))
		if err != nil {
			return err
		}
		if _, err := trainer.Train(ctx, model, train, trainer.Config{Epochs: 14}, rng.New(uint64(40+i))); err != nil {
			return err
		}
		path := filepath.Join(zoo, up.id+".bin")
		if err := model.SaveFile(path); err != nil {
			return err
		}
		if err := nn.SidecarFor(model, "zoo/"+up.id, note).WriteFile(path); err != nil {
			return err
		}
	}

	// The defender side, OFFLINE phase: train the detector ONCE and persist
	// it as a versioned artifact.
	fmt.Fprintln(w, "defender: training BPROM detector once ...")
	det, err := bprom.Train(ctx, bprom.Config{
		Reserved:      srcTest.Reserve(0.10, rng.New(9)),
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
	artifact := filepath.Join(work, "detector.bpd")
	if err := det.SaveFile(artifact); err != nil {
		return err
	}
	st, err := os.Stat(artifact)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "defender: detector artifact written (%s, %d bytes)\n", filepath.Base(artifact), st.Size())

	// The platform: a registry whose hot-set is smaller than the zoo, plus
	// audit-as-a-service over the artifact RELOADED from disk — the same
	// train-once detector a fresh server process would start from.
	loaded, err := bprom.LoadFile(artifact)
	if err != nil {
		return err
	}
	const maxLoaded = 2
	reg, err := mlaas.OpenRegistry(zoo, mlaas.RegistryConfig{MaxLoaded: maxLoaded})
	if err != nil {
		return err
	}
	server := mlaas.NewRegistryServer(reg)
	if err := server.EnableAudits(loaded, mlaas.AuditConfig{Workers: 2}); err != nil {
		return err
	}
	ready := make(chan string, 1)
	serveErr := make(chan error, 1)
	go func() { serveErr <- server.Serve(ctx, "127.0.0.1:0", ready) }()
	addr := <-ready
	fmt.Fprintf(w, "platform: %d models live at http://%s (LRU hot-set of %d, audits enabled)\n",
		reg.Len(), addr, maxLoaded)

	// The defender side, ONLINE phase: discover the fleet and submit one
	// asynchronous server-side audit job per model. No retraining, no
	// probe traffic over the wire — just job submissions and polling.
	base := "http://" + addr
	if h, err := mlaas.Healthz(ctx, base, mlaas.ClientConfig{}); err != nil || !h.AuditsEnabled {
		return fmt.Errorf("platform health: %+v err=%v", h, err)
	}
	list, err := mlaas.ListModels(ctx, base, mlaas.ClientConfig{})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "defender: endpoint lists %d models; submitting audit jobs ...\n", len(list.Models))

	jobs := make([]audit.Job, len(list.Models))
	var wg sync.WaitGroup
	var mu sync.Mutex // guards firstErr and the job goroutines' writes to w
	var firstErr error
	for i, mi := range list.Models {
		wg.Add(1)
		go func(i int, mi mlaas.ModelInfo) {
			defer wg.Done()
			client, err := mlaas.DialModel(ctx, base, mi.ID, mlaas.ClientConfig{AuditPoll: 50 * time.Millisecond})
			var job audit.Job
			if err == nil {
				job, err = client.AuditModel(ctx, i)
			}
			if err == nil {
				mu.Lock()
				fmt.Fprintf(w, "defender: job %s queued for %s\n", job.ID, mi.ID)
				mu.Unlock()
				job, err = client.WaitAudit(ctx, job.ID)
				jobs[i] = job
			}
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("audit %s: %w", mi.ID, err)
				}
				mu.Unlock()
			}
		}(i, mi)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	for _, job := range jobs {
		if job.State != audit.StateDone || job.Verdict == nil {
			return fmt.Errorf("job %s for %s ended %s: %s", job.ID, job.ModelID, job.State, job.Error)
		}
		v := job.Verdict
		verdict := "CLEAN"
		if v.Backdoored {
			verdict = "BACKDOORED"
		}
		fmt.Fprintf(w, "defender: %-8s -> %-10s (job %s, score %.3f, prompted acc %.3f, %d queries in %s)\n",
			job.ModelID, verdict, job.ID, v.Score, v.PromptedAcc, v.Queries,
			job.Finished.Sub(job.Started).Round(time.Millisecond))
	}

	cancel()
	if err := <-serveErr; err != nil {
		return err
	}
	return nil
}
